// Tests for the live-observability layer (DESIGN.md section 13):
// windowed histogram rotation under an injected clock (including the
// 1-vs-8-thread determinism contract), Prometheus text exposition,
// slow-query-log gating / rate limiting / ring bound, cross-process
// trace identity in the chrome export, histogram overflow surfacing,
// RunReport schema v2 round-trip, and the log timestamp format.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/windowed.h"
#include "svc/slow_log.h"

namespace s2s {
namespace {

// ---------------------------------------------------------------------------
// WindowedHistogram.
// ---------------------------------------------------------------------------

TEST(Windowed, MergesOnlySlotsInsideTheWindow) {
  std::int64_t fake_ms = 0;
  // 3 slots x 1s: the window covers the last 3 seconds.
  obs::WindowedHistogram w({10.0, 100.0}, /*window_seconds=*/3, /*slots=*/3,
                           [&] { return fake_ms; });
  w.record(5.0);
  fake_ms = 1000;
  w.record(50.0);
  fake_ms = 2000;
  w.record(500.0);

  auto snap = w.snapshot();
  EXPECT_DOUBLE_EQ(snap.window_s, 3.0);
  ASSERT_EQ(snap.hist.counts.size(), 3u);
  EXPECT_EQ(snap.hist.total, 3u);
  EXPECT_EQ(snap.hist.counts[0], 1u);
  EXPECT_EQ(snap.hist.counts[1], 1u);
  EXPECT_EQ(snap.hist.overflow(), 1u);

  // Advance past the first sample's tick: it ages out of the merge.
  fake_ms = 3000;
  snap = w.snapshot();
  EXPECT_EQ(snap.hist.total, 2u);
  EXPECT_EQ(snap.hist.counts[0], 0u);

  // Far future: everything aged out; the next record lands alone in a
  // recycled (zeroed) slot.
  fake_ms = 60000;
  EXPECT_EQ(w.snapshot().hist.total, 0u);
  w.record(5.0);
  snap = w.snapshot();
  EXPECT_EQ(snap.hist.total, 1u);
  EXPECT_EQ(snap.hist.counts[0], 1u);
}

TEST(Windowed, SlotRecyclingZeroesStaleCounts) {
  std::int64_t fake_ms = 0;
  obs::WindowedHistogram w({10.0}, /*window_seconds=*/2, /*slots=*/2,
                           [&] { return fake_ms; });
  w.record(1.0);
  w.record(1.0);
  // Two full window-lengths later the same physical slot is reused; the
  // old counts must not leak into the new tick.
  fake_ms = 4000;
  w.record(1.0);
  const auto snap = w.snapshot();
  EXPECT_EQ(snap.hist.total, 1u);
}

TEST(Windowed, OneAndEightThreadSnapshotsAreIdentical) {
  // The merged snapshot is a pure function of the (tick, value) multiset,
  // not the recording threads. Record the same samples at the same fake
  // ticks with 1 and with 8 threads; the snapshots must match exactly.
  const std::vector<double> bounds = {10.0, 100.0, 1000.0};
  std::vector<std::pair<std::int64_t, double>> samples;
  for (int tick = 0; tick < 3; ++tick) {
    for (int i = 0; i < 64; ++i) {
      samples.emplace_back(tick * 1000,
                           static_cast<double>((i * 37) % 1500));
    }
  }

  auto run = [&](int threads) {
    std::atomic<std::int64_t> fake_ms{0};
    obs::WindowedHistogram w(bounds, /*window_seconds=*/4, /*slots=*/4,
                             [&] { return fake_ms.load(); });
    // Phase-stepped: all threads record one tick's samples, then the
    // clock advances — so no sample straddles a rotation boundary.
    std::size_t begin = 0;
    while (begin < samples.size()) {
      std::size_t end = begin;
      while (end < samples.size() &&
             samples[end].first == samples[begin].first) {
        ++end;
      }
      fake_ms.store(samples[begin].first);
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = begin + static_cast<std::size_t>(t);
               i < end; i += static_cast<std::size_t>(threads)) {
            w.record(samples[i].second);
          }
        });
      }
      for (auto& th : pool) th.join();
      begin = end;
    }
    return w.snapshot();
  };

  const auto serial = run(1);
  const auto wide = run(8);
  EXPECT_EQ(serial.hist.total, wide.hist.total);
  ASSERT_EQ(serial.hist.counts.size(), wide.hist.counts.size());
  for (std::size_t i = 0; i < serial.hist.counts.size(); ++i) {
    EXPECT_EQ(serial.hist.counts[i], wide.hist.counts[i]) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(serial.hist.quantile(0.99), wide.hist.quantile(0.99));
}

TEST(Windowed, SloStatRatio) {
  obs::SloStat s;
  EXPECT_DOUBLE_EQ(s.good_ratio(), 1.0);  // vacuous: nothing measured
  s.good = 3;
  s.total = 4;
  EXPECT_DOUBLE_EQ(s.good_ratio(), 0.75);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

TEST(Prometheus, SanitizesNames) {
  EXPECT_EQ(obs::prometheus_name("s2s.svc.requests"), "s2s_svc_requests");
  EXPECT_EQ(obs::prometheus_name("a-b c%"), "a_b_c_");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_lives");  // no leading digit
  EXPECT_EQ(obs::prometheus_name(""), "_");
  EXPECT_EQ(obs::prometheus_name("ok_name:x"), "ok_name:x");
}

TEST(Prometheus, RendersCountersGaugesAndCumulativeHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("s2s.svc.requests").inc(7);
  const obs::Histogram h = reg.histogram("s2s.svc.latency_us", {1.0, 10.0});
  h.record(0.5);
  h.record(5.0);
  h.record(99.0);  // overflow

  obs::MetricsSnapshot snap = reg.snapshot();
  snap.gauges["s2s.svc.uptime_s"] = 12.5;
  const std::string text = obs::to_prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE s2s_svc_requests_total counter\n"
                      "s2s_svc_requests_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE s2s_svc_uptime_s gauge\n"
                      "s2s_svc_uptime_s 12.5\n"),
            std::string::npos)
      << text;
  // Cumulative buckets with the mandatory +Inf equal to the count.
  EXPECT_NE(text.find("s2s_svc_latency_us_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_latency_us_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_latency_us_count 3\n"), std::string::npos)
      << text;
}

TEST(Prometheus, CounterAlreadyEndingInTotalIsNotDoubled) {
  obs::MetricsRegistry reg;
  reg.counter("s2s.svc.slo.pair_rtt.total").inc(2);
  const std::string text = obs::to_prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("s2s_svc_slo_pair_rtt_total 2\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("total_total"), std::string::npos) << text;
}

TEST(Prometheus, AppendsWindowedAndSloGauges) {
  std::int64_t fake_ms = 0;
  obs::WindowedHistogram w({10.0, 100.0}, 3, 3, [&] { return fake_ms; });
  w.record(5.0);
  w.record(50.0);
  std::map<std::string, obs::WindowedSnapshot> windowed;
  windowed["s2s.svc.windowed_us.pair_rtt"] = w.snapshot();
  std::map<std::string, obs::SloStat> slo;
  slo["s2s.svc.slo.pair_rtt"] = {50000.0, 9, 10};

  const std::string text = obs::to_prometheus_text({}, windowed, slo);
  EXPECT_NE(text.find("s2s_svc_windowed_us_pair_rtt_count 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_windowed_us_pair_rtt_window_s 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_windowed_us_pair_rtt_p99 "), std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_slo_pair_rtt_threshold_us 50000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("s2s_svc_slo_pair_rtt_good_ratio 0.9"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Slow-query log.
// ---------------------------------------------------------------------------

svc::SlowQueryEntry slow_entry(std::int64_t total_us) {
  svc::SlowQueryEntry e;
  e.trace_id = 0x2a;
  e.type = "figure_digest";
  e.total_us = total_us;
  e.queue_us = 1;
  e.exec_us = total_us - 1;
  e.cache_status = "miss";
  e.admission = "admitted";
  e.response = "ok";
  return e;
}

TEST(SlowQueryLog, DisabledAndUnderThresholdEmitNothing) {
  std::vector<std::string> lines;
  obs::set_log_sink([&](obs::LogLevel, std::string_view m) {
    lines.emplace_back(m);
  });
  svc::SlowQueryLog off({/*threshold_us=*/0});
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.emit(slow_entry(1000000)));

  svc::SlowQueryLog log({/*threshold_us=*/1000});
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.emit(slow_entry(1000)));  // threshold is exclusive
  EXPECT_TRUE(log.emit(slow_entry(1001)));
  obs::set_log_sink({});

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("slow_query {", 0), 0u) << lines[0];
  const auto doc = obs::json::parse(lines[0].substr(sizeof("slow_query ") - 1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("trace_id")->string, "0x000000000000002a");
  EXPECT_EQ(doc->find("type")->string, "figure_digest");
  EXPECT_EQ(doc->find("total_us")->as_u64(), 1001u);
  EXPECT_EQ(doc->find("cache")->string, "miss");
  EXPECT_EQ(doc->find("admission")->string, "admitted");
  EXPECT_EQ(doc->find("response")->string, "ok");
}

TEST(SlowQueryLog, RateLimitsAndReportsSuppressedNextInterval) {
  std::int64_t fake_ms = 0;
  std::vector<std::string> lines;
  obs::set_log_sink([&](obs::LogLevel, std::string_view m) {
    lines.emplace_back(m);
  });
  svc::SlowQueryLog log({/*threshold_us=*/10, /*max_per_interval=*/2,
                         /*interval_ms=*/1000, /*max_entries=*/128},
                        [&] { return fake_ms; });
  for (int i = 0; i < 5; ++i) log.emit(slow_entry(100));
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.suppressed(), 3u);
  ASSERT_EQ(lines.size(), 2u);

  // Next interval: the first line carries the suppressed count.
  fake_ms = 1500;
  EXPECT_TRUE(log.emit(slow_entry(100)));
  obs::set_log_sink({});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find("(+3 suppressed last interval)"), std::string::npos)
      << lines[2];
  // All six entries were retained regardless of rate limiting.
  EXPECT_EQ(log.entries().size(), 6u);
}

TEST(SlowQueryLog, RingBoundKeepsOnlyTheNewest) {
  obs::set_log_level(obs::LogLevel::kOff);
  svc::SlowQueryLog log({/*threshold_us=*/10, /*max_per_interval=*/1000,
                         /*interval_ms=*/1000, /*max_entries=*/4});
  for (int i = 0; i < 10; ++i) log.emit(slow_entry(100 + i));
  obs::set_log_level(obs::LogLevel::kInfo);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().total_us, 106);  // oldest retained
  EXPECT_EQ(entries.back().total_us, 109);
}

// ---------------------------------------------------------------------------
// Cross-process trace identity.
// ---------------------------------------------------------------------------

TEST(TraceContext, ExplicitIdsStitchClientAndServerSpans) {
  obs::TraceCollector collector;
  std::uint64_t trace_id = 0;
  std::uint64_t client_span = 0;
  {
    // Client side: the call span mints the trace id.
    obs::TraceSpan rpc("rpc:pair_rtt", /*trace_id=*/0, /*parent_span_id=*/0,
                       collector);
    trace_id = rpc.trace_id();
    client_span = rpc.span_id();
    EXPECT_NE(trace_id, 0u);
    // "Server" side, as if the ids had crossed the wire.
    obs::TraceSpan server("server:pair_rtt", trace_id, client_span,
                          collector);
    server.set_note("won");
    EXPECT_EQ(server.trace_id(), trace_id);
    { obs::TraceSpan phase("exec", collector); }
  }
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 3u);
  // RAII commit order: exec, server, rpc. The nested phase span inherits
  // the wire trace id through the thread-local chain.
  EXPECT_EQ(events[0].name, "exec");
  EXPECT_EQ(events[0].trace_id, trace_id);
  EXPECT_EQ(events[0].parent_span_id, events[1].span_id);
  EXPECT_EQ(events[1].parent_span_id, client_span);
  EXPECT_EQ(events[1].note, "won");
  EXPECT_EQ(events[2].span_id, client_span);
  EXPECT_EQ(events[2].parent_span_id, 0u);

  // The chrome export carries the ids as hex strings.
  const auto doc = obs::json::parse(collector.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const auto& evs = doc->find("traceEvents")->array;
  ASSERT_EQ(evs.size(), 3u);
  const auto* args = evs[1].find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("trace_id")->string.rfind("0x", 0), 0u);
  EXPECT_EQ(args->find("trace_id")->string,
            evs[0].find("args")->find("trace_id")->string);
  EXPECT_EQ(args->find("note")->string, "won");
}

TEST(TraceContext, PlainSpansStayUntraced) {
  obs::TraceCollector collector;
  { obs::TraceSpan local("pipeline", collector); }
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_NE(events[0].span_id, 0u);  // span ids are always minted
  // Untraced events do not carry id args in the export.
  EXPECT_EQ(collector.to_chrome_json().find("trace_id"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Overflow surfacing, RunReport v2, log timestamps.
// ---------------------------------------------------------------------------

TEST(Metrics, SnapshotSurfacesOverflow) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("h", {1.0, 10.0});
  h.record(0.5);
  h.record(11.0);
  h.record(1e9);
  const auto snap = reg.snapshot().histograms.at("h");
  EXPECT_EQ(snap.overflow(), 2u);
  EXPECT_EQ(obs::HistogramSnapshot{}.overflow(), 0u);
}

TEST(RunReport, SchemaV2RoundTripsWindowedSloAndOverflow) {
  obs::MetricsRegistry reg;
  obs::TraceCollector collector;
  reg.histogram("h", {1.0}).record(5.0);  // one overflow sample

  obs::RunReport report = obs::build_run_report("test_tool", reg, collector);
  std::int64_t fake_ms = 0;
  obs::WindowedHistogram w({10.0, 100.0}, 3, 3, [&] { return fake_ms; });
  w.record(5.0);
  w.record(50.0);
  report.windowed["s2s.svc.windowed_us.pair_rtt"] = w.snapshot();
  report.slo["s2s.svc.slo.pair_rtt"] = {50000.0, 9, 10};

  EXPECT_EQ(obs::kRunReportSchemaVersion, 2);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos) << json;

  const auto parsed = obs::RunReport::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->histograms.at("h").overflow(), 1u);
  const auto& ws = parsed->windowed.at("s2s.svc.windowed_us.pair_rtt");
  EXPECT_DOUBLE_EQ(ws.window_s, 3.0);
  EXPECT_EQ(ws.hist.total, 2u);
  ASSERT_EQ(ws.hist.counts.size(), 3u);
  const auto& slo = parsed->slo.at("s2s.svc.slo.pair_rtt");
  EXPECT_DOUBLE_EQ(slo.threshold_us, 50000.0);
  EXPECT_EQ(slo.good, 9u);
  EXPECT_EQ(slo.total, 10u);
  EXPECT_DOUBLE_EQ(slo.good_ratio(), 0.9);
}

TEST(RunReport, V1DocumentWithoutNewSectionsStillParses) {
  obs::MetricsRegistry reg;
  obs::TraceCollector collector;
  obs::RunReport report = obs::build_run_report("t", reg, collector);
  std::string json = report.to_json();
  // Strip the v2-only sections a v1 writer would not have emitted.
  const auto windowed_at = json.find(",\"windowed\"");
  ASSERT_NE(windowed_at, std::string::npos);
  json = json.substr(0, windowed_at) + "}";
  const auto parsed = obs::RunReport::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->windowed.empty());
  EXPECT_TRUE(parsed->slo.empty());
}

TEST(Log, TimestampIsFixedWidthUtc) {
  EXPECT_EQ(obs::log_timestamp_utc(0), "1970-01-01T00:00:00.000Z");
  EXPECT_EQ(obs::log_timestamp_utc(1786192496789LL),
            "2026-08-08T12:34:56.789Z");
  EXPECT_EQ(obs::log_timestamp_utc(1786192496789LL).size(), 24u);
}

TEST(Log, DefaultSinkPrefixesTimestampAndLevel) {
  // The default sink writes to stderr; pin the format via the exposed
  // helper plus a captured sink carrying the same message unchanged.
  std::string captured;
  obs::set_log_sink([&](obs::LogLevel level, std::string_view m) {
    captured = "s2s " + obs::log_timestamp_utc(0) + " [" +
               std::string(obs::to_string(level)) + "] " + std::string(m);
  });
  obs::log_message(obs::LogLevel::kWarn, "drift detected");
  obs::set_log_sink({});
  EXPECT_EQ(captured, "s2s 1970-01-01T00:00:00.000Z [warn] drift detected");
}

}  // namespace
}  // namespace s2s
