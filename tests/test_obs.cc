// Tests for the observability layer: metrics registry semantics (bucket
// boundaries, exact concurrent counting, disabled no-op), span nesting in
// the exported chrome trace, log sink capture, and RunReport round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace s2s::obs {
namespace {

TEST(Json, RoundTripsWriterOutput) {
  json::Writer w;
  w.begin_object();
  w.key("text");
  w.value("line\n\"quoted\"\tand \\ control \x01");
  w.key("num");
  w.value(-12.5);
  w.key("big");
  w.value(std::uint64_t{1} << 53);
  w.key("list");
  w.begin_array();
  w.value(true);
  w.null();
  w.value(0);
  w.end_array();
  w.end_object();

  const auto parsed = json::parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("text")->string, "line\n\"quoted\"\tand \\ control \x01");
  EXPECT_DOUBLE_EQ(parsed->find("num")->number, -12.5);
  EXPECT_EQ(parsed->find("big")->as_u64(), std::uint64_t{1} << 53);
  ASSERT_EQ(parsed->find("list")->array.size(), 3u);
  EXPECT_TRUE(parsed->find("list")->array[1].is_null());
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(json::parse("[1 2]").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("nan").has_value());
}

TEST(Metrics, HistogramBucketBoundaries) {
  // A registry histogram and a windowed one with the same bounds share
  // their bucket cells, so one set of samples lands alike in both.
  MetricsRegistry reg;
  // Bounds {1, 10, 100}: four buckets — <=1, (1,10], (10,100], >100.
  const Histogram h = reg.histogram("h", {1.0, 10.0, 100.0});
  WindowedHistogram w({1.0, 10.0, 100.0}, /*window_seconds=*/60,
                      /*slots=*/6, [] { return std::int64_t{0}; });
  for (const double v : {0.5,      // bucket 0
                         1.0,      // bucket 0: bounds are inclusive upper edges
                         1.0001,   // bucket 1
                         10.0,     // bucket 1
                         100.0,    // bucket 2
                         100.5,    // overflow
                         1e9}) {   // overflow
    h.record(v);
    w.record(v);
  }

  const auto snap = reg.snapshot();
  for (const HistogramSnapshot& hist :
       {snap.histograms.at("h"), w.snapshot().hist}) {
    ASSERT_EQ(hist.counts.size(), 4u);
    EXPECT_EQ(hist.counts[0], 2u);
    EXPECT_EQ(hist.counts[1], 2u);
    EXPECT_EQ(hist.counts[2], 1u);
    EXPECT_EQ(hist.counts[3], 2u);
    EXPECT_EQ(hist.total, 7u);
    // Quantiles stay within the data's bucket range.
    EXPECT_GE(hist.quantile(0.5), 0.0);
    EXPECT_LE(hist.quantile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.999), 100.0);  // overflow clamps
  }
}

TEST(Metrics, ConcurrentCountersSumExactly) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("n");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counters.at("n"), kThreads * kPerThread);
}

TEST(Metrics, SnapshotWhileWritingIsExactAndMonotone) {
  // Writers share each metric's cells; a snapshot taken mid-write reads
  // every cell atomically, so no count ever goes backwards, and the one
  // taken after the writers join is exact.
  MetricsRegistry reg;
  const Counter counter = reg.counter("n");
  const Histogram hist = reg.histogram("h", {1.0, 2.0});
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.inc();
        // 0.5, 1.5, 2.5: buckets 0, 1 and the overflow.
        hist.record(0.5 + static_cast<double>((i + t) % 3));
      }
      running.fetch_sub(1);
    });
  }
  MetricsSnapshot prev = reg.snapshot();
  const auto check_monotone = [&](const MetricsSnapshot& next) {
    EXPECT_GE(next.counters.at("n"), prev.counters.at("n"));
    const auto& now_h = next.histograms.at("h");
    const auto& prev_h = prev.histograms.at("h");
    EXPECT_GE(now_h.total, prev_h.total);
    for (std::size_t i = 0; i < now_h.counts.size(); ++i) {
      EXPECT_GE(now_h.counts[i], prev_h.counts[i]) << "bucket " << i;
    }
  };
  while (running.load() > 0) {
    MetricsSnapshot next = reg.snapshot();
    check_monotone(next);
    prev = std::move(next);
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot last = reg.snapshot();
  check_monotone(last);
  EXPECT_EQ(last.counters.at("n"), kThreads * kPerThread);
  const auto& h = last.histograms.at("h");
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.total, kThreads * kPerThread);
  EXPECT_EQ(h.counts[0] + h.counts[1] + h.counts[2], h.total);
  EXPECT_GT(h.overflow(), 0u);
}

TEST(Metrics, ShortLivedThreadsKeepTheirTotals) {
  // Short-lived threads (a pool per load) write the metric's own cells,
  // so their counts outlive them.
  MetricsRegistry reg;
  const Counter counter = reg.counter("n");
  const Histogram hist = reg.histogram("h", {1.0, 2.0});
  constexpr int kThreads = 256;
  constexpr int kWave = 16;
  for (int wave = 0; wave < kThreads / kWave; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWave; ++t) {
      threads.emplace_back([&, t] {
        counter.inc(static_cast<std::uint64_t>(t) + 1);
        hist.record(1.5);
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("n"),
            static_cast<std::uint64_t>(kThreads / kWave) * kWave *
                (kWave + 1) / 2);
  EXPECT_EQ(snap.histograms.at("h").total, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(snap.histograms.at("h").counts[1],
            static_cast<std::uint64_t>(kThreads));
  // reset() clears the exited threads' counts too.
  reg.reset();
  EXPECT_EQ(reg.snapshot().counters.at("n"), 0u);
}

TEST(Metrics, DisabledRegistryAndDefaultHandlesAreNoOps) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("n");
  const Histogram hist = reg.histogram("h", {1.0});
  reg.set_enabled(false);
  counter.inc(100);
  hist.record(5.0);
  reg.set_enabled(true);
  counter.inc();
  EXPECT_EQ(reg.snapshot().counters.at("n"), 1u);
  EXPECT_EQ(reg.snapshot().histograms.at("h").total, 0u);

  const Counter untied;  // default-constructed: must not crash
  untied.inc();
  const Histogram untied_h;
  untied_h.record(1.0);
}

TEST(Metrics, KindMismatchYieldsNoOpHandle) {
  MetricsRegistry reg;
  set_log_level(LogLevel::kOff);
  (void)reg.counter("name");
  const Histogram wrong = reg.histogram("name", {1.0});
  set_log_level(LogLevel::kInfo);
  wrong.record(0.5);  // must be a no-op, not slot corruption
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("name"), 0u);
  EXPECT_FALSE(snap.histograms.contains("name"));
}

TEST(Trace, NestingOrderInExportedChromeJson) {
  TraceCollector collector;
  {
    const TraceSpan outer("outer", collector);
    { const TraceSpan inner1("inner1", collector); }
    { const TraceSpan inner2("inner2", collector); }
  }
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 3u);
  // Children commit before the parent (RAII order).
  EXPECT_EQ(events[0].path, "outer/inner1");
  EXPECT_EQ(events[1].path, "outer/inner2");
  EXPECT_EQ(events[2].path, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_EQ(events[0].depth, 1u);
  // Parent contains the children in time.
  EXPECT_LE(events[2].start_us, events[0].start_us);
  EXPECT_GE(events[2].start_us + events[2].dur_us,
            events[1].start_us + events[1].dur_us);

  // The chrome export parses back and mirrors the same structure.
  const auto doc = json::parse(collector.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const auto* trace_events = doc->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->array.size(), 3u);
  for (const auto& ev : trace_events->array) {
    EXPECT_EQ(ev.find("ph")->string, "X");
    EXPECT_EQ(ev.find("cat")->string, "s2s");
    EXPECT_GE(ev.find("dur")->number, 0.0);
  }
  EXPECT_EQ(trace_events->array[0].find("args")->find("path")->string,
            "outer/inner1");
  EXPECT_EQ(trace_events->array[2].find("name")->string, "outer");
}

TEST(Trace, AggregateComputesSelfTimeAndFlamegraphIndents) {
  TraceCollector collector;
  {
    const TraceSpan outer("outer", collector);
    const TraceSpan inner("inner", collector);
  }
  const auto stats = collector.aggregate();
  ASSERT_TRUE(stats.contains("outer"));
  ASSERT_TRUE(stats.contains("outer/inner"));
  EXPECT_GE(stats.at("outer").total_ms, stats.at("outer/inner").total_ms);
  EXPECT_LE(stats.at("outer").self_ms, stats.at("outer").total_ms);

  const auto graph = collector.flamegraph();
  EXPECT_NE(graph.find("outer"), std::string::npos);
  EXPECT_NE(graph.find("  inner"), std::string::npos);
}

TEST(Trace, DisabledCollectorProducesNoEvents) {
  TraceCollector collector;
  collector.set_enabled(false);
  { const TraceSpan span("ghost", collector); }
  EXPECT_TRUE(collector.events().empty());
}

TEST(Log, SinkCapturesLeveledMessagesAndFiltersBelowThreshold) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, std::string_view message) {
    captured.emplace_back(level, std::string(message));
  });
  set_log_level(LogLevel::kWarn);
  logf(LogLevel::kInfo, "filtered %d", 1);
  logf(LogLevel::kWarn, "kept %s", "message");
  log_message(LogLevel::kError, "plain");
  set_log_level(LogLevel::kInfo);
  set_log_sink({});  // restore stderr default

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarn);
  EXPECT_EQ(captured[0].second, "kept message");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_EQ(captured[1].second, "plain");
}

TEST(RunReport, RoundTripsThroughJson) {
  MetricsRegistry reg;
  TraceCollector collector;
  reg.counter("s2s.test.records").inc(42);
  reg.histogram("s2s.test.rtt_ms", {1.0, 10.0}).record(3.0);
  {
    const TraceSpan outer("campaign", collector);
    const TraceSpan inner("epoch", collector);
  }

  RunReport report = build_run_report("test_tool", reg, collector);
  report.gauges["s2s.test.rate"] = 12.5;
  report.data_quality["invalid_rtt"] = 7;

  EXPECT_EQ(report.schema_version, kRunReportSchemaVersion);
  EXPECT_EQ(report.tool, "test_tool");
  EXPECT_EQ(report.metric_count(), 3u);
  EXPECT_EQ(report.nested_span_count(), 1u);

  const auto parsed = RunReport::parse(report.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema_version, report.schema_version);
  EXPECT_EQ(parsed->tool, "test_tool");
  EXPECT_EQ(parsed->counters.at("s2s.test.records"), 42u);
  EXPECT_DOUBLE_EQ(parsed->gauges.at("s2s.test.rate"), 12.5);
  const auto& hist = parsed->histograms.at("s2s.test.rtt_ms");
  ASSERT_EQ(hist.bounds.size(), 2u);
  ASSERT_EQ(hist.counts.size(), 3u);
  EXPECT_EQ(hist.total, 1u);
  EXPECT_EQ(hist.counts[1], 1u);
  ASSERT_TRUE(parsed->spans.contains("campaign/epoch"));
  EXPECT_EQ(parsed->spans.at("campaign/epoch").depth, 1u);
  EXPECT_EQ(parsed->spans.at("campaign/epoch").count, 1u);
  EXPECT_EQ(parsed->data_quality.at("invalid_rtt"), 7u);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, report.wall_ms);
}

TEST(RunReport, ParseRejectsWrongShape) {
  EXPECT_FALSE(RunReport::parse("not json").has_value());
  EXPECT_FALSE(RunReport::parse("{}").has_value());
  // schema_version of the wrong type.
  EXPECT_FALSE(RunReport::parse(
                   R"({"schema_version":"1","tool":"t","wall_ms":0,)"
                   R"("metrics":{"counters":{},"gauges":{},"histograms":{}},)"
                   R"("spans":{},"data_quality":{}})")
                   .has_value());
}

TEST(RunReport, RegistryResetClearsCountsButKeepsHandles) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("n");
  counter.inc(5);
  reg.reset();
  counter.inc(2);
  EXPECT_EQ(reg.snapshot().counters.at("n"), 2u);
}

}  // namespace
}  // namespace s2s::obs
