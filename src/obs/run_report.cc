#include "obs/run_report.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "obs/log.h"

namespace s2s::obs {

namespace {

void write_u64_map(json::Writer& w, const char* key,
                   const std::map<std::string, std::uint64_t>& map) {
  w.key(key).begin_object();
  for (const auto& [name, v] : map) w.key(name).value(v);
  w.end_object();
}

bool read_u64_map(const json::Value& parent, const char* key,
                  std::map<std::string, std::uint64_t>& out) {
  const auto* obj = parent.find(key);
  if (obj == nullptr || !obj->is_object()) return false;
  for (const auto& [name, v] : obj->object) {
    if (!v.is_number()) return false;
    out.emplace(name, v.as_u64());
  }
  return true;
}

}  // namespace

std::size_t RunReport::nested_span_count() const {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [](const auto& kv) {
        return kv.first.find('/') != std::string::npos;
      }));
}

std::string RunReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema_version").value(schema_version);
  w.key("tool").value(tool);
  w.key("wall_ms").value(wall_ms);

  w.key("metrics").begin_object();
  write_u64_map(w, "counters", counters);
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const auto c : h.counts) w.value(c);
    w.end_array();
    w.key("total").value(h.total);
    w.key("overflow").value(h.overflow());
    w.key("p50").value(h.quantile(0.50));
    w.key("p99").value(h.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();  // metrics

  w.key("spans").begin_object();
  for (const auto& [path, s] : spans) {
    w.key(path).begin_object();
    w.key("depth").value(static_cast<std::int64_t>(s.depth));
    w.key("count").value(s.count);
    w.key("total_ms").value(s.total_ms);
    w.key("self_ms").value(s.self_ms);
    w.end_object();
  }
  w.end_object();

  write_u64_map(w, "data_quality", data_quality);

  w.key("windowed").begin_object();
  for (const auto& [name, win] : windowed) {
    w.key(name).begin_object();
    w.key("window_s").value(win.window_s);
    w.key("bounds").begin_array();
    for (const double b : win.hist.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const auto c : win.hist.counts) w.value(c);
    w.end_array();
    w.key("total").value(win.hist.total);
    w.key("p50").value(win.hist.quantile(0.50));
    w.key("p99").value(win.hist.quantile(0.99));
    w.end_object();
  }
  w.end_object();

  w.key("slo").begin_object();
  for (const auto& [name, s] : slo) {
    w.key(name).begin_object();
    w.key("threshold_us").value(s.threshold_us);
    w.key("good").value(s.good);
    w.key("total").value(s.total);
    w.key("good_ratio").value(s.good_ratio());
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.str();
}

std::optional<RunReport> RunReport::parse(std::string_view json_text) {
  const auto root = json::parse(json_text);
  if (!root || !root->is_object()) return std::nullopt;
  RunReport report;

  const auto* version = root->find("schema_version");
  const auto* tool = root->find("tool");
  if (version == nullptr || !version->is_number() || tool == nullptr ||
      !tool->is_string()) {
    return std::nullopt;
  }
  report.schema_version = static_cast<int>(version->as_i64());
  report.tool = tool->string;
  if (const auto* wall = root->find("wall_ms"); wall && wall->is_number()) {
    report.wall_ms = wall->number;
  }

  const auto* metrics = root->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return std::nullopt;
  if (!read_u64_map(*metrics, "counters", report.counters)) {
    return std::nullopt;
  }
  if (const auto* gauges = metrics->find("gauges");
      gauges && gauges->is_object()) {
    for (const auto& [name, v] : gauges->object) {
      if (!v.is_number()) return std::nullopt;
      report.gauges.emplace(name, v.number);
    }
  } else {
    return std::nullopt;
  }
  const auto* hists = metrics->find("histograms");
  if (hists == nullptr || !hists->is_object()) return std::nullopt;
  for (const auto& [name, h] : hists->object) {
    const auto* bounds = h.find("bounds");
    const auto* counts = h.find("counts");
    if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
        !counts->is_array() ||
        counts->array.size() != bounds->array.size() + 1) {
      return std::nullopt;
    }
    HistogramSnapshot snap;
    for (const auto& b : bounds->array) {
      if (!b.is_number()) return std::nullopt;
      snap.bounds.push_back(b.number);
    }
    for (const auto& c : counts->array) {
      if (!c.is_number()) return std::nullopt;
      snap.counts.push_back(c.as_u64());
      snap.total += snap.counts.back();
    }
    report.histograms.emplace(name, std::move(snap));
  }

  const auto* spans = root->find("spans");
  if (spans == nullptr || !spans->is_object()) return std::nullopt;
  for (const auto& [path, s] : spans->object) {
    const auto* depth = s.find("depth");
    const auto* count = s.find("count");
    const auto* total = s.find("total_ms");
    const auto* self = s.find("self_ms");
    if (depth == nullptr || !depth->is_number() || count == nullptr ||
        !count->is_number() || total == nullptr || !total->is_number() ||
        self == nullptr || !self->is_number()) {
      return std::nullopt;
    }
    report.spans.emplace(
        path, SpanStat{static_cast<std::uint32_t>(depth->as_u64()),
                       count->as_u64(), total->number, self->number});
  }

  if (!read_u64_map(*root, "data_quality", report.data_quality)) {
    return std::nullopt;
  }

  // v2 additions; absent in v1 documents, so both maps are optional.
  if (const auto* win = root->find("windowed"); win && win->is_object()) {
    for (const auto& [name, v] : win->object) {
      const auto* window_s = v.find("window_s");
      const auto* bounds = v.find("bounds");
      const auto* counts = v.find("counts");
      if (window_s == nullptr || !window_s->is_number() || bounds == nullptr ||
          !bounds->is_array() || counts == nullptr || !counts->is_array() ||
          counts->array.size() != bounds->array.size() + 1) {
        return std::nullopt;
      }
      WindowedSnapshot snap;
      snap.window_s = window_s->number;
      for (const auto& b : bounds->array) {
        if (!b.is_number()) return std::nullopt;
        snap.hist.bounds.push_back(b.number);
      }
      for (const auto& c : counts->array) {
        if (!c.is_number()) return std::nullopt;
        snap.hist.counts.push_back(c.as_u64());
        snap.hist.total += snap.hist.counts.back();
      }
      report.windowed.emplace(name, std::move(snap));
    }
  }
  if (const auto* slo = root->find("slo"); slo && slo->is_object()) {
    for (const auto& [name, v] : slo->object) {
      const auto* threshold = v.find("threshold_us");
      const auto* good = v.find("good");
      const auto* total = v.find("total");
      if (threshold == nullptr || !threshold->is_number() || good == nullptr ||
          !good->is_number() || total == nullptr || !total->is_number()) {
        return std::nullopt;
      }
      report.slo.emplace(
          name, SloStat{threshold->number, good->as_u64(), total->as_u64()});
    }
  }
  return report;
}

RunReport build_run_report(std::string tool, const MetricsRegistry& registry,
                           const TraceCollector& collector) {
  RunReport report;
  report.tool = std::move(tool);

  auto snap = registry.snapshot();
  report.counters = std::move(snap.counters);
  report.histograms = std::move(snap.histograms);

  std::int64_t first_us = 0, last_us = 0;
  bool any = false;
  for (const auto& e : collector.events()) {
    if (!any || e.start_us < first_us) first_us = e.start_us;
    if (!any || e.start_us + e.dur_us > last_us) {
      last_us = e.start_us + e.dur_us;
    }
    any = true;
  }
  if (any) report.wall_ms = static_cast<double>(last_us - first_us) / 1000.0;

  for (const auto& [path, s] : collector.aggregate()) {
    report.spans.emplace(path, RunReport::SpanStat{s.depth, s.count,
                                                   s.total_ms, s.self_ms});
  }
  return report;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    logf(LogLevel::kError, "cannot open '%s' for writing", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) logf(LogLevel::kError, "short write to '%s'", path.c_str());
  return ok;
}

}  // namespace s2s::obs
