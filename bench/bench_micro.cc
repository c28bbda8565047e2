// Micro-benchmarks (google-benchmark) for the core primitives: topology
// generation, valley-free route computation, longest-prefix match over
// real hop addresses, AS-path edit distance, the diurnal detector, the
// served congestion verdict and its JSON doubles, traceroute simulation,
// campaign epochs at 1 and 4 lanes, the `.s2sb` block encoder, and the
// record-ingest hot paths (traceroutes with observability on vs off, and
// pings) — plus the edit-distance vs exact-equality change-detection
// ablation.
//
// After the benchmark table, main() prints a one-line JSON summary with
// ingest throughput, the obs overhead percentage, p50/p99 of the
// ingested RTTs taken from the s2s.timeline.rtt_ms histogram, and the
// parallel congestion-survey speedup vs 1 thread (with an
// identical-output cross-check of the serial and 8-thread results).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bgp/rib.h"
#include "io/binrec.h"
#include "io/records_io.h"
#include "core/change_detect.h"
#include "core/congestion_detect.h"
#include "core/ping_series.h"
#include "core/segment_series.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "probe/campaign.h"
#include "probe/traceroute.h"
#include "routing/valley_free.h"
#include "simnet/network.h"
#include "stats/fft.h"
#include "svc/ingest.h"
#include "topology/generator.h"

namespace {

using namespace s2s;

const topology::Topology& shared_topology() {
  static const topology::Topology topo = [] {
    topology::GeneratorConfig cfg;
    cfg.seed = 42;
    return topology::generate(cfg);
  }();
  return topo;
}

void BM_GenerateTopology(benchmark::State& state) {
  topology::GeneratorConfig cfg;
  cfg.stub_count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto topo = topology::generate(cfg);
    benchmark::DoNotOptimize(topo.links.size());
    cfg.seed++;
  }
}
BENCHMARK(BM_GenerateTopology)->Arg(100)->Arg(400);

void BM_ValleyFreeCompute(benchmark::State& state) {
  const auto& topo = shared_topology();
  const routing::ValleyFreeRouter router(topo);
  topology::AsId dest = 0;
  for (auto _ : state) {
    const auto table = router.compute(dest, net::Family::kIPv4);
    benchmark::DoNotOptimize(table.length[dest]);
    dest = (dest + 1) % static_cast<topology::AsId>(topo.ases.size());
  }
}
BENCHMARK(BM_ValleyFreeCompute);

void BM_EditDistance(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  net::AsPath a, b;
  for (std::size_t i = 0; i < len; ++i) {
    a.emplace_back(static_cast<std::uint32_t>(i + 1));
    b.emplace_back(static_cast<std::uint32_t>(i % 2 == 0 ? i + 1 : i + 100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::edit_distance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(4)->Arg(8)->Arg(16);

// Ablation: exact string inequality is ~10x cheaper than edit distance and
// detects the same change *events*; edit distance additionally grades their
// magnitude (the paper uses the distance only as a nonzero indicator).
void BM_ChangeDetect_ExactEquality(benchmark::State& state) {
  net::AsPath a{net::Asn(1), net::Asn(2), net::Asn(3), net::Asn(4)};
  net::AsPath b{net::Asn(1), net::Asn(2), net::Asn(4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_ChangeDetect_ExactEquality);

void BM_ChangeDetect_EditDistance(benchmark::State& state) {
  net::AsPath a{net::Asn(1), net::Asn(2), net::Asn(3), net::Asn(4)};
  net::AsPath b{net::Asn(1), net::Asn(2), net::Asn(4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::edit_distance(a, b) != 0);
  }
}
BENCHMARK(BM_ChangeDetect_EditDistance);

void BM_DiurnalRatio(benchmark::State& state) {
  std::vector<double> series;
  for (int i = 0; i < 7 * 96; ++i) {
    const double hour = (i % 96) / 4.0;
    series.push_back(80.0 + 20.0 * std::exp(-(hour - 20) * (hour - 20) / 8));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::diurnal_power_ratio(series, 96.0).ratio);
  }
}
BENCHMARK(BM_DiurnalRatio);

simnet::Network& shared_network() {
  static simnet::Network* net = [] {
    simnet::NetworkConfig cfg;
    cfg.topology.server_count = 40;
    auto* n = new simnet::Network(cfg);
    std::vector<topology::ServerId> servers;
    for (topology::ServerId s = 0; s < n->topo().servers.size(); ++s) {
      servers.push_back(s);
    }
    n->prepare_full_mesh(servers);
    return n;
  }();
  return *net;
}

void BM_Traceroute(benchmark::State& state) {
  simnet::Network* net = &shared_network();
  probe::TracerouteEngine engine(*net, {}, stats::Rng(1));
  topology::ServerId dst = 1;
  std::int64_t t = 0;
  for (auto _ : state) {
    auto rec = engine.run(0, dst, net::Family::kIPv4, net::SimTime(t),
                          probe::TracerouteMethod::kParis);
    benchmark::DoNotOptimize(rec.has_value());
    dst = 1 + (dst % 39);
    t += net::kThreeHours;
  }
}
BENCHMARK(BM_Traceroute);

/// Responsive hop addresses of `family` traceroutes over the shared mesh
/// that the RIB maps to an origin: the lookups record ingest makes.
std::vector<net::IPAddr> matched_hop_addrs(net::Family family) {
  simnet::Network& net = shared_network();
  probe::TracerouteEngine engine(net, {}, stats::Rng(5));
  const auto servers =
      static_cast<topology::ServerId>(net.topo().servers.size());
  std::vector<net::IPAddr> out;
  std::int64_t t = 0;
  for (topology::ServerId src = 0; src < servers && out.size() < 4096;
       ++src) {
    for (topology::ServerId dst = 0; dst < servers; ++dst) {
      if (dst == src) continue;
      const auto rec = engine.run(src, dst, family, net::SimTime(t),
                                  probe::TracerouteMethod::kParis);
      t += net::kThreeHours;
      if (!rec) continue;
      for (const auto& hop : rec->hops) {
        if (hop.addr && net.rib().origin(*hop.addr)) out.push_back(*hop.addr);
      }
    }
  }
  return out;
}

// Longest-prefix match as TimelineStore::add makes it: Rib::origin on
// the family-dispatching address, over hop addresses that all match.
// Arg(4) = IPv4 hops, Arg(6) = IPv6 hops.
void BM_RibLongestPrefixMatch(benchmark::State& state) {
  static const auto v4 = matched_hop_addrs(net::Family::kIPv4);
  static const auto v6 = matched_hop_addrs(net::Family::kIPv6);
  const bgp::Rib& rib = shared_network().rib();
  const auto& addrs = state.range(0) == 4 ? v4 : v6;
  if (addrs.empty()) {
    state.SkipWithError("no mapped hop addresses");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rib.origin(addrs[i]));
    if (++i == addrs.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RibLongestPrefixMatch)->Arg(4)->Arg(6);

/// Distinct pre-generated records so the ingest loop never trips the
/// dedup window (capacity 4096) or re-parses: the benchmark measures
/// TimelineStore::add alone.
const std::vector<probe::TracerouteRecord>& ingest_records() {
  static const std::vector<probe::TracerouteRecord> records = [] {
    std::vector<probe::TracerouteRecord> out;
    probe::TracerouteEngine engine(shared_network(), {}, stats::Rng(7));
    std::int64_t t = 0;
    topology::ServerId dst = 1;
    while (out.size() < 8192) {
      if (auto rec = engine.run(0, dst, net::Family::kIPv4, net::SimTime(t),
                                probe::TracerouteMethod::kParis)) {
        out.push_back(std::move(*rec));
      }
      dst = 1 + (dst % 39);
      t += net::kThreeHours;
    }
    return out;
  }();
  return records;
}

// Record-ingest hot path: Arg(1) = obs enabled (instrumented production
// configuration), Arg(0) = disabled global registry (the no-op arm). The
// acceptance bar for leaving instrumentation on is <5% throughput delta.
void BM_TimelineIngest(benchmark::State& state) {
  simnet::Network& net = shared_network();
  const auto& records = ingest_records();
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(state.range(0) != 0);
  core::TimelineStore store(net.topo(), net.rib(), {0.0, net::kThreeHours});
  std::size_t i = 0;
  for (auto _ : state) {
    store.add(records[i]);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  reg.set_enabled(true);
}
BENCHMARK(BM_TimelineIngest)->Arg(0)->Arg(1);

/// Every unordered server pair of the shared mesh.
std::vector<std::pair<topology::ServerId, topology::ServerId>> mesh_pairs() {
  std::vector<std::pair<topology::ServerId, topology::ServerId>> pairs;
  const auto n = shared_network().topo().servers.size();
  for (topology::ServerId a = 0; a < n; ++a) {
    for (topology::ServerId b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

/// One day of 15-minute pings over the shared 40-server mesh, both
/// families, in campaign order.
struct PingIngestSet {
  probe::PingCampaignConfig cfg;
  std::size_t epochs = 0;
  std::vector<probe::PingRecord> records;
};

const PingIngestSet& ping_ingest_set() {
  static const PingIngestSet set = [] {
    simnet::Network& net = shared_network();
    PingIngestSet out;
    out.cfg.days = 1.0;
    probe::PingCampaign pings(net, out.cfg, mesh_pairs());
    out.epochs = pings.epochs();
    pings.run([&](const probe::PingRecord& r) { out.records.push_back(r); });
    return out;
  }();
  return set;
}

// PingSeriesStore::add over distinct records: dedup, grid and validity
// checks plus the slot write. The store starts afresh (untimed) at each
// pass over the set, so no record reaches the store twice.
void BM_PingIngest(benchmark::State& state) {
  const auto& set = ping_ingest_set();
  const auto fresh_store = [&set] {
    return core::PingSeriesStore(set.cfg.start_day, set.cfg.interval_s,
                                 set.epochs);
  };
  auto store = fresh_store();
  std::size_t i = 0;
  for (auto _ : state) {
    store.add(set.records[i]);
    if (++i == set.records.size()) {
      state.PauseTiming();
      store = fresh_store();
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PingIngest);

/// Two days of 30-minute follow-up traceroutes over 40 pairs of the
/// shared mesh, both families, in campaign order: the stream shape
/// SegmentSeriesStore takes in the Section 5.2 follow-up.
struct SegmentIngestSet {
  probe::TracerouteCampaignConfig cfg;
  std::size_t epochs = 0;
  std::vector<probe::TracerouteRecord> records;
};

const SegmentIngestSet& segment_ingest_set() {
  static const SegmentIngestSet set = [] {
    SegmentIngestSet out;
    out.cfg.days = 2.0;
    out.cfg.interval_s = net::kThirtyMinutes;
    out.cfg.paris_switch_day = 0.0;
    auto pairs = mesh_pairs();
    pairs.resize(40);
    probe::TracerouteCampaign followup(shared_network(), out.cfg, pairs);
    out.epochs = followup.epochs();
    followup.run(
        [&](const probe::TracerouteRecord& r) { out.records.push_back(r); });
    return out;
  }();
  return set;
}

// SegmentSeriesStore::add over distinct records: the admission gate, the
// hop-address check and the row write. The store starts afresh (untimed)
// at each pass over the set, so no record reaches the store twice.
void BM_SegmentIngest(benchmark::State& state) {
  const auto& set = segment_ingest_set();
  const auto fresh_store = [&set] {
    return core::SegmentSeriesStore(set.cfg.start_day, set.cfg.interval_s,
                                    set.epochs);
  };
  auto store = fresh_store();
  std::size_t i = 0;
  for (auto _ : state) {
    store.add(set.records[i]);
    if (++i == set.records.size()) {
      state.PauseTiming();
      store = fresh_store();
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SegmentIngest);

/// The same record set serialized once into each archive format, plus an
/// on-disk copy of the binary image for the mmap arm.
struct IngestImages {
  std::string text;
  std::string binary;
  std::string binary_path;
};

const IngestImages& ingest_images() {
  static const IngestImages images = [] {
    IngestImages out;
    std::ostringstream text_out;
    std::ostringstream bin_out(std::ios::binary);
    io::RecordWriter text_writer(text_out);
    io::BinRecordWriter bin_writer(bin_out);
    for (const auto& r : ingest_records()) {
      text_writer.write(r);
      bin_writer.write(r);
    }
    bin_writer.finish();
    out.text = text_out.str();
    out.binary = bin_out.str();
    out.binary_path =
        std::filesystem::temp_directory_path() / "s2s_bench_micro.s2sb";
    std::ofstream file(out.binary_path, std::ios::binary | std::ios::trunc);
    file << out.binary;
    return out;
  }();
  return images;
}

// Archive-ingest formats, full decode of the same 8192 traceroutes per
// iteration: text parsing vs the memory-mapped binary columnar block
// format. main() reports the binary reader's speedup over text — the
// `.s2sb` acceptance bar is >= 5x.
void BM_ArchiveIngest_Text(benchmark::State& state) {
  const auto& images = ingest_images();
  std::size_t n = 0;
  for (auto _ : state) {
    std::istringstream in(images.text);
    io::RecordReader reader(in);
    reader.read_all([&](const probe::TracerouteRecord& r) {
                      benchmark::DoNotOptimize(r.time);
                      ++n;
                    },
                    [](const probe::PingRecord&) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ArchiveIngest_Text)->Unit(benchmark::kMillisecond);

void BM_ArchiveIngest_BinMmap(benchmark::State& state) {
  const auto& images = ingest_images();
  std::size_t n = 0;
  for (auto _ : state) {
    io::BinRecordMmapReader reader(images.binary_path);
    reader.read_all([&](const probe::TracerouteRecord& r) {
                      benchmark::DoNotOptimize(r.time);
                      ++n;
                    },
                    [](const probe::PingRecord&) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ArchiveIngest_BinMmap)->Unit(benchmark::kMillisecond);

/// The traceroute and ping ingest sets in one footer-indexed archive on
/// disk: the input of a whole-archive load.
const std::string& load_archive_path() {
  static const std::string path = [] {
    const std::string p =
        std::filesystem::temp_directory_path() / "s2s_bench_micro_load.s2sb";
    std::ofstream file(p, std::ios::binary | std::ios::trunc);
    io::BinRecordWriter writer(file);
    for (const auto& r : ingest_records()) writer.write(r);
    writer.flush_block();
    for (const auto& r : ping_ingest_set().records) writer.write(r);
    writer.finish();
    return p;
  }();
  return path;
}

// Whole-archive load as Dataset::load runs it — map, plan, then decode
// and prepare blocks on Arg(0) lanes with commits in archive order —
// into fresh stores each iteration.
void BM_ArchiveIngest_Load(benchmark::State& state) {
  simnet::Network& net = shared_network();
  const auto& set = ping_ingest_set();
  const std::string& path = load_archive_path();
  exec::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::size_t n = 0;
  for (auto _ : state) {
    const io::BinRecordMmapReader reader(path);
    core::TimelineStore timelines(net.topo(), net.rib(),
                                  {0.0, net::kThreeHours});
    core::PingSeriesStore pings(set.cfg.start_day, set.cfg.interval_s, 0,
                                core::PingSeriesStore::Grid::kGrow);
    const auto outcome = svc::ingest_blocks(
        {reader.data(), 0, reader.size(), 0, &reader.file()}, reader.plan(),
        {&timelines, &pings, nullptr}, &pool);
    benchmark::DoNotOptimize(outcome.crc);
    n += outcome.counters.records_read;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ArchiveIngest_Load)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A traceroute campaign over the shared mesh, epochs prepared on Arg(0)
// lanes and drawn on the caller (DESIGN.md section 18): the time per
// iteration over kEpochs is the per-epoch cost at that width. Each run
// continues the engine's stream; the records are the same at every width.
void BM_CampaignEpoch(benchmark::State& state) {
  constexpr std::size_t kEpochs = 64;
  simnet::Network& net = shared_network();
  probe::TracerouteCampaignConfig cfg;
  cfg.days = static_cast<double>(kEpochs * net::kThreeHours) / 86400.0;
  cfg.downtime.monthly_window_prob = 0.0;
  const auto pairs = mesh_pairs();
  exec::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  probe::TracerouteCampaign campaign(net, cfg, pairs);
  std::size_t records = 0;
  for (auto _ : state) {
    campaign.run([&](const probe::TracerouteRecord&) { ++records; }, {},
                 nullptr, pool);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["epochs"] = static_cast<double>(kEpochs);
}
BENCHMARK(BM_CampaignEpoch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// BinRecordWriter's encode of whole blocks: Arg(0) = the 8192-traceroute
// ingest set, Arg(1) = one day of mesh pings, into a reused buffer.
void BM_EncodeBlock(benchmark::State& state) {
  const bool pings = state.range(0) != 0;
  const auto& traces = ingest_records();  // built before timing
  const auto& ping_set = ping_ingest_set();
  std::ostringstream out(std::ios::binary);
  std::size_t bytes = 0;
  for (auto _ : state) {
    out.str({});
    io::BinRecordWriter writer(out);
    if (pings) {
      for (const auto& r : ping_set.records) writer.write(r);
    } else {
      for (const auto& r : traces) writer.write(r);
    }
    writer.finish();
    bytes += writer.bytes_written();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeBlock)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One week of 15-minute pings over the shared 40-server mesh: the
/// pair-level workload for the parallel congestion-survey benchmark.
const core::PingSeriesStore& survey_store() {
  static const core::PingSeriesStore* store = [] {
    simnet::Network& net = shared_network();
    probe::PingCampaignConfig cfg;
    cfg.days = 7.0;
    probe::PingCampaign pings(net, cfg, mesh_pairs());
    auto* s = new core::PingSeriesStore(cfg.start_day, net::kFifteenMinutes,
                                        pings.epochs());
    pings.run([&](const probe::PingRecord& r) { s->add(r); });
    return s;
  }();
  return *store;
}

// The tentpole workload: survey_congestion sharded over Arg(0) worker
// threads. Results are byte-identical at any thread count (DESIGN.md
// section 9); main() cross-checks that and reports speedup vs Arg(1).
void BM_SurveyCongestion(benchmark::State& state) {
  const auto& store = survey_store();
  exec::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto survey = core::survey_congestion(store, {}, &pool);
    benchmark::DoNotOptimize(survey.v4.pairs_assessed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SurveyCongestion)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The served congestion verdict over a week of one series' slots (W =
// 672), plus its JSON response body: the per-request cost of
// kCongestionVerdict. Cycles through the survey store's series.
void BM_SeriesVerdict(benchmark::State& state) {
  const auto& store = survey_store();
  std::vector<const core::PingSeriesStore::Series*> series;
  store.for_each([&](topology::ServerId, topology::ServerId, net::Family,
                     const core::PingSeriesStore::Series& s) {
    series.push_back(&s);
  });
  const core::CongestionDetectConfig config;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto v = core::window_verdict(*series[i], store.samples_per_day(),
                                        config, 0.6);
    obs::json::Writer w;
    w.begin_object();
    w.key("samples").value(
        static_cast<std::uint64_t>(v.samples - v.missing_samples));
    w.key("missing_samples")
        .value(static_cast<std::uint64_t>(v.missing_samples));
    w.key("insufficient").value(v.insufficient);
    w.key("variation_ms").value(v.variation_ms);
    w.key("diurnal_ratio").value(v.diurnal_ratio);
    w.key("consistent_congestion").value(v.consistent_congestion());
    w.end_object();
    benchmark::DoNotOptimize(w.str().data());
    i = (i + 1) % series.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeriesVerdict);

// Shortest round-trip formatting of one double: variation-like values
// with few digits and ratio-like values needing all 17.
void BM_JsonDouble(benchmark::State& state) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    values.push_back(i * 0.1 + 12.0);
    values.push_back(1.0 / (i + 3.0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    obs::json::Writer w;
    w.value(values[i]);
    benchmark::DoNotOptimize(w.str().data());
    i = (i + 1) % values.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JsonDouble);

/// Key fields of two surveys compared for the identical-output check.
bool surveys_identical(const core::CongestionSurvey& a,
                       const core::CongestionSurvey& b) {
  if (a.quality.as_map() != b.quality.as_map()) return false;
  if (a.flagged.size() != b.flagged.size()) return false;
  for (std::size_t i = 0; i < a.flagged.size(); ++i) {
    const auto& fa = a.flagged[i];
    const auto& fb = b.flagged[i];
    if (fa.src != fb.src || fa.dst != fb.dst || fa.family != fb.family ||
        fa.verdict.diurnal_ratio != fb.verdict.diurnal_ratio) {
      return false;
    }
  }
  const auto family_equal = [](const core::CongestionSurvey::PerFamily& x,
                               const core::CongestionSurvey::PerFamily& y) {
    return x.pairs_assessed == y.pairs_assessed &&
           x.consistent == y.consistent;
  };
  return family_equal(a.v4, b.v4) && family_equal(a.v6, b.v6);
}

/// ConsoleReporter that also captures per-iteration wall time, keyed by
/// benchmark name, for the JSON summary line.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations > 0) {
        seconds_per_iter_[run.benchmark_name()] =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double seconds_per_iter(const std::string& name) const {
    const auto it = seconds_per_iter_.find(name);
    return it == seconds_per_iter_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_per_iter_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const double off_s = reporter.seconds_per_iter("BM_TimelineIngest/0");
  const double on_s = reporter.seconds_per_iter("BM_TimelineIngest/1");
  const double text_s = reporter.seconds_per_iter("BM_ArchiveIngest_Text");
  const double bmmap_s = reporter.seconds_per_iter("BM_ArchiveIngest_BinMmap");
  const double survey_1t = reporter.seconds_per_iter("BM_SurveyCongestion/1");
  const double survey_2t = reporter.seconds_per_iter("BM_SurveyCongestion/2");
  const double survey_8t = reporter.seconds_per_iter("BM_SurveyCongestion/8");
  if (off_s <= 0.0 && survey_1t <= 0.0) return 0;  // all filtered out

  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  obs::json::Writer w;
  w.begin_object();
  w.key("bench");
  w.value("bench_micro");
  if (off_s > 0.0 && on_s > 0.0) {
    w.key("ingest_ops_per_sec");
    w.value(1.0 / on_s);
    w.key("ingest_ops_per_sec_noobs");
    w.value(1.0 / off_s);
    w.key("obs_overhead_pct");
    w.value((on_s - off_s) / off_s * 100.0);
    const auto hist = snapshot.histograms.find("s2s.timeline.rtt_ms");
    if (hist != snapshot.histograms.end()) {
      w.key("rtt_ms_p50");
      w.value(hist->second.quantile(0.50));
      w.key("rtt_ms_p99");
      w.value(hist->second.quantile(0.99));
    }
  }
  if (text_s > 0.0) {
    // Archive-format speedups: whole-archive decode time relative to the
    // text parser over the identical record set (>= 5x is the `.s2sb`
    // acceptance bar).
    w.key("archive_ingest_records_per_sec_text");
    w.value(8192.0 / text_s);
    if (bmmap_s > 0.0) {
      w.key("binrec_mmap_speedup_vs_text");
      w.value(text_s / bmmap_s);
    }
  }
  if (survey_1t > 0.0) {
    // Parallel congestion survey: wall time per pass and speedup vs the
    // exact serial path. Speedup tracks physical cores — on a 1-core
    // host every arm reports ~1.0x.
    w.key("survey_ms_1t");
    w.value(survey_1t * 1e3);
    if (survey_2t > 0.0) {
      w.key("survey_speedup_2t");
      w.value(survey_1t / survey_2t);
    }
    if (survey_8t > 0.0) {
      w.key("survey_speedup_8t");
      w.value(survey_1t / survey_8t);
    }
    w.key("survey_hw_threads");
    w.value(static_cast<std::uint64_t>(s2s::exec::resolve_thread_count(0)));
    // Determinism cross-check: the serial result and an 8-thread run
    // must agree on every flagged pair and quality counter.
    s2s::exec::ThreadPool pool(8);
    const auto serial = s2s::core::survey_congestion(survey_store());
    const auto parallel = s2s::core::survey_congestion(survey_store(), {}, &pool);
    w.key("survey_parallel_output_identical");
    w.value(surveys_identical(serial, parallel));
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
