// Quickstart: build a simulated Internet core, run a few traceroutes
// between CDN measurement servers, infer their AS paths, watch a routing
// change move the traffic onto a different path, then run a small
// campaign end to end (campaign -> persisted records -> ingest ->
// routing + dual-stack analyses) with the observability layer recording
// every stage.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart --report run_report.json --trace trace.json
//
// --report PATH (or S2S_RUN_REPORT=PATH) writes the versioned RunReport
// JSON; --trace PATH writes a chrome://tracing / Perfetto trace file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>

#include "core/as_path_infer.h"
#include "core/dualstack.h"
#include "core/routing_study.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "faultsim/line_mangler.h"
#include "io/binrec.h"
#include "io/records_io.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "probe/campaign.h"
#include "probe/traceroute.h"
#include "simnet/network.h"

using namespace s2s;

int main(int argc, char** argv) {
  std::string report_path, trace_path;
  int threads = 0;  // 0 = auto (S2S_THREADS env, else hardware)
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--report")) report_path = next();
    else if (!std::strcmp(argv[i], "--trace")) trace_path = next();
    else if (!std::strcmp(argv[i], "--threads")) threads = std::atoi(next());
  }
  if (report_path.empty()) {
    if (const char* env = std::getenv("S2S_RUN_REPORT")) report_path = env;
  }
  std::optional<obs::TraceSpan> root_span;
  root_span.emplace("quickstart");
  // What the run went through, for the run report: each stage's typed
  // result adds its own counters (core::RunFacts).
  core::RunFacts facts;
  // 1. A small world: ~160 ASes, with 30 measurement servers.
  simnet::NetworkConfig config;
  config.topology.seed = 7;
  config.topology.tier1_count = 6;
  config.topology.transit_count = 30;
  config.topology.stub_count = 120;
  config.topology.server_count = 30;
  simnet::Network net(config);
  const auto& topo = net.topo();
  std::printf("generated %zu ASes, %zu routers, %zu links, %zu servers\n",
              topo.ases.size(), topo.routers.size(), topo.links.size(),
              topo.servers.size());

  // 2. Tell the network which pairs we will measure (it precomputes the
  //    candidate routes and the 16-month outage schedule).
  std::vector<topology::ServerId> servers;
  for (topology::ServerId s = 0; s < topo.servers.size(); ++s) {
    servers.push_back(s);
  }
  net.prepare_full_mesh(servers);

  // 3. Pick a geographically interesting pair and traceroute it, once a
  //    day for two weeks.
  const topology::ServerId src = 0, dst = 17;
  const auto& src_city = topo.cities[topo.servers[src].city];
  const auto& dst_city = topo.cities[topo.servers[dst].city];
  std::printf("\ntraceroute %s (%s) -> %s (%s), daily for 60 days:\n",
              src_city.name.c_str(), src_city.country.c_str(),
              dst_city.name.c_str(), dst_city.country.c_str());

  probe::TracerouteEngine tracer(net, {}, stats::Rng(1));
  const core::AsPathInferrer inferrer(net.rib());
  const net::Asn src_asn = topo.ases[topo.servers[src].as_id].asn;

  net::AsPath previous;
  for (int day = 0; day < 60; day += 1) {
    const auto record = tracer.run(src, dst, net::Family::kIPv4,
                                   net::SimTime::from_days(day),
                                   probe::TracerouteMethod::kParis);
    if (!record || !record->complete) continue;
    const auto inferred = inferrer.infer(*record, src_asn);
    if (inferred.as_path != previous) {
      std::printf("  day %2d: RTT %6.1f ms  AS path: %s%s\n", day,
                  record->end_to_end_rtt_ms(),
                  net::to_string(inferred.as_path).c_str(),
                  previous.empty() ? "" : "   <-- routing change");
      previous = inferred.as_path;
    }
  }

  // 4. Inspect one full traceroute, hop by hop.
  const auto record = tracer.run(src, dst, net::Family::kIPv4,
                                 net::SimTime::from_days(10),
                                 probe::TracerouteMethod::kParis);
  if (record) {
    std::printf("\none traceroute in detail (%s):\n",
                record->complete ? "complete" : "incomplete");
    int ttl = 1;
    for (const auto& hop : record->hops) {
      if (hop.addr) {
        const auto origin = net.rib().origin(*hop.addr);
        std::printf("  %2d  %-16s %7.2f ms  %s\n", ttl,
                    hop.addr->to_string().c_str(), hop.rtt_ms,
                    origin ? origin->to_string().c_str() : "(unmapped)");
      } else {
        std::printf("  %2d  *\n", ttl);
      }
      ++ttl;
    }
  }

  // 5. Persist a few records, corrupt the file the way real disks do, and
  //    read it back: the reader reports what it skipped instead of dying.
  std::stringstream file;
  io::RecordWriter writer(file);
  for (int day = 0; day < 14; ++day) {
    const auto rec = tracer.run(src, dst, net::Family::kIPv4,
                                net::SimTime::from_days(day),
                                probe::TracerouteMethod::kParis);
    if (rec) writer.write(*rec);
  }
  std::stringstream dirty;
  faultsim::LineMangler mangler({/*seed=*/3, /*corrupt_prob=*/0.4});
  for (std::string line; std::getline(file, line);) {
    dirty << mangler.mangle(std::move(line)) << '\n';
  }

  io::RecordReader reader(dirty);
  std::size_t replayed = 0;
  reader.read_all([&](const probe::TracerouteRecord&) { ++replayed; },
                  [](const probe::PingRecord&) {});
  std::printf("\nreplayed a corrupted campaign file: %zu lines, "
              "%zu records recovered, %zu malformed\n",
              reader.lines(), replayed, reader.errors());
  facts.note(reader);
  for (const auto& bad : reader.malformed()) {
    std::printf("  line %zu: %.60s%s\n", bad.line_number, bad.text.c_str(),
                bad.text.size() > 60 ? "..." : "");
  }

  // 6. The pipeline end to end, instrumented: a month-long campaign over
  //    a few pairs, persisted and re-ingested through the record reader
  //    into a TimelineStore, then the routing and dual-stack analyses.
  //    Every stage shows up in the trace and the run report.
  core::TimelineStore store(topo, net.rib(), {0.0, net::kThreeHours});
  {
    probe::TracerouteCampaignConfig campaign_cfg;
    campaign_cfg.days = 30.0;
    campaign_cfg.paris_switch_day = 15.0;
    campaign_cfg.seed = 11;
    const std::vector<std::pair<topology::ServerId, topology::ServerId>>
        pairs = {{0, 17}, {0, 5}, {3, 17}, {5, 9}, {9, 21}, {12, 25}};
    probe::TracerouteCampaign campaign(net, campaign_cfg, pairs);

    // Persist the campaign in both archive formats: the tab-separated
    // text form and the binary columnar `.s2sb` block format. They are
    // drop-in interchangeable at the ingest seam (same records, bit for
    // bit — DESIGN.md section 10); binary decodes several times faster
    // and mmap ingest skips the read copy entirely for on-disk archives.
    std::ostringstream campaign_file;
    std::ostringstream campaign_bin(std::ios::binary);
    io::RecordWriter campaign_writer(campaign_file);
    io::BinRecordWriter campaign_bin_writer(campaign_bin);
    facts.note(campaign.run([&](const probe::TracerouteRecord& r) {
      campaign_writer.write(r);
      campaign_bin_writer.write(r);
    }));
    campaign_bin_writer.finish();
    facts.note(campaign_bin_writer);

    const obs::TraceSpan ingest_span("ingest");
    // Feed the analysis from the binary archive; ingest_record_image
    // sniffs the format, so a text image would work unchanged here.
    const std::string bin_image = campaign_bin.str();
    const auto ingest = io::ingest_record_image(
        bin_image.data(), bin_image.size(),
        [&](const probe::TracerouteRecord& r) { store.add(r); },
        [](const probe::PingRecord&) {});
    facts.note(ingest);
    facts.note(store);
    const auto text_bytes = campaign_file.str().size();
    const auto bin_bytes = bin_image.size();
    std::printf("\ncampaign ingested (%s): %zu records -> %zu timelines\n",
                ingest.binary ? "binary" : "text", ingest.records,
                store.timeline_count());
    std::printf("archive size: %zu bytes text, %zu bytes binary (%.1fx "
                "smaller)\n",
                text_bytes, bin_bytes,
                static_cast<double>(text_bytes) /
                    static_cast<double>(bin_bytes ? bin_bytes : 1));
  }

  exec::ThreadPool pool(threads > 0 ? static_cast<unsigned>(threads) : 0u);
  const auto routing = core::run_routing_study(store, {}, &pool);
  const auto dual = core::run_dualstack_study(store, &pool);
  facts.note(routing);
  facts.note(dual);
  std::printf("routing study: %zu v4 + %zu v6 qualifying timelines; "
              "dual-stack: %zu pairs matched\n",
              routing.v4.timelines, routing.v6.timelines, dual.pairs_matched);

  // 7. Close the root span and emit the machine-readable artifacts.
  root_span.reset();
  if (!report_path.empty()) {
    obs::RunReport run_report = obs::build_run_report("quickstart");
    facts.add_to(run_report);
    if (obs::write_text_file(report_path, run_report.to_json())) {
      std::printf("\nrun report (%zu metrics, %zu nested spans): %s\n",
                  run_report.metric_count(), run_report.nested_span_count(),
                  report_path.c_str());
    }
  }
  if (!trace_path.empty() &&
      obs::write_text_file(trace_path,
                           obs::TraceCollector::global().to_chrome_json())) {
    std::printf("trace (load in chrome://tracing or ui.perfetto.dev): %s\n",
                trace_path.c_str());
  }
  return 0;
}
