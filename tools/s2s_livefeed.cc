// s2s_livefeed — stream a ping campaign into an OPEN `.s2sb` shard that
// a concurrently running s2sd serves (DESIGN.md section 16).
//
//   s2s_livefeed --out <shard.s2sb> [options]
//
// Options:
//   --days N            campaign length in days       (default 7)
//   --pairs N           dual-stack mesh pair cap      (default 48)
//   --prefill N         epochs written flat-out before pacing starts;
//                       the line "s2s_livefeed: prefilled ..." marks the
//                       moment a daemon can be pointed at the shard
//   --epoch-sleep-ms N  wall-clock pause after each paced epoch seal
//                       (default 0 = as fast as possible)
//   --campaign-seed N   ping campaign seed            (default 31, the
//                       fixture writer's)
//   --block-records N   open-shard block size         (default 1024)
//   --no-scan           skip the pre-scan that reports which pair ends
//                       up with a consistent-congestion verdict
//   --resume            continue an interrupted shard past its watermark
//                       instead of truncating it
// Deployment provenance (must match the serving daemon's flags):
//   --seed N --servers N --tier1 N --transit N --stub N
//
// The feeder first (unless --no-scan) runs the whole campaign into a
// ping store in memory and prints the first pair whose verdict at the
// final watermark is consistent congestion — the pair a smoke test
// should poll. The verdict is the daemon's: core::window_verdict.
// It then replays the identical record stream (same seed, same world)
// into the open shard, sealing one block per epoch: each seal fsyncs the
// data and atomically advances the watermark sidecar, so the serving
// daemon's delta pickup sees epoch-granular, never-torn growth. finish()
// appends the footer index; the sidecar is left in place so the daemon
// observes the final watermark.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/congestion_detect.h"
#include "live/open_shard.h"
#include "probe/campaign.h"
#include "simnet/network.h"
#include "svc/dataset.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: s2s_livefeed --out <shard.s2sb> [--days N] "
               "[--pairs N]\n"
               "  [--prefill N] [--epoch-sleep-ms N] [--campaign-seed N]\n"
               "  [--block-records N] [--no-scan] [--resume] [--seed N]\n"
               "  [--servers N] [--tier1 N] [--transit N] [--stub N]\n");
  return 2;
}

void sleep_ms(int ms) {
  if (ms <= 0) return;
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  ::nanosleep(&ts, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s2s;

  std::string out;
  double days = 7.0;
  std::size_t max_pairs = 48;
  std::size_t prefill = 0;
  int epoch_sleep_ms = 0;
  std::uint64_t campaign_seed = 31;
  std::size_t block_records = 1024;
  bool scan = true;
  bool resume = false;
  svc::DatasetConfig dataset_cfg;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--out")) out = next();
    else if (!std::strcmp(argv[i], "--days")) days = std::atof(next());
    else if (!std::strcmp(argv[i], "--pairs")) {
      max_pairs = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--prefill")) {
      prefill = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--epoch-sleep-ms")) {
      epoch_sleep_ms = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--campaign-seed")) {
      campaign_seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--block-records")) {
      block_records = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--no-scan")) {
      scan = false;
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume = true;
    } else if (!std::strcmp(argv[i], "--seed")) {
      dataset_cfg.topo_seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--servers")) {
      dataset_cfg.server_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--tier1")) {
      dataset_cfg.tier1_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--transit")) {
      dataset_cfg.transit_count = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--stub")) {
      dataset_cfg.stub_count = static_cast<std::size_t>(std::atoi(next()));
    } else {
      return usage();
    }
  }
  if (out.empty()) return usage();

  simnet::Network net(svc::dataset_net_config(dataset_cfg));
  const auto pairs = svc::fixture_pairs(net.topo(), max_pairs);
  if (pairs.empty()) {
    std::fprintf(stderr,
                 "s2s_livefeed: topology has no dual-stack server pairs\n");
    return 1;
  }

  probe::PingCampaignConfig ping_cfg;
  ping_cfg.start_day = dataset_cfg.ping_start_day;
  ping_cfg.days = days;
  ping_cfg.interval_s = dataset_cfg.ping_interval_s;
  ping_cfg.seed = campaign_seed;
  const std::size_t total_epochs =
      static_cast<std::size_t>(days * 86400.0 /
                               static_cast<double>(ping_cfg.interval_s));

  if (scan) {
    // Dry-run the campaign into the store the daemon would build and
    // report the pair a smoke test should watch. Same seed => the
    // streamed shard below carries the identical records.
    core::PingSeriesStore store(dataset_cfg.ping_start_day,
                                ping_cfg.interval_s, total_epochs,
                                core::PingSeriesStore::Grid::kGrow);
    probe::PingCampaign dry(net, ping_cfg, pairs);
    dry.run([&](const probe::PingRecord& r) { store.add(r); });
    std::vector<svc::Dataset::PairKey> congested;
    store.for_each([&](topology::ServerId src, topology::ServerId dst,
                       net::Family family,
                       const core::PingSeriesStore::Series& series) {
      const auto v = core::window_verdict(series, store.samples_per_day(),
                                          dataset_cfg.detect,
                                          dataset_cfg.detect_min_fraction);
      if (!v.consistent_congestion()) return;
      congested.push_back(
          {src, dst,
           static_cast<std::uint8_t>(family == net::Family::kIPv6 ? 6 : 4)});
    });
    const auto first = std::min_element(
        congested.begin(), congested.end(),
        [](const svc::Dataset::PairKey& a, const svc::Dataset::PairKey& b) {
          return std::tie(a.src, a.dst, a.family) <
                 std::tie(b.src, b.dst, b.family);
        });
    if (first != congested.end()) {
      std::printf("s2s_livefeed: congested pair: src=%u dst=%u family=%u\n",
                  first->src, first->dst, static_cast<unsigned>(first->family));
    } else {
      std::printf("s2s_livefeed: congested pair: none\n");
    }
    std::fflush(stdout);
  }

  std::unique_ptr<live::OpenShardWriter> writer;
  std::string error;
  if (resume) {
    writer = live::OpenShardWriter::resume(out, {block_records}, error);
    if (!writer) {
      std::fprintf(stderr, "s2s_livefeed: cannot resume %s: %s\n",
                   out.c_str(), error.c_str());
      return 1;
    }
  } else {
    writer =
        std::make_unique<live::OpenShardWriter>(out,
                                                live::OpenShardConfig{
                                                    block_records});
    if (!writer->ok()) {
      std::fprintf(stderr, "s2s_livefeed: cannot open %s: %s\n", out.c_str(),
                   writer->error().c_str());
      return 1;
    }
  }

  if (prefill == 0) {
    std::printf("s2s_livefeed: prefilled epochs=0\n");
    std::fflush(stdout);
  }

  // A resumed shard already holds the epochs up to its watermark (-1 on a
  // fresh one). The campaign is deterministic for a seed and a world, so
  // it replays from epoch 0 and those epochs are neither written nor
  // sealed again: the shard continues its block stream byte for byte.
  const std::int64_t sealed_epoch = writer->watermark().epoch;
  std::int64_t current_epoch = 0;
  bool seal_failed = false;
  ping_cfg.on_epoch = [&](std::size_t epoch) {
    const bool replayed = static_cast<std::int64_t>(epoch) <= sealed_epoch;
    current_epoch = static_cast<std::int64_t>(epoch) + 1;
    std::string seal_error;
    if (!replayed &&
        !writer->seal(static_cast<std::int64_t>(epoch), seal_error)) {
      if (!seal_failed) {
        std::fprintf(stderr, "s2s_livefeed: seal failed at epoch %zu: %s\n",
                     epoch, seal_error.c_str());
      }
      seal_failed = true;
      return;
    }
    if (epoch + 1 == prefill) {
      std::printf("s2s_livefeed: prefilled epochs=%zu\n", prefill);
      std::fflush(stdout);
    }
    if (!replayed && epoch + 1 > prefill) sleep_ms(epoch_sleep_ms);
  };
  probe::PingCampaign feed(net, ping_cfg, pairs);
  const auto result = feed.run([&](const probe::PingRecord& r) {
    if (current_epoch > sealed_epoch) writer->write(r);
  });
  if (seal_failed) return 1;
  if (result.aborted) {
    std::fprintf(stderr, "s2s_livefeed: campaign aborted: %s\n",
                 result.error.c_str());
    return 1;
  }
  // The marker must appear even when the prefill covers the whole run.
  if (prefill > 0 && prefill > total_epochs) {
    std::printf("s2s_livefeed: prefilled epochs=%zu\n", total_epochs);
    std::fflush(stdout);
  }
  if (!writer->finish(error)) {
    std::fprintf(stderr, "s2s_livefeed: finish failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("s2s_livefeed: done epochs=%zu records=%llu sealed_bytes=%llu "
              "watermark_epoch=%lld\n",
              result.epochs_completed,
              static_cast<unsigned long long>(writer->records()),
              static_cast<unsigned long long>(writer->watermark().sealed_bytes),
              static_cast<long long>(writer->watermark().epoch));
  return 0;
}
