#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "core/gids_loader.h"
#include "storage/storage_array.h"
#include "tests/test_util.h"

namespace gids::storage {
namespace {

// Integrity counters are pure functions of (fault_seed, corruption_rate,
// access sequence) — never of the host thread count. Runs in the
// tsan-covered concurrency binary as well as the plain suite.
struct IntegrityTotals {
  uint64_t corrupt_nodes = 0;
  uint64_t degraded_nodes = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  uint64_t repairs = 0;
  uint64_t data_loss = 0;
  uint64_t scrub_errors = 0;

  auto Tie() const {
    return std::tie(corrupt_nodes, degraded_nodes, verified, mismatches,
                    repairs, data_loss, scrub_errors);
  }
  bool operator==(const IntegrityTotals& o) const { return Tie() == o.Tie(); }
};

IntegrityTotals RunEpoch(uint32_t host_threads, double corruption_rate,
                         uint32_t scrub_pages, int iters = 24) {
  gids::testing::LoaderRig rig;
  core::GidsOptions opts;
  opts.counting_mode = true;
  opts.host_threads = host_threads;
  opts.corruption_rate = corruption_rate;
  opts.verify_reads = true;
  opts.verify_cache_fill = true;
  opts.verify_cache_hit = true;
  opts.scrub_pages_per_iter = scrub_pages;
  opts.retry.max_retries = 3;
  core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                          rig.seeds.get(), rig.system.get(), opts);
  IntegrityTotals t;
  for (int i = 0; i < iters; ++i) {
    auto batch = loader.Next();
    GIDS_CHECK_OK(batch.status());
    t.corrupt_nodes += batch->stats.gather.corrupt_nodes;
    t.degraded_nodes += batch->stats.gather.degraded_nodes;
  }
  const StorageArray& sa = loader.storage_array();
  t.verified = sa.verified_reads_total();
  t.mismatches = sa.checksum_mismatches_total();
  t.repairs = sa.integrity_repairs_total();
  t.data_loss = sa.data_loss_total();
  t.scrub_errors = loader.mutable_cache().stats().scrub_errors;
  return t;
}

TEST(IntegrityDeterminismTest, CountersIdenticalAcrossHostThreads) {
  const IntegrityTotals serial = RunEpoch(1, 0.01, 16);
  EXPECT_GT(serial.mismatches, 0u) << "rate too low to exercise the path";
  EXPECT_GT(serial.repairs, 0u);
  for (uint32_t threads : {4u, 8u}) {
    const IntegrityTotals pooled = RunEpoch(threads, 0.01, 16);
    EXPECT_TRUE(pooled == serial)
        << "host_threads=" << threads << " diverged: corrupt "
        << pooled.corrupt_nodes << "/" << serial.corrupt_nodes
        << ", mismatches " << pooled.mismatches << "/" << serial.mismatches
        << ", repairs " << pooled.repairs << "/" << serial.repairs
        << ", data_loss " << pooled.data_loss << "/" << serial.data_loss;
  }
}

TEST(IntegrityDeterminismTest, RepeatedRunsAreIdentical) {
  EXPECT_TRUE(RunEpoch(4, 0.02, 8) == RunEpoch(4, 0.02, 8));
}

// A run whose every corruption is repaired delivers bit-identical batches
// (virtual timing aside) to a corruption-free run: same traffic counters,
// same sampled structure, zero corrupt/degraded nodes.
TEST(IntegrityDeterminismTest, FullyRepairedRunMatchesCorruptionFree) {
  auto run = [](double rate) {
    gids::testing::LoaderRig rig;
    core::GidsOptions opts;
    opts.counting_mode = true;
    opts.corruption_rate = rate;
    opts.verify_reads = true;
    opts.retry.max_retries = 12;  // deep enough that nothing dead-letters
    core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                            rig.seeds.get(), rig.system.get(), opts);
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> trace;
    uint64_t repairs_seen = 0;
    for (int i = 0; i < 24; ++i) {
      auto batch = loader.Next();
      GIDS_CHECK_OK(batch.status());
      EXPECT_EQ(batch->stats.gather.corrupt_nodes, 0u);
      EXPECT_EQ(batch->stats.gather.degraded_nodes, 0u);
      trace.emplace_back(batch->stats.input_nodes, batch->stats.sampled_edges,
                         batch->stats.gather.gpu_cache_hits,
                         batch->stats.gather.storage_reads);
    }
    repairs_seen = loader.storage_array().integrity_repairs_total();
    EXPECT_EQ(loader.storage_array().data_loss_total(), 0u);
    return std::pair(trace, repairs_seen);
  };
  auto [repaired_trace, repairs] = run(0.02);
  auto [clean_trace, no_repairs] = run(0.0);
  EXPECT_GT(repairs, 0u) << "rate too low to exercise repair";
  EXPECT_EQ(no_repairs, 0u);
  EXPECT_EQ(repaired_trace, clean_trace);
}

}  // namespace
}  // namespace gids::storage
