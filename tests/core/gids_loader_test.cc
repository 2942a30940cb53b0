#include "core/gids_loader.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

GidsOptions CountingOptions() {
  GidsOptions o;
  o.counting_mode = true;
  return o;
}

TEST(GidsLoaderTest, ProducesBatchesWithStats) {
  LoaderRig rig;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), CountingOptions());
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->stats.input_nodes, 0u);
  EXPECT_GT(b->stats.e2e_ns, 0);
  EXPECT_GT(b->stats.aggregation_ns, 0);
  EXPECT_EQ(b->stats.transfer_ns, 0);  // features land in GPU memory
  EXPECT_EQ(loader.name(), "GIDS");
}

TEST(GidsLoaderTest, MaterializedFeaturesMatchGroundTruth) {
  LoaderRig rig;
  GidsOptions opts;  // full functional mode
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  const auto& fs = rig.dataset->features;
  const auto& nodes = b->batch.input_nodes();
  ASSERT_EQ(b->features.size(), nodes.size() * fs.feature_dim());
  std::vector<float> expected(fs.feature_dim());
  for (size_t i = 0; i < nodes.size(); i += 7) {
    fs.FillFeature(nodes[i], expected);
    for (uint32_t j = 0; j < fs.feature_dim(); ++j) {
      ASSERT_EQ(b->features[i * fs.feature_dim() + j], expected[j])
          << "node " << nodes[i];
    }
  }
}

TEST(GidsLoaderTest, BamPresetDisablesEverything) {
  GidsOptions bam = GidsOptions::Bam();
  EXPECT_FALSE(bam.use_accumulator);
  EXPECT_FALSE(bam.use_window_buffering);
  EXPECT_FALSE(bam.use_cpu_buffer);
  LoaderRig rig;
  bam.counting_mode = true;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), bam);
  EXPECT_EQ(loader.name(), "BaM");
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->stats.merged_group, 1u);
  EXPECT_EQ(b->stats.gather.cpu_buffer_hits, 0u);
  EXPECT_EQ(loader.cpu_buffer(), nullptr);
}

TEST(GidsLoaderTest, AccumulatorMergesIterations) {
  LoaderRig rig;  // batch 32, fanout (5,5): a few hundred accesses/iter
  GidsOptions opts = CountingOptions();
  opts.use_cpu_buffer = false;
  opts.use_window_buffering = false;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  // Optane threshold ~855 accesses; per-iteration ~ a few hundred ->
  // must merge more than one iteration.
  EXPECT_GT(b->stats.merged_group, 1u);
}

TEST(GidsLoaderTest, CpuBufferRedirectsTraffic) {
  LoaderRig rig;
  GidsOptions with = CountingOptions();
  with.cpu_buffer_fraction = 0.2;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), with);
  uint64_t cpu_hits = 0;
  for (int i = 0; i < 10; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    cpu_hits += b->stats.gather.cpu_buffer_hits;
  }
  EXPECT_GT(cpu_hits, 0u);
  ASSERT_NE(loader.cpu_buffer(), nullptr);
  EXPECT_GT(loader.cpu_buffer()->num_pinned(), 0u);
}

TEST(GidsLoaderTest, WindowBufferingImprovesHitRatio) {
  // Fig. 11's mechanism on a small rig: same traffic, better hit ratio
  // with look-ahead pinning.
  auto run = [](bool window, int depth) {
    LoaderRig rig(0.01, 1.0 / 65536.0);
    GidsOptions opts;
    opts.counting_mode = true;
    opts.use_cpu_buffer = false;
    opts.use_window_buffering = window;
    opts.window_depth = depth;
    opts.gpu_cache_bytes = 96 * 4096;  // tiny cache to force pressure
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    uint64_t hits = 0;
    uint64_t reads = 0;
    for (int i = 0; i < 40; ++i) {
      auto b = loader.Next();
      GIDS_CHECK(b.ok());
      hits += b->stats.gather.gpu_cache_hits;
      reads += b->stats.gather.storage_reads;
    }
    return static_cast<double>(hits) / static_cast<double>(hits + reads);
  };
  double without = run(false, 0);
  double with = run(true, 8);
  EXPECT_GT(with, without);
}

TEST(GidsLoaderTest, FasterThanBamBaseline) {
  // Fig. 13/14's per-loader ordering at small scale: GIDS < BaM in E2E.
  LoaderRig gids_rig(0.01, 1.0 / 65536.0);
  LoaderRig bam_rig(0.01, 1.0 / 65536.0);
  GidsOptions gids_opts = CountingOptions();
  GidsOptions bam_opts = GidsOptions::Bam();
  bam_opts.counting_mode = true;
  GidsLoader gids(gids_rig.dataset.get(), gids_rig.sampler.get(),
                  gids_rig.seeds.get(), gids_rig.system.get(), gids_opts);
  GidsLoader bam(bam_rig.dataset.get(), bam_rig.sampler.get(),
                 bam_rig.seeds.get(), bam_rig.system.get(), bam_opts);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(gids.Next().ok());
    ASSERT_TRUE(bam.Next().ok());
  }
  EXPECT_LT(gids.elapsed_ns(), bam.elapsed_ns());
}

TEST(GidsLoaderTest, CountingAndFullModeAgreeOnTraffic) {
  LoaderRig a;
  LoaderRig b;
  GidsOptions full;
  GidsOptions counting = CountingOptions();
  GidsLoader full_loader(a.dataset.get(), a.sampler.get(), a.seeds.get(),
                         a.system.get(), full);
  GidsLoader count_loader(b.dataset.get(), b.sampler.get(), b.seeds.get(),
                          b.system.get(), counting);
  for (int i = 0; i < 8; ++i) {
    auto fb = full_loader.Next();
    auto cb = count_loader.Next();
    ASSERT_TRUE(fb.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_EQ(fb->stats.gather.storage_reads, cb->stats.gather.storage_reads)
        << "iteration " << i;
    EXPECT_EQ(fb->stats.gather.gpu_cache_hits, cb->stats.gather.gpu_cache_hits)
        << "iteration " << i;
    EXPECT_EQ(fb->stats.e2e_ns, cb->stats.e2e_ns) << "iteration " << i;
  }
}

TEST(GidsLoaderTest, DeterministicAcrossRuns) {
  auto run = []() {
    LoaderRig rig;
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), CountingOptions());
    TimeNs total = 0;
    for (int i = 0; i < 12; ++i) {
      auto b = loader.Next();
      GIDS_CHECK(b.ok());
      total += b->stats.e2e_ns;
    }
    return total;
  };
  EXPECT_EQ(run(), run());
}

TEST(GidsLoaderTest, AccumulatorRespectsMaxMergedIterations) {
  LoaderRig rig;
  GidsOptions opts = CountingOptions();
  opts.max_merged_iterations = 2;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  for (int i = 0; i < 6; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    EXPECT_LE(b->stats.merged_group, 2u);
  }
}

// Every storage knob set through GidsOptions reaches the struct the
// storage array consumes, with nothing copied or dropped on the way.
TEST(GidsLoaderTest, StorageOptionsReachTheStorageArray) {
  LoaderRig rig(0.01, 1.0 / 4096.0, sim::SsdSpec::IntelOptane(), /*n_ssd=*/4);
  GidsOptions o = CountingOptions();
  o.fault_rate = 0.01;
  o.fault_seed = 0x1234;
  o.latency_spike_rate = 0.02;
  o.latency_spike_ns = 300 * kNsPerUs;
  o.stuck_queue_rate = 0.03;
  o.offline_devices = {2};
  o.offline_at_ns = 5 * kNsPerMs;
  o.corruption_rate = 0.04;
  o.verify_reads = true;
  o.verify_cache_fill = true;
  o.verify_cache_hit = true;
  o.crc_seed = 0xabc;
  o.crc_verify_ns = 3 * kNsPerUs;
  o.replication_factor = 3;
  o.write_quorum = 2;
  o.retry.max_retries = 7;
  o.retry.timeout_ns = 3 * kNsPerMs;
  o.retry.backoff_initial_ns = 40 * kNsPerUs;
  o.retry.backoff_cap_ns = 5 * kNsPerMs;
  o.journal.durability = storage::DurabilityLevel::kSynced;
  o.journal.append_ns = 700;
  o.journal.fsync_ns = 15 * kNsPerUs;
  o.journal.apply_ns = 3 * kNsPerUs;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), o);
  const storage::StorageArray& array = loader.storage_array();

  ASSERT_NE(array.fault_injector(), nullptr);
  const storage::FaultOptions& f = array.fault_injector()->options();
  EXPECT_EQ(f.fault_rate, 0.01);
  EXPECT_EQ(f.fault_seed, 0x1234u);
  EXPECT_EQ(f.latency_spike_rate, 0.02);
  EXPECT_EQ(f.latency_spike_ns, 300 * kNsPerUs);
  EXPECT_EQ(f.stuck_queue_rate, 0.03);
  EXPECT_EQ(f.offline_devices, std::vector<int>{2});
  EXPECT_EQ(f.offline_at_ns, 5 * kNsPerMs);
  EXPECT_EQ(f.corruption_rate, 0.04);

  for (const storage::RetryPolicy& r :
       {array.retry_policy(), array.fault_injector()->retry()}) {
    EXPECT_EQ(r.max_retries, 7u);
    EXPECT_EQ(r.timeout_ns, 3 * kNsPerMs);
    EXPECT_EQ(r.backoff_initial_ns, 40 * kNsPerUs);
    EXPECT_EQ(r.backoff_cap_ns, 5 * kNsPerMs);
  }

  const storage::IntegrityOptions& i = array.integrity();
  EXPECT_TRUE(i.verify_reads);
  EXPECT_TRUE(i.verify_cache_fill);
  EXPECT_TRUE(i.verify_cache_hit);
  EXPECT_EQ(i.crc_seed, 0xabcu);
  EXPECT_EQ(array.checksummer().seed(), 0xabcu);
  EXPECT_EQ(i.crc_verify_ns, 3 * kNsPerUs);

  ASSERT_NE(array.replica_set(), nullptr);
  EXPECT_EQ(array.replica_set()->options().replication_factor, 3);
  EXPECT_EQ(array.replica_set()->options().write_quorum, 2);

  // Replication alone brings the journals up, even with no write stream.
  ASSERT_NE(array.journal(), nullptr);
  const storage::JournalOptions& j = array.journal()->options();
  EXPECT_EQ(j.durability, storage::DurabilityLevel::kSynced);
  EXPECT_EQ(j.append_ns, 700);
  EXPECT_EQ(j.fsync_ns, 15 * kNsPerUs);
  EXPECT_EQ(j.apply_ns, 3 * kNsPerUs);
}

}  // namespace
}  // namespace gids::core
