// The zero-allocation hot-path contract (DESIGN.md §11): once a loader
// has warmed up and the workspace pool has been prewarmed, a steady-state
// epoch performs zero pool allocations (gids_ws_allocs_total flat, hit
// rate 100%) at every host_threads / cache_shards / sampler combination —
// and pooling is purely an allocation optimization: turning it off (the
// --no-workspace-pool escape hatch) or skipping Recycle() leaves every
// mini-batch, feature buffer, and per-iteration stat bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/workspace_pool.h"
#include "core/gids_loader.h"
#include "obs/metric_registry.h"
#include "sampling/ladies_sampler.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

enum class SamplerKind { kNeighbor, kLadies };

std::unique_ptr<sampling::Sampler> MakeSampler(const LoaderRig& rig,
                                               SamplerKind kind) {
  if (kind == SamplerKind::kLadies) {
    return std::make_unique<sampling::LadiesSampler>(
        &rig.dataset->graph,
        sampling::LadiesSamplerOptions{.layer_sizes = {48, 48}}, 5);
  }
  return std::make_unique<sampling::NeighborSampler>(
      &rig.dataset->graph,
      sampling::NeighborSamplerOptions{.fanouts = {5, 5}}, 11);
}

struct RunCapture {
  std::vector<loaders::LoaderBatch> iterations;
};

struct RunConfig {
  SamplerKind sampler = SamplerKind::kNeighbor;
  uint32_t host_threads = 1;
  uint32_t cache_shards = 0;  // 0 = automatic policy
  bool workspace_pool = true;
  bool recycle = true;
  bool coalesce_pages = false;
};

RunCapture RunLoader(const RunConfig& cfg, int iterations) {
  // A fresh rig per run: sampler and seed iterator are stateful, and every
  // configuration must start from the same initial state.
  LoaderRig rig;
  std::unique_ptr<sampling::Sampler> sampler = MakeSampler(rig, cfg.sampler);
  // The pool mode is process-wide state (gids_cli --no-workspace-pool).
  WorkspacePool::Default().set_enabled(cfg.workspace_pool);
  GidsOptions opts;
  opts.host_threads = cfg.host_threads;
  opts.cache_shards = cfg.cache_shards;
  opts.coalesce_pages = cfg.coalesce_pages;
  GidsLoader loader(rig.dataset.get(), sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  RunCapture cap;
  for (int i = 0; i < iterations; ++i) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    cap.iterations.push_back(*lb);  // copy: the original goes back in
    if (cfg.recycle) loader.Recycle(std::move(*lb));
  }
  return cap;
}

void ExpectRunsEqual(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    const sampling::MiniBatch& ba = a.iterations[i].batch;
    const sampling::MiniBatch& bb = b.iterations[i].batch;
    EXPECT_EQ(ba.seeds, bb.seeds) << "iteration " << i;
    ASSERT_EQ(ba.blocks.size(), bb.blocks.size()) << "iteration " << i;
    for (size_t l = 0; l < ba.blocks.size(); ++l) {
      EXPECT_EQ(ba.blocks[l].src_nodes, bb.blocks[l].src_nodes)
          << "iteration " << i << " layer " << l;
      EXPECT_EQ(ba.blocks[l].num_dst, bb.blocks[l].num_dst)
          << "iteration " << i << " layer " << l;
      EXPECT_EQ(ba.blocks[l].edge_src, bb.blocks[l].edge_src)
          << "iteration " << i << " layer " << l;
      EXPECT_EQ(ba.blocks[l].edge_dst, bb.blocks[l].edge_dst)
          << "iteration " << i << " layer " << l;
    }
    EXPECT_EQ(a.iterations[i].features, b.iterations[i].features)
        << "iteration " << i;
    const loaders::IterationStats& sa = a.iterations[i].stats;
    const loaders::IterationStats& sb = b.iterations[i].stats;
    EXPECT_EQ(sa.sampling_ns, sb.sampling_ns) << "iteration " << i;
    EXPECT_EQ(sa.aggregation_ns, sb.aggregation_ns) << "iteration " << i;
    EXPECT_EQ(sa.e2e_ns, sb.e2e_ns) << "iteration " << i;
    EXPECT_EQ(sa.gather.gpu_cache_hits, sb.gather.gpu_cache_hits)
        << "iteration " << i;
    EXPECT_EQ(sa.gather.storage_reads, sb.gather.storage_reads)
        << "iteration " << i;
    EXPECT_EQ(sa.gather.coalesced_requests, sb.gather.coalesced_requests)
        << "iteration " << i;
    EXPECT_EQ(sa.ledger.Sum(), sb.ledger.Sum()) << "iteration " << i;
  }
}

// The tentpole gate: after a warmup epoch and a Prewarm(), a full steady
// epoch performs zero pool allocations and every acquire is a hit, at
// every host_threads x cache_shards x sampler combination.
TEST(WorkspaceZeroAllocTest, SteadyStateIsAllocationFree) {
  constexpr int kWarmup = 24;
  constexpr int kMeasure = 24;
  WorkspacePool& pool = WorkspacePool::Default();
  for (SamplerKind sk : {SamplerKind::kNeighbor, SamplerKind::kLadies}) {
    for (uint32_t host_threads : {1u, 4u}) {
      for (uint32_t cache_shards : {0u, 4u}) {
        LoaderRig rig;
        std::unique_ptr<sampling::Sampler> sampler = MakeSampler(rig, sk);
        GidsOptions opts;
        opts.host_threads = host_threads;
        opts.cache_shards = cache_shards;
        GidsLoader loader(rig.dataset.get(), sampler.get(), rig.seeds.get(),
                          rig.system.get(), opts);
        for (int i = 0; i < kWarmup; ++i) {
          auto lb = loader.Next();
          ASSERT_TRUE(lb.ok());
          loader.Recycle(std::move(*lb));
        }
        pool.Prewarm();
        const uint64_t allocs_before = pool.allocs_total();
        const uint64_t acquires_before = pool.acquires_total();
        const uint64_t hits_before = pool.hits_total();
        for (int i = 0; i < kMeasure; ++i) {
          auto lb = loader.Next();
          ASSERT_TRUE(lb.ok());
          loader.Recycle(std::move(*lb));
        }
        const uint64_t allocs = pool.allocs_total() - allocs_before;
        const uint64_t acquires = pool.acquires_total() - acquires_before;
        const uint64_t hits = pool.hits_total() - hits_before;
        EXPECT_EQ(allocs, 0u)
            << "sampler=" << (sk == SamplerKind::kLadies ? "ladies" : "nbr")
            << " host_threads=" << host_threads
            << " cache_shards=" << cache_shards;
        EXPECT_GT(acquires, 0u);
        EXPECT_EQ(hits, acquires)
            << "sampler=" << (sk == SamplerKind::kLadies ? "ladies" : "nbr")
            << " host_threads=" << host_threads
            << " cache_shards=" << cache_shards;
      }
    }
  }
}

// --no-workspace-pool escape hatch: malloc/free passthrough, identical
// results, and every passthrough acquire is counted as an allocation.
TEST(WorkspaceZeroAllocTest, DisablingThePoolIsBitIdentical) {
  constexpr int kIterations = 12;
  RunConfig pooled;
  pooled.host_threads = 4;
  RunConfig unpooled = pooled;
  unpooled.workspace_pool = false;
  RunCapture with_pool = RunLoader(pooled, kIterations);
  RunCapture without_pool = RunLoader(unpooled, kIterations);
  // The unpooled run left the process-wide pool disabled; restore it for
  // the rest of the binary.
  WorkspacePool::Default().set_enabled(true);
  ExpectRunsEqual(with_pool, without_pool);
}

TEST(WorkspaceZeroAllocTest, CoalescingUnaffectedByPooling) {
  constexpr int kIterations = 10;
  RunConfig pooled;
  pooled.coalesce_pages = true;
  pooled.host_threads = 4;
  pooled.cache_shards = 4;
  RunConfig unpooled = pooled;
  unpooled.workspace_pool = false;
  RunCapture with_pool = RunLoader(pooled, kIterations);
  RunCapture without_pool = RunLoader(unpooled, kIterations);
  WorkspacePool::Default().set_enabled(true);
  ExpectRunsEqual(with_pool, without_pool);
}

// Recycle() is an optimization, not a semantic input: dropping every
// consumed batch instead of recycling changes nothing.
TEST(WorkspaceZeroAllocTest, RecyclingDoesNotChangeResults) {
  constexpr int kIterations = 12;
  RunConfig recycled;
  RunConfig dropped = recycled;
  dropped.recycle = false;
  ExpectRunsEqual(RunLoader(recycled, kIterations),
                  RunLoader(dropped, kIterations));
}

// Satellite: the gids_ws_* / gids_host_pool_* pull gauges freeze to their
// final values when the loader (and its thread pool) dies before the
// registry's last snapshot.
TEST(WorkspaceZeroAllocTest, MetricsSurviveLoaderDestruction) {
  obs::MetricRegistry registry;
  {
    LoaderRig rig;
    GidsOptions opts;
    opts.host_threads = 4;
    opts.metrics = &registry;
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    for (int i = 0; i < 4; ++i) {
      auto lb = loader.Next();
      ASSERT_TRUE(lb.ok());
      loader.Recycle(std::move(*lb));
    }
  }
  // The loader and its pool are gone; the snapshot must read frozen
  // values, not dangling callbacks.
  double ws_acquires = -1;
  double pool_threads = -1;
  for (const obs::MetricSnapshot& s : registry.Snapshot()) {
    if (s.name == "gids_ws_acquires_total" && s.labels.size() == 1) {
      ws_acquires = s.value;
    }
    if (s.name == "gids_host_pool_threads") pool_threads = s.value;
  }
  EXPECT_GT(ws_acquires, 0.0);
  EXPECT_EQ(pool_threads, 4.0);
}

}  // namespace
}  // namespace gids::core
