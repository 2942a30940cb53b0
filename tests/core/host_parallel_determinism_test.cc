// The host-parallelism determinism contract (DESIGN.md "Host
// parallelism"): the GIDS and BaM loaders must produce byte-identical
// mini-batches, features, and per-iteration stats at every host_threads /
// prefetch_depth setting, and — when no prefetch is in flight — identical
// end-of-run cache and storage totals too.
//
// The prefetch caveat: with prefetch_depth > 0 the background task may
// have prepared groups beyond what the consumer drained, so END-OF-RUN
// cache/storage totals legitimately depend on timing. Per-iteration
// results are still exact (groups are prepared in consumption order,
// single-flight), so those are compared in every mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/gids_loader.h"
#include "obs/trace_recorder.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

struct RunCapture {
  std::vector<loaders::LoaderBatch> iterations;
  storage::CacheStats cache_stats;
  uint64_t storage_reads = 0;
  uint64_t queue_submissions = 0;
};

RunCapture RunLoader(bool bam, uint32_t host_threads, uint32_t prefetch_depth,
                     int num_iterations, obs::TraceRecorder* trace = nullptr) {
  // A fresh rig per run: sampler and seed iterator are stateful, and every
  // configuration must start from the same initial state.
  LoaderRig rig;
  GidsOptions opts = bam ? GidsOptions::Bam() : GidsOptions{};
  opts.host_threads = host_threads;
  opts.prefetch_depth = prefetch_depth;
  opts.trace = trace;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  RunCapture cap;
  for (int i = 0; i < num_iterations; ++i) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    cap.iterations.push_back(std::move(*lb));
  }
  cap.cache_stats = loader.cache().stats();
  cap.storage_reads = loader.storage_array().total_reads();
  cap.queue_submissions = loader.storage_array().queues().total_submissions();
  return cap;
}

void ExpectBatchesEqual(const sampling::MiniBatch& a,
                        const sampling::MiniBatch& b, int iter) {
  EXPECT_EQ(a.seeds, b.seeds) << "iteration " << iter;
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << "iteration " << iter;
  for (size_t l = 0; l < a.blocks.size(); ++l) {
    EXPECT_EQ(a.blocks[l].src_nodes, b.blocks[l].src_nodes)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].num_dst, b.blocks[l].num_dst)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_src, b.blocks[l].edge_src)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_dst, b.blocks[l].edge_dst)
        << "iteration " << iter << " layer " << l;
  }
}

void ExpectStatsEqual(const loaders::IterationStats& a,
                      const loaders::IterationStats& b, int iter) {
  EXPECT_EQ(a.sampling_ns, b.sampling_ns) << "iteration " << iter;
  EXPECT_EQ(a.aggregation_ns, b.aggregation_ns) << "iteration " << iter;
  EXPECT_EQ(a.transfer_ns, b.transfer_ns) << "iteration " << iter;
  EXPECT_EQ(a.training_ns, b.training_ns) << "iteration " << iter;
  EXPECT_EQ(a.e2e_ns, b.e2e_ns) << "iteration " << iter;
  EXPECT_EQ(a.gather.nodes, b.gather.nodes) << "iteration " << iter;
  EXPECT_EQ(a.gather.cpu_buffer_hits, b.gather.cpu_buffer_hits)
      << "iteration " << iter;
  EXPECT_EQ(a.gather.gpu_cache_hits, b.gather.gpu_cache_hits)
      << "iteration " << iter;
  EXPECT_EQ(a.gather.storage_reads, b.gather.storage_reads)
      << "iteration " << iter;
  EXPECT_EQ(a.sampled_edges, b.sampled_edges) << "iteration " << iter;
  EXPECT_EQ(a.input_nodes, b.input_nodes) << "iteration " << iter;
  EXPECT_EQ(a.merged_group, b.merged_group) << "iteration " << iter;
  EXPECT_EQ(a.effective_bandwidth_bps, b.effective_bandwidth_bps)
      << "iteration " << iter;
  EXPECT_EQ(a.pcie_ingress_bps, b.pcie_ingress_bps) << "iteration " << iter;
}

void ExpectPerIterationEqual(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    ExpectBatchesEqual(a.iterations[i].batch, b.iterations[i].batch,
                       static_cast<int>(i));
    EXPECT_EQ(a.iterations[i].features, b.iterations[i].features)
        << "iteration " << i;
    ExpectStatsEqual(a.iterations[i].stats, b.iterations[i].stats,
                     static_cast<int>(i));
  }
}

void ExpectTotalsEqual(const RunCapture& a, const RunCapture& b) {
  EXPECT_EQ(a.cache_stats.lookups, b.cache_stats.lookups);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.insertions, b.cache_stats.insertions);
  EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
  EXPECT_EQ(a.cache_stats.bypasses, b.cache_stats.bypasses);
  EXPECT_EQ(a.storage_reads, b.storage_reads);
  EXPECT_EQ(a.queue_submissions, b.queue_submissions);
}

constexpr int kIterations = 12;

TEST(HostParallelDeterminismTest, GidsThreadsDoNotChangeResults) {
  RunCapture serial = RunLoader(/*bam=*/false, /*host_threads=*/1,
                                /*prefetch_depth=*/0, kIterations);
  RunCapture threaded = RunLoader(/*bam=*/false, /*host_threads=*/8,
                                  /*prefetch_depth=*/0, kIterations);
  ExpectPerIterationEqual(serial, threaded);
  // No prefetch: exactly the consumed groups were prepared, so the
  // end-of-run totals are part of the contract too.
  ExpectTotalsEqual(serial, threaded);
}

TEST(HostParallelDeterminismTest, BamThreadsDoNotChangeResults) {
  RunCapture serial = RunLoader(/*bam=*/true, /*host_threads=*/1,
                                /*prefetch_depth=*/0, kIterations);
  RunCapture threaded = RunLoader(/*bam=*/true, /*host_threads=*/8,
                                  /*prefetch_depth=*/0, kIterations);
  ExpectPerIterationEqual(serial, threaded);
  ExpectTotalsEqual(serial, threaded);
}

TEST(HostParallelDeterminismTest, PrefetchDoesNotChangePerIterationResults) {
  RunCapture inline_prep = RunLoader(/*bam=*/false, /*host_threads=*/1,
                                     /*prefetch_depth=*/0, kIterations);
  for (uint32_t threads : {1u, 8u}) {
    RunCapture prefetched = RunLoader(/*bam=*/false, threads,
                                      /*prefetch_depth=*/1, kIterations);
    ExpectPerIterationEqual(inline_prep, prefetched);
    // End-of-run totals are deliberately NOT compared here: the prefetch
    // task may have prepared groups the consumer never drained.
  }
}

TEST(HostParallelDeterminismTest, PrefetchBamMatchesInline) {
  RunCapture inline_prep = RunLoader(/*bam=*/true, /*host_threads=*/1,
                                     /*prefetch_depth=*/0, kIterations);
  RunCapture prefetched = RunLoader(/*bam=*/true, /*host_threads=*/8,
                                    /*prefetch_depth=*/2, kIterations);
  ExpectPerIterationEqual(inline_prep, prefetched);
}

size_t CountOccurrences(const std::string& text, const std::string& word) {
  size_t n = 0;
  for (size_t at = text.find(word); at != std::string::npos;
       at = text.find(word, at + word.size())) {
    ++n;
  }
  return n;
}

TEST(HostParallelDeterminismTest, PrefetchTraceHasOneFlushPerConsumedGroup) {
  // A group's trace instants are emitted when its first batch is handed
  // out, not when the prefetch task prepares it, so a group prepared
  // ahead but never consumed leaves no instant and the trace is the
  // inline run's, byte for byte, however far the prefetch ran ahead.
  obs::TraceRecorder inline_trace;
  RunCapture inline_prep = RunLoader(/*bam=*/false, /*host_threads=*/1,
                                     /*prefetch_depth=*/0, kIterations,
                                     &inline_trace);
  size_t groups = 0;
  for (size_t i = 0; i < inline_prep.iterations.size();
       i += inline_prep.iterations[i].stats.merged_group) {
    ++groups;
  }
  const std::string expected = inline_trace.ToJson();
  EXPECT_EQ(CountOccurrences(expected, "accumulator_group_flush"), groups);
  for (int run = 0; run < 5; ++run) {
    obs::TraceRecorder trace;
    RunLoader(/*bam=*/false, /*host_threads=*/2, /*prefetch_depth=*/2,
              kIterations, &trace);
    const std::string json = trace.ToJson();
    EXPECT_EQ(CountOccurrences(json, "accumulator_group_flush"), groups)
        << "run " << run;
    EXPECT_EQ(json, expected) << "run " << run;
  }
}

TEST(HostParallelDeterminismTest, PoolOnlyCreatedWhenRequested) {
  LoaderRig rig;
  GidsOptions serial_opts;
  GidsLoader serial(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), serial_opts);
  EXPECT_EQ(serial.host_pool(), nullptr);

  LoaderRig rig2;
  GidsOptions par_opts;
  par_opts.host_threads = 4;
  GidsLoader parallel(rig2.dataset.get(), rig2.sampler.get(),
                      rig2.seeds.get(), rig2.system.get(), par_opts);
  ASSERT_NE(parallel.host_pool(), nullptr);
  EXPECT_EQ(parallel.host_pool()->num_threads(), 4u);
}

}  // namespace
}  // namespace gids::core
