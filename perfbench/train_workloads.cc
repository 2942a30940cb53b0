// The three training workloads: the GIDS loader driven Next() by Next()
// from outside, timed on the host clock, with its virtual-clock outputs
// read from IterationStats and the loader's public accessors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/workspace_pool.h"
#include "core/gids_loader.h"
#include "core/mutation_stream.h"
#include "graph/dataset.h"
#include "graph/pagerank.h"
#include "obs/metric_registry.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"
#include "span_trace.h"
#include "timing_sampler.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = gids::core;
namespace graph = gids::graph;
namespace loaders = gids::loaders;
namespace sampling = gids::sampling;
namespace sim = gids::sim;

struct TrainSpec {
  graph::DatasetSpec dataset;
  double scale = 1.0;
  double memory_scale = 1.0;
  uint32_t batch = 16;
  std::vector<int> fanouts = {10, 5, 5};
  int n_ssd = 1;
  core::GidsOptions options;
  uint64_t warmup = 0;
  /// Measured iterations the virtual-clock metrics cover: the first
  /// `window` after warm-up, whatever the host speed, so they repeat
  /// exactly for one seed.
  uint64_t window = 0;
  /// Functional mode: verify the gathered rows of every Nth window batch.
  uint32_t verify_stride = 0;
  uint64_t dataset_seed = 0;
  uint64_t sampler_seed = 0;
  uint64_t seed_iter_seed = 0;
};

TrainSpec MakeSpec(const std::string& name, uint64_t seed) {
  TrainSpec s;
  core::GidsOptions& o = s.options;
  o.counting_mode = true;
  if (name == "train-storage") {
    // The paper's regime: IGB-Full proxy whose features dwarf the GPU
    // cache, one Optane, paper-default GIDS, serial preparation.
    s.dataset = graph::DatasetSpec::IgbFull();
    s.scale = s.memory_scale = 1.0 / 2048;
    s.batch = 16;
    s.warmup = 200;
    s.window = 1000;
  } else {
    // Faults + journaled writes beside reads, with payload bytes moving.
    s.dataset = graph::DatasetSpec::IgbSmall();
    s.scale = 0.02;
    s.memory_scale = 1.0 / 256;
    s.n_ssd = 2;
    o.counting_mode = false;
    o.replication_factor = 2;
    o.offline_devices = {1};
    o.offline_at_ns = 2 * gids::kNsPerMs;
    o.fault_rate = 0.01;
    o.corruption_rate = 0.005;
    o.verify_reads = true;
    o.scrub_pages_per_iter = 16;
    o.updates_per_iter = 8;
    o.edge_ops_per_iter = 4;
    s.warmup = 24;
    s.window = 256;
    s.verify_stride = 16;
  }
  s.dataset_seed = DeriveSeed(seed, "dataset");
  s.sampler_seed = DeriveSeed(seed, "sampler");
  s.seed_iter_seed = DeriveSeed(seed, "seed-iterator");
  o.seed = DeriveSeed(seed, "loader");
  o.fault_seed = DeriveSeed(seed, "faults");
  o.crc_seed = DeriveSeed(seed, "crc");
  o.mutation_seed = DeriveSeed(seed, "mutations");
  o.presample_seed = DeriveSeed(seed, "presample");
  return s;
}

/// Everything one set-up builds. Members are declared in dependency
/// order, so the loader is destroyed first.
struct Rig {
  std::unique_ptr<graph::Dataset> dataset;
  std::vector<graph::NodeId> hot_order;
  std::unique_ptr<sim::SystemModel> system;
  std::unique_ptr<TimingSampler> sampler;
  std::unique_ptr<sampling::SeedIterator> seeds;
  std::unique_ptr<core::GidsLoader> loader;
};

struct SetupTimes {
  int64_t build_ns = 0;
  int64_t pagerank_ns = 0;
  int64_t ctor_ns = 0;
};

/// Fresh seed stream + loader over the rig's dataset and sampler.
void MakeLoader(const TrainSpec& spec, Rig* rig, gids::obs::MetricRegistry* m,
                int64_t* ctor_ns) {
  rig->loader.reset();
  rig->seeds = std::make_unique<sampling::SeedIterator>(
      rig->dataset->train_ids, spec.batch, spec.seed_iter_seed);
  core::GidsOptions opts = spec.options;
  opts.hot_node_order = &rig->hot_order;
  opts.metrics = m;
  int64_t ns = TimedCall(SpanKind::kCoreCtor, 0, [&] {
    rig->loader = std::make_unique<core::GidsLoader>(
        rig->dataset.get(), rig->sampler.get(), rig->seeds.get(),
        rig->system.get(), opts);
  });
  if (ctor_ns != nullptr) *ctor_ns = ns;
}

/// Dataset build + PageRank hot ranking + loader construction.
bool BuildRig(const TrainSpec& spec, Rig* rig, SetupTimes* t,
              RunOutcome* out) {
  rig->loader.reset();  // before the dataset and sampler it points into
  *rig = Rig{};
  std::optional<gids::StatusOr<graph::Dataset>> built;
  t->build_ns = TimedCall(SpanKind::kGraphBuild, 0, [&] {
    built.emplace(
        graph::BuildDataset(spec.dataset, spec.scale, spec.dataset_seed));
  });
  if (!built->ok()) {
    out->Check(false, "BuildDataset: " + built->status().ToString());
    return false;
  }
  rig->dataset = std::make_unique<graph::Dataset>(std::move(*built).value());
  t->pagerank_ns = TimedCall(SpanKind::kGraphPagerank, 0, [&] {
    rig->hot_order = graph::RankNodesByScore(
        graph::WeightedReversePageRank(rig->dataset->graph, {}));
  });
  sim::SystemConfig cfg =
      sim::SystemConfig::Paper(sim::SsdSpec::IntelOptane(), spec.n_ssd);
  cfg.memory_scale = spec.memory_scale;
  rig->system = std::make_unique<sim::SystemModel>(cfg);
  rig->sampler = std::make_unique<TimingSampler>(
      std::make_unique<sampling::NeighborSampler>(
          &rig->dataset->graph,
          sampling::NeighborSamplerOptions{.fanouts = spec.fanouts},
          spec.sampler_seed));
  MakeLoader(spec, rig, nullptr, &t->ctor_ns);
  return true;
}

/// Feature versions a MutationStream built from the loader's options
/// issues, per node (version 0 is always valid and not listed).
using VersionMap = std::unordered_map<graph::NodeId, std::vector<uint64_t>>;

VersionMap IssuedVersions(const TrainSpec& spec, const graph::Dataset& ds) {
  VersionMap versions;
  const core::GidsOptions& o = spec.options;
  core::MutationStream stream(
      &ds.features, core::MutationStreamOptions{o.updates_per_iter,
                                                o.edge_ops_per_iter,
                                                o.mutation_seed});
  if (!stream.options().enabled()) return versions;
  // The loader submits through the last iteration of the group it is
  // preparing; one maximal group past the window bounds what it can have
  // issued by the window's end.
  const uint64_t iters =
      spec.warmup + spec.window + o.max_merged_iterations + 1;
  const uint64_t records = iters * stream.records_per_iter();
  for (uint64_t i = 0; i < records; ++i) {
    const gids::storage::MutationRecord& r = stream.Record(i);
    if (r.type == gids::storage::MutationType::kFeatureUpdate) {
      versions[static_cast<graph::NodeId>(r.key)].push_back(r.arg);
    }
  }
  return versions;
}

/// Every gathered row either byte-equals a valid version of its node's
/// feature vector or is zero-filled and counted as degraded/corrupt.
bool VerifyRows(const graph::FeatureStore& fs, const VersionMap& versions,
                const loaders::LoaderBatch& lb, std::string* why) {
  const uint32_t dim = fs.feature_dim();
  const auto& nodes = lb.batch.input_nodes();
  if (lb.features.size() != nodes.size() * dim) {
    *why = "feature buffer size mismatch";
    return false;
  }
  std::vector<float> expect(dim);
  auto matches = [&](const float* row, graph::NodeId v, uint64_t version) {
    fs.FillFeatureAt(v, version, expect);
    return std::memcmp(row, expect.data(), dim * sizeof(float)) == 0;
  };
  uint64_t zero_rows = 0;
  for (size_t r = 0; r < nodes.size(); ++r) {
    const float* row = lb.features.data() + r * dim;
    const graph::NodeId v = nodes[r];
    if (matches(row, v, 0)) continue;
    bool ok = false;
    if (auto it = versions.find(v); it != versions.end()) {
      for (uint64_t k : it->second) {
        if (matches(row, v, k)) {
          ok = true;
          break;
        }
      }
    }
    if (ok) continue;
    bool zero = true;
    for (uint32_t j = 0; j < dim && zero; ++j) zero = row[j] == 0.0f;
    if (!zero) {
      *why = "row of node " + std::to_string(v) +
             " matches no issued version and is not zero-filled";
      return false;
    }
    ++zero_rows;
  }
  const auto& g = lb.stats.gather;
  if (zero_rows > g.degraded_nodes + g.corrupt_nodes) {
    *why = std::to_string(zero_rows) + " zero-filled rows but only " +
           std::to_string(g.degraded_nodes + g.corrupt_nodes) +
           " degraded/corrupt nodes counted";
    return false;
  }
  return true;
}

void MixBatch(const loaders::LoaderBatch& lb, Fingerprint* fp) {
  fp->MixAll(lb.batch.seeds);
  for (const sampling::Block& b : lb.batch.blocks) {
    fp->MixAll(b.src_nodes);
    fp->Mix(b.num_dst);
    fp->MixAll(b.edge_src);
    fp->MixAll(b.edge_dst);
  }
  const loaders::IterationStats& s = lb.stats;
  for (int64_t v : {s.sampling_ns, s.aggregation_ns, s.transfer_ns,
                    s.training_ns, s.e2e_ns}) {
    fp->Mix(static_cast<uint64_t>(v));
  }
  const auto& g = s.gather;
  for (uint64_t v : {g.nodes, g.cpu_buffer_hits, g.gpu_cache_hits,
                     g.storage_reads, g.coalesced_requests, g.distinct_pages,
                     g.degraded_nodes, g.corrupt_nodes, s.sampled_edges,
                     s.input_nodes, s.failovers}) {
    fp->Mix(v);
  }
  fp->Mix(s.merged_group);
  for (int c = 0; c < gids::obs::IterationLedger::kNumComponents; ++c) {
    fp->Mix(static_cast<uint64_t>(s.ledger.component(c)));
  }
}

/// Storage-side counters read through the loader's public accessors (and
/// the metric registry, when one is bound), diffed over the window.
struct Counters {
  double retries = 0;
  double dead_letters = 0;
  double crc_mismatches = 0;
  double repairs = 0;
  double journal_records = 0;
  double write_amp = 0;
  double mutations_applied = 0;
};

double RegistrySum(const gids::obs::MetricRegistry* m, const char* name) {
  if (m == nullptr) return 0;
  double sum = 0;
  for (const auto& s : m->Snapshot()) {
    if (s.name == name) sum += s.value;
  }
  return sum;
}

Counters ReadCounters(const core::GidsLoader& loader,
                      const gids::obs::MetricRegistry* m) {
  const gids::storage::StorageArray& sa = loader.storage_array();
  Counters c;
  c.retries = static_cast<double>(sa.retries_total());
  c.dead_letters = static_cast<double>(sa.dead_letters_total());
  c.crc_mismatches = static_cast<double>(sa.checksum_mismatches_total());
  c.repairs = static_cast<double>(sa.integrity_repairs_total());
  if (const auto* j = sa.journal(); j != nullptr) {
    c.journal_records = static_cast<double>(j->last_lsn());
    c.write_amp = j->WriteAmplification();
    c.mutations_applied = RegistrySum(m, "gids_mutations_applied_total");
  }
  return c;
}

struct PhaseResult {
  uint64_t passes = 0;
  uint64_t measured = 0;  // timed iterations, every pass
  /// Per window iteration: its shortest Next() + Recycle() host time, and
  /// its shortest Next() host time, across passes.
  std::vector<int64_t> fastest_ns;
  std::vector<int64_t> fastest_next_ns;
  int64_t next_ns_total = 0;
  // The first pass's window: virtual outputs and counters.
  loaders::IterationStats window;
  gids::Histogram window_e2e;
  uint64_t merged_group_sum = 0;
  Counters before;
  Counters after;
  uint64_t fingerprint = 0;
  uint64_t steady_allocs = 0;
  double peak_rss_mb = 0;  // through set-up, warm-up and the window

  double host_iter_per_s() const {
    int64_t ns = 0;
    for (int64_t t : fastest_ns) ns += t;
    return ns == 0 ? 0.0 : static_cast<double>(fastest_ns.size()) * 1e9 /
                               static_cast<double>(ns);
  }
  double host_next_ms_p95() const {
    std::vector<double> ms;
    for (int64_t t : fastest_next_ns) {
      ms.push_back(static_cast<double>(t) / 1e6);
    }
    return Percentile(std::move(ms), 0.95);
  }
};

/// The measured phase, in passes: each pass builds a fresh loader (but
/// the first, which uses the rig's), runs the warm-up untimed, then times
/// the `window` iterations. Passes repeat until `seconds` of wall time
/// have passed since the first timed iteration (at least one pass). Every
/// pass does the same virtual work, so it must reproduce the first pass's
/// fingerprint, and iteration i costs the same host work each time; the
/// host metrics take each iteration's shortest time across passes, as
/// serve-ladder does with its ladder runs (README.md "Steadiness").
/// Spans are recorded for the timed iterations only when `traced`.
bool RunPhase(const TrainSpec& spec, Rig* rig, gids::obs::MetricRegistry* m,
              double seconds, bool traced, const VersionMap& versions,
              PhaseResult* res, RunOutcome* out) {
  const graph::FeatureStore& fs = rig->dataset->features;
  gids::WorkspacePool& pool = gids::WorkspacePool::Default();
  uint64_t allocs0 = 0;
  int64_t deadline = 0;
  res->fastest_ns.assign(spec.window, INT64_MAX);
  res->fastest_next_ns.assign(spec.window, INT64_MAX);
  do {
    const bool first = res->passes == 0;
    if (!first) MakeLoader(spec, rig, m, nullptr);
    core::GidsLoader& loader = *rig->loader;
    Fingerprint fp;
    auto check_batch = [&](const loaders::LoaderBatch& lb) {
      if (lb.stats.ledger.Sum() != lb.stats.e2e_ns) {
        out->Check(false, "ledger.Sum() != e2e_ns at iteration " +
                              std::to_string(loader.iterations()));
        return false;
      }
      return true;
    };
    for (uint64_t i = 0; i < spec.warmup; ++i) {
      auto lb = loader.Next();
      if (!lb.ok()) {
        out->Check(false, "warm-up Next(): " + lb.status().ToString());
        return false;
      }
      if (!check_batch(*lb)) return false;
      MixBatch(*lb, &fp);
      loader.Recycle(std::move(*lb));
    }
    if (first) {
      pool.Prewarm();
      allocs0 = pool.allocs_total();
      rig->sampler->ResetTotals();
      res->before = ReadCounters(loader, m);
      deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    }

    SpanRecorder::Get().set_enabled(traced);
    for (uint64_t i = 0; i < spec.window; ++i) {
      std::optional<gids::StatusOr<loaders::LoaderBatch>> lb;
      const int64_t next_ns =
          TimedCall(SpanKind::kCoreNext, loader.iterations(),
                    [&] { lb.emplace(loader.Next()); });
      if (!lb->ok()) {
        out->Check(false, "Next(): " + lb->status().ToString());
        return false;
      }
      loaders::LoaderBatch& batch = **lb;
      if (!check_batch(batch)) return false;
      MixBatch(batch, &fp);
      std::string why;
      if (spec.verify_stride != 0 && i % spec.verify_stride == 0 &&
          !VerifyRows(fs, versions, batch, &why)) {
        out->Check(false, "iteration " + std::to_string(i) + ": " + why);
        return false;
      }
      if (first) {
        res->window.Add(batch.stats);
        res->window_e2e.Add(static_cast<uint64_t>(batch.stats.e2e_ns));
        res->merged_group_sum += batch.stats.merged_group;
      }
      const int64_t t0 = NowNs();
      loader.Recycle(std::move(batch));
      const int64_t loop_ns = next_ns + (NowNs() - t0);

      res->next_ns_total += next_ns;
      res->fastest_ns[i] = std::min(res->fastest_ns[i], loop_ns);
      res->fastest_next_ns[i] = std::min(res->fastest_next_ns[i], next_ns);
      ++res->measured;
    }
    SpanRecorder::Get().set_enabled(false);
    if (first) {
      res->after = ReadCounters(loader, m);
      res->peak_rss_mb = PeakRssMb();
      res->steady_allocs = pool.allocs_total() - allocs0;
      res->fingerprint = fp.value();
    } else if (fp.value() != res->fingerprint) {
      out->Check(false, "pass " + std::to_string(res->passes) +
                            " did not repeat the first pass's virtual-time "
                            "results");
      return false;
    }
    ++res->passes;
  } while (NowNs() < deadline);
  return true;
}

void PutEndToEnd(const TrainSpec& spec, const PhaseResult& r,
                 const std::vector<double>& setup_s, RunOutcome* out) {
  auto& m = out->metrics;
  const double n = static_cast<double>(spec.window);
  const double e2e_s = static_cast<double>(r.window.e2e_ns) / 1e9;
  const auto& g = r.window.gather;
  m["setup_s"] = Median(setup_s);
  m["host_iter_per_s"] = r.host_iter_per_s();
  m["host_req_per_s"] = r.host_iter_per_s() * spec.batch;
  m["host_next_ms_p95"] = r.host_next_ms_p95();
  m["peak_rss_mb"] = r.peak_rss_mb;
  m["virt_iter_ms"] = static_cast<double>(r.window.e2e_ns) / n / 1e6;
  m["virt_iter_ms_p99"] = r.window_e2e.Percentile(0.99) / 1e6;
  m["virt_p50_us"] = r.window_e2e.Percentile(0.50) / 1e3;
  m["virt_feature_gbps"] = r.window.effective_bandwidth_bps / 1e9;
  // A training consumer has no deadline and no offered-load ladder: every
  // seed node is on time, and the rate it is fed is its throughput.
  m["virt_goodput_per_s"] = n * spec.batch / e2e_s;
  m["virt_max_rate_per_s"] = n * spec.batch / e2e_s;
  m["ok_frac"] = g.nodes == 0 ? 0.0
                              : 1.0 - static_cast<double>(g.degraded_nodes +
                                                          g.corrupt_nodes) /
                                          static_cast<double>(g.nodes);
}

void PutPerLayer(const TrainSpec& spec, const PhaseResult& untraced,
                 const PhaseResult& traced,
                 const std::array<LayerTimes, kNumSpanKinds>& layers,
                 const std::vector<SetupTimes>& setups, RunOutcome* out) {
  auto& m = out->metrics;
  std::vector<double> build, pagerank, ctor;
  for (const SetupTimes& t : setups) {
    build.push_back(static_cast<double>(t.build_ns) / 1e9);
    pagerank.push_back(static_cast<double>(t.pagerank_ns) / 1e9);
    ctor.push_back(static_cast<double>(t.ctor_ns) / 1e9);
  }
  m["graph.build_s"] = Median(build);
  m["graph.pagerank_s"] = Median(pagerank);
  m["core.ctor_s"] = Median(ctor);

  const LayerTimes& next = layers[static_cast<int>(SpanKind::kCoreNext)];
  const LayerTimes& samp = layers[static_cast<int>(SpanKind::kSamplingSample)];
  const double n = static_cast<double>(spec.window);
  const loaders::IterationStats& w = traced.window;
  const auto& g = w.gather;
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  m["sampling.host_us_per_call"] =
      ratio(static_cast<double>(samp.total_ns) / 1e3,
            static_cast<double>(samp.count));
  m["sampling.host_share"] = ratio(static_cast<double>(next.covered_ns),
                                   static_cast<double>(next.total_ns));
  m["sampling.edges_per_iter"] = static_cast<double>(w.sampled_edges) / n;
  m["core.next_self_ms"] = ratio(static_cast<double>(next.self_ns) / 1e6,
                                 static_cast<double>(next.count));
  m["core.merged_group_mean"] =
      static_cast<double>(traced.merged_group_sum) / n;
  m["core.cpu_buffer_hit_frac"] =
      ratio(static_cast<double>(g.cpu_buffer_hits),
            static_cast<double>(g.total_page_requests()));
  m["core.mutations_applied"] =
      traced.after.mutations_applied - traced.before.mutations_applied;
  m["storage.cache_hit_ratio"] =
      ratio(static_cast<double>(g.gpu_cache_hits),
            static_cast<double>(g.gpu_cache_hits + g.storage_reads));
  m["storage.reads_per_iter"] = static_cast<double>(g.storage_reads) / n;
  m["storage.dedup_ratio"] =
      ratio(static_cast<double>(g.coalesced_requests),
            static_cast<double>(g.total_page_requests()));
  m["storage.retries_per_iter"] =
      (traced.after.retries - traced.before.retries) / n;
  m["storage.failovers_per_iter"] = static_cast<double>(w.failovers) / n;
  m["storage.crc_mismatches"] =
      traced.after.crc_mismatches - traced.before.crc_mismatches;
  m["storage.repairs"] = traced.after.repairs - traced.before.repairs;
  m["storage.dead_letters"] =
      traced.after.dead_letters - traced.before.dead_letters;
  m["storage.degraded_nodes"] = static_cast<double>(g.degraded_nodes);
  m["storage.corrupt_nodes"] = static_cast<double>(g.corrupt_nodes);
  m["storage.journal_records"] =
      traced.after.journal_records - traced.before.journal_records;
  m["storage.write_amp"] = traced.after.write_amp;
  for (int c = 0; c < gids::obs::IterationLedger::kNumComponents; ++c) {
    m[std::string("ledger.") + gids::obs::IterationLedger::ComponentName(c) +
      "_ms_per_iter"] = static_cast<double>(w.ledger.component(c)) / n / 1e6;
  }
  m["common.ws_steady_allocs"] = static_cast<double>(untraced.steady_allocs);
  const double overhead =
      1.0 - ratio(traced.host_iter_per_s(), untraced.host_iter_per_s());
  m["trace.host_iter_per_s_overhead"] = overhead;
  m["trace.host_req_per_s_overhead"] = overhead;
}

}  // namespace

bool IsTrainWorkload(const std::string& name) {
  return name == "train-storage" || name == "train-faults";
}

RunOutcome RunTrainWorkload(const Args& args) {
  RunOutcome out;
  const TrainSpec spec = MakeSpec(args.workload, args.seed);
  SpanRecorder& rec = SpanRecorder::Get();

  // Set-up, several times; the last rig is the one measured.
  Rig rig;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  rec.set_enabled(args.trace);
  while (WantAnotherSetup(setup_s)) {
    SetupTimes t;
    if (!BuildRig(spec, &rig, &t, &out)) return out;
    setups.push_back(t);
    setup_s.push_back(static_cast<double>(t.build_ns + t.pagerank_ns +
                                          t.ctor_ns) / 1e9);
  }
  rec.set_enabled(false);
  const VersionMap versions = IssuedVersions(spec, *rig.dataset);

  // Untraced phase: the end-to-end run, or the traced run's baseline half.
  PhaseResult untraced;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  bool ok = RunPhase(spec, &rig, nullptr, untraced_s, /*traced=*/false,
                     versions, &untraced, &out);
  out.attempted += untraced.passes * spec.warmup + untraced.measured;
  std::printf("%s untraced: %llu passes, %llu iterations, fingerprint "
              "%016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(untraced.passes),
              static_cast<unsigned long long>(untraced.measured),
              static_cast<unsigned long long>(untraced.fingerprint));
  if (!ok) return out;
  if (!args.trace) {
    PutEndToEnd(spec, untraced, setup_s, &out);
    return out;
  }

  // Traced phase: a fresh loader with the metric registry bound, spans on.
  gids::obs::MetricRegistry registry;
  PhaseResult traced;
  MakeLoader(spec, &rig, &registry, nullptr);
  ok = RunPhase(spec, &rig, &registry, args.seconds / 2, /*traced=*/true,
                versions, &traced, &out);
  rig.loader.reset();  // joins the pool: no thread records past here
  out.attempted += traced.passes * spec.warmup + traced.measured;
  std::printf("%s traced: %llu passes, %llu iterations, fingerprint "
              "%016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(traced.passes),
              static_cast<unsigned long long>(traced.measured),
              static_cast<unsigned long long>(traced.fingerprint));
  if (!ok) return out;
  out.Check(traced.fingerprint == untraced.fingerprint,
            "virtual-time fingerprint differs between traced and untraced "
            "runs");

  const std::vector<Span> spans = rec.Collect();
  const auto layers = ComputeLayerTimes(spans);
  const LayerTimes& next = layers[static_cast<int>(SpanKind::kCoreNext)];
  out.Check(next.count == traced.measured,
            "core.next span count differs from measured iterations");
  out.Check(next.self_ns + next.covered_ns == traced.next_ns_total,
            "core.next self + sampling.sample covered time != measured "
            "Next() time");
  if (!args.trace_out.empty() &&
      !SpanRecorder::WriteJson(spans, args.trace_out)) {
    out.Check(false, "cannot write trace to " + args.trace_out);
  }
  PutPerLayer(spec, untraced, traced, layers, setups, &out);
  return out;
}

}  // namespace perfbench
