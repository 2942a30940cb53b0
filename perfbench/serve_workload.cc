// serve-ladder: the InferenceServer under open-loop virtual-time traffic at
// a few fixed rates around its saturation point, each traffic trace a fixed
// span of virtual time. Host time is what Run() costs; latency, goodput and
// the highest rate that meets the SLO come from ServingRunResult.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/workspace_pool.h"
#include "graph/csc_graph.h"
#include "graph/generator.h"
#include "obs/metric_registry.h"
#include "sampling/neighbor_sampler.h"
#include "serving/inference_server.h"
#include "serving/traffic_gen.h"
#include "span_trace.h"
#include "timing_sampler.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace graph = gids::graph;
namespace serving = gids::serving;

// The bench_serving graph: uniform, 16k nodes, 128k edges, fanout 4,4.
constexpr graph::NodeId kNodes = 1 << 14;
constexpr graph::EdgeIdx kEdges = 1 << 17;
// Offered rates in requests per virtual second; saturation (goodput) is
// near 2.2e4. The nominal rate is where latency and goodput are reported.
constexpr double kRates[] = {1.0e4, 1.5e4, 2.0e4, 2.5e4};
constexpr int kNumRates = sizeof(kRates) / sizeof(kRates[0]);
constexpr int kNominal = 1;
// Independent traffic traces per rate (own arrival and seed streams),
// pooled: their latency tails add samples without the superlinear host
// cost of one longer trace. The nominal rate, whose tail is reported,
// gets the most.
constexpr int kReplicas[kNumRates] = {12, 72, 12, 12};
constexpr int kRunsPerPass = 108;  // sum of kReplicas
// Every trace offers traffic for the same virtual duration rather than the
// same request count: the scheduler's host cost grows with the number of
// service-time windows (README.md "Serving host-time scaling"). Short
// traces bound each scheduling decision's merge at 25 windows, so that
// cost does not swamp the rest of Run().
constexpr gids::TimeNs kStepNs = 25 * gids::kNsPerMs;
constexpr gids::TimeNs kSloNs = 2 * gids::kNsPerMs;

/// Index of the first ladder run at kRates[rate]; runs are ordered by rate.
int FirstRun(int rate) {
  int run = 0;
  for (int k = 0; k < rate; ++k) run += kReplicas[k];
  return run;
}

int RateOfRun(int run) {
  int rate = 0;
  while (rate + 1 < kNumRates && run >= FirstRun(rate + 1)) ++rate;
  return rate;
}

serving::ServingOptions BaseOptions(uint64_t seed) {
  serving::ServingOptions o;
  o.max_queue_depth = 2048;
  o.max_batch_requests = 8;
  o.batch_window_ns = 50 * gids::kNsPerUs;
  o.executor_lanes = 2;
  o.gpu_cache_lines = 256;
  o.coalesce_across_requests = true;
  o.host_threads = 1;
  o.seed = DeriveSeed(seed, "server");
  o.fault_seed = DeriveSeed(seed, "faults");
  return o;
}

/// Traffic of ladder run `run`.
serving::TrafficOptions Traffic(uint64_t seed, int run) {
  serving::TrafficOptions t;
  t.arrival_rate_rps = kRates[RateOfRun(run)];
  t.zipf_skew = 1.0;
  t.seeds_per_request = 4;
  t.slo_deadline_ns = kSloNs;
  t.diurnal_amplitude = 0.3;
  t.diurnal_period_ns = 5 * gids::kNsPerMs;
  t.seed = DeriveSeed(seed, "traffic") + static_cast<uint64_t>(run);
  return t;
}

struct Rig {
  std::unique_ptr<graph::CscGraph> graph;
  std::unique_ptr<TimingSampler> sampler;
  std::vector<graph::NodeId> candidates;
  std::vector<uint64_t> run_requests;  // arrivals within kStepNs, per run
};

/// One ladder run's outputs.
struct LadderRun {
  serving::ServingRunResult result;  // cleared after the first pass
  uint64_t requests = 0;
  uint64_t batches = 0;
  int64_t run_ns = 0;
  std::vector<double> batch_ms;  // host time per batch (dispatch interval)
  uint64_t fingerprint = 0;
};

uint64_t RunFingerprint(const serving::ServingRunResult& r) {
  Fingerprint fp;
  for (uint64_t v : {r.offered, r.admitted, r.shed, r.completed, r.on_time,
                     r.deadline_misses, r.batches, r.max_backlog,
                     r.gather.nodes, r.gather.gpu_cache_hits,
                     r.gather.storage_reads, r.gather.coalesced_requests,
                     r.storage_array_reads, r.dead_letters}) {
    fp.Mix(v);
  }
  fp.Mix(static_cast<uint64_t>(r.last_completion_ns));
  fp.Mix(static_cast<uint64_t>(r.p99_service_estimate_ns));
  for (const serving::RequestOutcome& o : r.outcomes) {
    fp.Mix(o.id);
    fp.Mix(o.batch_id);
    fp.Mix(static_cast<uint64_t>(o.completion_ns));
  }
  return fp.value();
}

/// Host time per executed batch: the interval from one batch's first
/// sampler call to the next batch's (the last batch runs to Run()'s end),
/// so it covers the event-loop and scheduling work between dispatches.
std::vector<double> BatchIntervalsMs(const serving::ServingRunResult& r,
                                     const std::vector<int64_t>& start_log,
                                     int64_t run_end_ns) {
  std::vector<int64_t> first(r.batches + 1, INT64_MAX);
  for (const serving::RequestOutcome& o : r.outcomes) {
    if (o.batch_id < first.size() && o.id < start_log.size()) {
      first[o.batch_id] = std::min(first[o.batch_id], start_log[o.id]);
    }
  }
  std::erase(first, INT64_MAX);
  std::sort(first.begin(), first.end());
  std::vector<double> out;
  for (size_t i = 0; i < first.size(); ++i) {
    const int64_t end = i + 1 < first.size() ? first[i + 1] : run_end_ns;
    out.push_back(static_cast<double>(end - first[i]) / 1e6);
  }
  return out;
}

LadderRun RunOne(const Rig& rig, uint64_t seed, int run,
                 gids::obs::MetricRegistry* metrics, RunOutcome* out) {
  serving::ServingOptions o = BaseOptions(seed);
  o.metrics = metrics;
  o.display_name = "run" + std::to_string(run);
  std::optional<serving::InferenceServer> server;
  TimedCall(SpanKind::kServingCtor, static_cast<uint64_t>(run), [&] {
    server.emplace(rig.graph.get(), rig.sampler.get(), std::move(o));
  });
  serving::TrafficGenerator traffic(Traffic(seed, run), rig.candidates);
  const uint64_t n = rig.run_requests[run];
  std::vector<int64_t> start_log(n, 0);
  rig.sampler->set_start_log(&start_log);
  LadderRun s;
  const int64_t t0 = NowNs();
  s.run_ns = TimedCall(SpanKind::kServingRun, static_cast<uint64_t>(run),
                       [&] { s.result = server->Run(traffic, n); });
  rig.sampler->set_start_log(nullptr);
  s.requests = s.result.offered;
  s.batches = s.result.batches;
  s.batch_ms = BatchIntervalsMs(s.result, start_log, t0 + s.run_ns);
  s.fingerprint = RunFingerprint(s.result);

  const serving::ServingRunResult& r = s.result;
  const std::string at = " in ladder run " + std::to_string(run);
  out->Check(r.offered == n, "offered != generated requests" + at);
  out->Check(r.offered == r.admitted + r.shed,
             "books: offered != admitted + shed" + at);
  out->Check(r.completed == r.admitted, "books: completed != admitted" + at);
  out->Check(r.on_time + r.deadline_misses == r.completed,
             "books: on_time + deadline_misses != completed" + at);
  out->Check(r.outcomes.size() == r.admitted,
             "one outcome per admitted request" + at);
  return s;
}

struct Pass {
  std::vector<LadderRun> runs;
  double peak_rss_mb = 0;  // at the end of the pass
  int64_t run_ns = 0;
  uint64_t requests = 0;
};

/// Runs whole ladder passes until `seconds` of wall time have passed (at
/// least one). Every pass must reproduce `*reference` exactly.
std::vector<Pass> RunPasses(const Rig& rig, uint64_t seed, double seconds,
                            gids::obs::MetricRegistry* metrics,
                            std::vector<uint64_t>* reference,
                            RunOutcome* out) {
  std::vector<Pass> passes;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    Pass p;
    for (int run = 0; run < kRunsPerPass; ++run) {
      p.runs.push_back(RunOne(rig, seed, run, metrics, out));
      const LadderRun& s = p.runs.back();
      p.run_ns += s.run_ns;
      p.requests += s.requests;
      if (reference->size() <= static_cast<size_t>(run)) {
        reference->push_back(s.fingerprint);
      } else {
        out->Check((*reference)[run] == s.fingerprint,
                   "ladder run " + std::to_string(run) +
                       " did not repeat its virtual-time results");
      }
      // Later passes only add host timings; keeping one copy of the
      // virtual results keeps memory flat however many passes fit.
      if (!passes.empty()) {
        p.runs.back().result = {};
        out->Check(s.batch_ms.size() == passes[0].runs[run].batch_ms.size(),
                   "ladder run " + std::to_string(run) +
                       " timed a different number of batches");
      }
    }
    out->attempted += p.requests;
    p.peak_rss_mb = PeakRssMb();
    passes.push_back(std::move(p));
  } while (NowNs() < deadline && out->errors.empty());
  return passes;
}

/// Work per host second over one ladder pass, taking each ladder run's
/// shortest host time across passes. Every pass repeats the same virtual
/// work, so run r does the same requests and batches each time, and only
/// the machine makes one pass's copy slower than another's: other tenants
/// sharing the host's cores slow this cache-bound loop by up to 1.5× for
/// minutes at a time. A median across passes follows such a stretch;
/// the minimum needs only one quiet moment per ~10 ms run in the window
/// (README.md "Steadiness").
double PerHostSecond(const std::vector<Pass>& passes, bool requests) {
  double work = 0;
  double ns = 0;
  for (int r = 0; r < kRunsPerPass; ++r) {
    int64_t fastest = INT64_MAX;
    for (const Pass& p : passes) fastest = std::min(fastest, p.runs[r].run_ns);
    ns += static_cast<double>(fastest);
    const LadderRun& first = passes[0].runs[r];
    work += static_cast<double>(requests ? first.requests : first.batches);
  }
  return work * 1e9 / ns;
}

/// p95 over every batch of the ladder of its shortest host time across
/// passes (a run forms the same batches in every pass).
double BatchMsP95(const std::vector<Pass>& passes) {
  std::vector<double> fastest;
  for (int r = 0; r < kRunsPerPass; ++r) {
    const size_t n = passes[0].runs[r].batch_ms.size();
    for (size_t k = 0; k < n; ++k) {
      double best = passes[0].runs[r].batch_ms[k];
      for (const Pass& p : passes) {
        best = std::min(best, p.runs[r].batch_ms[k]);
      }
      fastest.push_back(best);
    }
  }
  return Percentile(std::move(fastest), 0.95);
}

/// One rate's replicas pooled: latency and occupancy histograms merged,
/// counts and virtual makespans summed.
struct RatePool {
  gids::Histogram latency_ns;
  gids::Histogram occupancy;
  gids::storage::FeatureGatherCounts gather;
  uint64_t offered = 0;
  uint64_t shed = 0;
  uint64_t misses = 0;
  uint64_t on_time = 0;
  uint64_t dead_letters = 0;
  double makespan_s = 0;
  double p99_service_estimate_ns = 0;  // mean over replicas

  double coalesced_frac() const {
    const uint64_t total = gather.total_page_requests();
    return total == 0 ? 0.0
                      : static_cast<double>(gather.coalesced_requests) /
                            static_cast<double>(total);
  }
};

RatePool Pool(const Pass& pass, int rate) {
  RatePool p;
  for (int i = 0; i < kReplicas[rate]; ++i) {
    const serving::ServingRunResult& r = pass.runs[FirstRun(rate) + i].result;
    p.latency_ns.Merge(r.latency_ns);
    p.occupancy.Merge(r.batch_occupancy);
    p.gather.Add(r.gather);
    p.offered += r.offered;
    p.shed += r.shed;
    p.misses += r.deadline_misses;
    p.on_time += r.on_time;
    p.dead_letters += r.dead_letters;
    p.makespan_s += static_cast<double>(r.last_completion_ns) / 1e9;
    p.p99_service_estimate_ns +=
        static_cast<double>(r.p99_service_estimate_ns) / kReplicas[rate];
  }
  return p;
}

/// Highest offered rate whose pooled p99 meets the SLO with nothing shed,
/// interpolated linearly between the last passing and first failing ladder
/// rate (so it moves smoothly, not in whole ladder steps).
double MaxRate(const Pass& pass) {
  double prev_rate = 0;
  double prev_p99 = 0;
  for (int k = 0; k < kNumRates; ++k) {
    const RatePool p = Pool(pass, k);
    const double p99 = p.latency_ns.Percentile(0.99);
    const bool meets = p.shed == 0 && p99 <= static_cast<double>(kSloNs);
    if (!meets) {
      if (k == 0 || p.shed > 0 || p99 <= prev_p99) return prev_rate;
      const double f =
          (static_cast<double>(kSloNs) - prev_p99) / (p99 - prev_p99);
      return prev_rate + f * (kRates[k] - prev_rate);
    }
    prev_rate = kRates[k];
    prev_p99 = p99;
  }
  return prev_rate;
}

void PutEndToEnd(const std::vector<Pass>& passes,
                 const std::vector<double>& setup_s, RunOutcome* out) {
  auto& m = out->metrics;
  const RatePool nom = Pool(passes[0], kNominal);
  const double feature_bytes = static_cast<double>(nom.gather.nodes) *
                               BaseOptions(0).feature_dim * sizeof(float);
  m["setup_s"] = Median(setup_s);
  m["host_iter_per_s"] = PerHostSecond(passes, /*requests=*/false);
  m["host_req_per_s"] = PerHostSecond(passes, /*requests=*/true);
  m["host_next_ms_p95"] = BatchMsP95(passes);
  m["peak_rss_mb"] = passes[0].peak_rss_mb;
  m["virt_iter_ms"] = nom.latency_ns.Mean() / 1e6;
  m["virt_iter_ms_p99"] = nom.latency_ns.Percentile(0.99) / 1e6;
  m["virt_p50_us"] = nom.latency_ns.Percentile(0.50) / 1e3;
  m["virt_feature_gbps"] = feature_bytes / nom.makespan_s / 1e9;
  m["virt_goodput_per_s"] = static_cast<double>(nom.on_time) / nom.makespan_s;
  m["virt_max_rate_per_s"] = MaxRate(passes[0]);
  m["ok_frac"] = 1.0 - static_cast<double>(nom.shed + nom.misses) /
                           static_cast<double>(nom.offered);
}

void PutPerLayer(const std::vector<Pass>& untraced,
                 const std::vector<Pass>& traced,
                 const std::array<LayerTimes, kNumSpanKinds>& layers,
                 const TimingSampler::Totals& sampler,
                 const std::vector<double>& build_s,
                 const std::vector<double>& ctor_s, uint64_t steady_allocs,
                 RunOutcome* out) {
  auto& m = out->metrics;
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const LayerTimes& run = layers[static_cast<int>(SpanKind::kServingRun)];
  const LayerTimes& samp = layers[static_cast<int>(SpanKind::kSamplingSample)];
  const RatePool nom = Pool(traced[0], kNominal);
  const auto& g = nom.gather;
  m["graph.build_s"] = Median(build_s);
  m["graph.pagerank_s"] = 0.0;  // serving pins no hot buffer
  m["core.ctor_s"] = Median(ctor_s);
  m["sampling.host_us_per_call"] =
      ratio(static_cast<double>(samp.total_ns) / 1e3,
            static_cast<double>(samp.count));
  m["sampling.host_share"] = ratio(static_cast<double>(run.covered_ns),
                                   static_cast<double>(run.total_ns));
  m["sampling.edges_per_iter"] = ratio(static_cast<double>(sampler.edges),
                                       static_cast<double>(sampler.calls));
  m["core.cpu_buffer_hit_frac"] =
      ratio(static_cast<double>(g.cpu_buffer_hits),
            static_cast<double>(g.total_page_requests()));
  m["storage.cache_hit_ratio"] =
      ratio(static_cast<double>(g.gpu_cache_hits),
            static_cast<double>(g.gpu_cache_hits + g.storage_reads));
  m["storage.reads_per_iter"] = ratio(static_cast<double>(g.storage_reads),
                                      static_cast<double>(nom.offered));
  m["storage.dedup_ratio"] = nom.coalesced_frac();
  m["storage.dead_letters"] = static_cast<double>(nom.dead_letters);
  m["storage.degraded_nodes"] = static_cast<double>(g.degraded_nodes);
  m["storage.corrupt_nodes"] = static_cast<double>(g.corrupt_nodes);

  uint64_t shed = 0, misses = 0;
  for (const LadderRun& s : traced[0].runs) {
    shed += s.result.shed;
    misses += s.result.deadline_misses;
  }
  m["serving.run_self_s"] = static_cast<double>(run.self_ns) / 1e9 /
                            static_cast<double>(traced.size());
  m["serving.host_us_per_batch"] = 1e6 / PerHostSecond(traced, false);
  m["serving.batch_occupancy_mean"] = nom.occupancy.Mean();
  m["serving.p99_service_estimate_us"] = nom.p99_service_estimate_ns / 1e3;
  m["serving.shed"] = static_cast<double>(shed);
  m["serving.deadline_misses"] = static_cast<double>(misses);
  m["common.ws_steady_allocs"] = static_cast<double>(steady_allocs);
  m["trace.host_iter_per_s_overhead"] =
      1.0 - ratio(PerHostSecond(traced, false), PerHostSecond(untraced, false));
  m["trace.host_req_per_s_overhead"] =
      1.0 - ratio(PerHostSecond(traced, true), PerHostSecond(untraced, true));
}

}  // namespace

RunOutcome RunServeWorkload(const Args& args) {
  RunOutcome out;
  SpanRecorder& rec = SpanRecorder::Get();

  // Set-up, several times: graph build + server construction. The last
  // graph and sampler serve every ladder run (each run needs a fresh
  // server: one Run() per instance).
  Rig rig;
  std::vector<double> setup_s, build_s, ctor_s;
  rec.set_enabled(args.trace);
  while (WantAnotherSetup(setup_s)) {
    rig.sampler.reset();  // before the graph it points into
    rig = Rig{};
    std::optional<gids::StatusOr<graph::CscGraph>> g;
    const int64_t build_ns = TimedCall(SpanKind::kGraphBuild, 0, [&] {
      gids::Rng rng(DeriveSeed(args.seed, "graph"));
      g.emplace(graph::GenerateUniform(kNodes, kEdges, rng));
    });
    if (!g->ok()) {
      out.Check(false, "GenerateUniform: " + g->status().ToString());
      return out;
    }
    rig.graph = std::make_unique<graph::CscGraph>(std::move(*g).value());
    rig.sampler = std::make_unique<TimingSampler>(
        std::make_unique<gids::sampling::NeighborSampler>(
            rig.graph.get(), gids::sampling::NeighborSamplerOptions{{4, 4}},
            DeriveSeed(args.seed, "sampler")));
    std::optional<serving::InferenceServer> server;
    const int64_t ctor_ns = TimedCall(SpanKind::kServingCtor, 0, [&] {
      server.emplace(rig.graph.get(), rig.sampler.get(),
                     BaseOptions(args.seed));
    });
    build_s.push_back(static_cast<double>(build_ns) / 1e9);
    ctor_s.push_back(static_cast<double>(ctor_ns) / 1e9);
    setup_s.push_back(static_cast<double>(build_ns + ctor_ns) / 1e9);
  }
  rec.set_enabled(false);
  rig.candidates.resize(kNodes);
  for (graph::NodeId i = 0; i < kNodes; ++i) rig.candidates[i] = i;
  for (int run = 0; run < kRunsPerPass; ++run) {
    // The trace is a pure function of its options: count the arrivals that
    // fall inside the run's virtual duration.
    serving::TrafficGenerator probe(Traffic(args.seed, run), rig.candidates);
    uint64_t n = 0;
    while (probe.Next().arrival_ns < kStepNs) ++n;
    rig.run_requests.push_back(n);
  }

  // One unmeasured warm-up pass (it also fixes the reference results
  // every later pass must reproduce), then the pool prewarm.
  std::vector<uint64_t> reference;
  RunPasses(rig, args.seed, 0.0, nullptr, &reference, &out);
  if (!out.errors.empty()) return out;
  gids::WorkspacePool& pool = gids::WorkspacePool::Default();
  pool.Prewarm();
  const uint64_t allocs0 = pool.allocs_total();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Pass> untraced =
      RunPasses(rig, args.seed, untraced_s, nullptr, &reference, &out);
  const uint64_t steady_allocs = pool.allocs_total() - allocs0;
  if (!out.errors.empty()) return out;
  std::printf("serve-ladder untraced: %zu passes\n", untraced.size());
  for (int k = 0; k < kNumRates; ++k) {
    const RatePool p = Pool(untraced[0], k);
    std::printf("  %6.0f rps: %6llu offered, p50 %7.1f us, p99 %8.1f us, "
                "%4llu shed, %5llu late\n",
                kRates[k], static_cast<unsigned long long>(p.offered),
                p.latency_ns.Percentile(0.5) / 1e3,
                p.latency_ns.Percentile(0.99) / 1e3,
                static_cast<unsigned long long>(p.shed),
                static_cast<unsigned long long>(p.misses));
  }
  if (!args.trace) {
    PutEndToEnd(untraced, setup_s, &out);
    return out;
  }

  gids::obs::MetricRegistry registry;
  rig.sampler->ResetTotals();
  rec.set_enabled(true);
  std::vector<Pass> traced =
      RunPasses(rig, args.seed, args.seconds / 2, &registry, &reference, &out);
  rec.set_enabled(false);
  std::printf("serve-ladder traced: %zu passes\n", traced.size());
  if (!out.errors.empty()) return out;

  const std::vector<Span> spans = rec.Collect();
  const auto layers = ComputeLayerTimes(spans);
  int64_t run_ns = 0;
  for (const Pass& p : traced) run_ns += p.run_ns;
  const LayerTimes& run = layers[static_cast<int>(SpanKind::kServingRun)];
  out.Check(run.self_ns + run.covered_ns == run_ns,
            "serving.run self + sampling.sample covered time != measured "
            "Run() time");
  if (!args.trace_out.empty() &&
      !SpanRecorder::WriteJson(spans, args.trace_out)) {
    out.Check(false, "cannot write trace to " + args.trace_out);
  }
  PutPerLayer(untraced, traced, layers, rig.sampler->totals(), build_s,
              ctor_s, steady_allocs, &out);
  return out;
}

}  // namespace perfbench
