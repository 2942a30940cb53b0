// perfbench: the two-clock benchmark program (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Builds the workload's inputs from --seed, measures for --seconds, checks
// the outputs, and prints as its last stdout line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 when an output check fails, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer", in order).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_iter_per_s", "1/s"},
    {"host_req_per_s", "1/s"},
    {"host_next_ms_p95", "ms"},
    {"peak_rss_mb", "MiB"},
    {"virt_iter_ms", "ms"},
    {"virt_iter_ms_p99", "ms"},
    {"virt_p50_us", "us"},
    {"virt_feature_gbps", "GB/s"},
    {"virt_goodput_per_s", "1/s"},
    {"virt_max_rate_per_s", "1/s"},
    {"ok_frac", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.pagerank_s", "s"},
    {"core.ctor_s", "s"},
    {"sampling.host_us_per_call", "us"},
    {"sampling.host_share", "fraction"},
    {"sampling.edges_per_iter", "count"},
    {"core.next_self_ms", "ms"},
    {"core.merged_group_mean", "count"},
    {"core.cpu_buffer_hit_frac", "fraction"},
    {"core.mutations_applied", "count"},
    {"storage.cache_hit_ratio", "fraction"},
    {"storage.reads_per_iter", "count"},
    {"storage.dedup_ratio", "fraction"},
    {"storage.retries_per_iter", "count"},
    {"storage.failovers_per_iter", "count"},
    {"storage.crc_mismatches", "count"},
    {"storage.repairs", "count"},
    {"storage.dead_letters", "count"},
    {"storage.degraded_nodes", "count"},
    {"storage.corrupt_nodes", "count"},
    {"storage.journal_records", "count"},
    {"storage.write_amp", "ratio"},
    {"ledger.sampling_ms_per_iter", "ms"},
    {"ledger.cache_hit_ms_per_iter", "ms"},
    {"ledger.cpu_buffer_ms_per_iter", "ms"},
    {"ledger.storage_ms_per_iter", "ms"},
    {"ledger.retry_backoff_ms_per_iter", "ms"},
    {"ledger.crc_verify_ms_per_iter", "ms"},
    {"ledger.degraded_fill_ms_per_iter", "ms"},
    {"ledger.transfer_ms_per_iter", "ms"},
    {"ledger.training_ms_per_iter", "ms"},
    {"ledger.mutation_ms_per_iter", "ms"},
    {"ledger.overlap_credit_ms_per_iter", "ms"},
    {"serving.run_self_s", "s"},
    {"serving.host_us_per_batch", "us"},
    {"serving.batch_occupancy_mean", "count"},
    {"serving.p99_service_estimate_us", "us"},
    {"serving.shed", "count"},
    {"serving.deadline_misses", "count"},
    {"common.ws_steady_allocs", "count"},
    {"trace.host_iter_per_s_overhead", "fraction"},
    {"trace.host_req_per_s_overhead", "fraction"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <train-storage|train-faults|"
               "serve-ladder> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t u = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 3600) {
        return Usage("bad --seconds (want 0 < s <= 3600)");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &u) || u > 1) return Usage("bad --trace");
      args.trace = u == 1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("missing --workload");

  RunOutcome out;
  if (IsTrainWorkload(args.workload)) {
    out = RunTrainWorkload(args);
  } else if (args.workload == "serve-ladder") {
    out = RunServeWorkload(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::vector<MetricDef> wanted;
  if (args.trace) {
    wanted.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    wanted.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  if (out.errors.empty() && !args.trace) {
    // Every end-to-end metric is defined on every workload.
    for (const MetricDef& d : wanted) {
      if (out.metrics.count(d.name) == 0) {
        out.errors.push_back(std::string("metric not computed: ") + d.name);
      }
    }
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();
  const uint64_t attempted = std::max<uint64_t>(1, out.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(out.errors.size()));
  if (correct) {
    bool first = true;
    for (const MetricDef& d : wanted) {
      // Per-layer metrics a workload has no such layer for read 0.
      auto it = out.metrics.find(d.name);
      std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", d.name);
      PrintJsonNumber(it == out.metrics.end() ? 0.0 : it->second);
      std::printf(", \"unit\": \"%s\"}", d.unit);
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
