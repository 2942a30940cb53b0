#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark program: command-line arguments, seed
// derivation, the metric bag each workload fills, and small statistics
// helpers. See README.md for the metric definitions.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
};

/// Independent per-generator seed: every generator (dataset, sampler,
/// seed iterator, traffic, faults, mutations) derives its seed from the
/// benchmark's --seed through its own tag, so one argument fixes them all.
uint64_t DeriveSeed(uint64_t seed, const char* tag);

/// What one workload run produced. `metrics` holds every value the run
/// computed, by canonical name (main.cc selects the end-to-end or the
/// per-layer set for printing); `errors` lists failed output checks.
struct RunOutcome {
  uint64_t attempted = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Order-sensitive 64-bit fingerprint of virtual-clock outputs. Two runs
/// of one seed must produce the same value, traced or not.
class Fingerprint {
 public:
  void Mix(uint64_t v);
  template <typename Range>
  void MixAll(const Range& values) {
    Mix(values.size());
    for (auto v : values) Mix(static_cast<uint64_t>(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Set-up is repeated and its median reported: at least three times, and
/// until the repetitions add up to a second (at most 1000 times), so a
/// set-up of a few milliseconds still gets a steady median.
bool WantAnotherSetup(const std::vector<double>& setup_s);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
