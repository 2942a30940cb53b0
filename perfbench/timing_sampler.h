#ifndef PERFBENCH_TIMING_SAMPLER_H_
#define PERFBENCH_TIMING_SAMPLER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sampling/sampler.h"

namespace perfbench {

/// A Sampler that forwards to `inner` and measures every call from
/// outside: host time, call count and sampled edges, accumulated in the
/// calling thread's own slot (so the loader's pool threads never share a
/// counter), plus a `sampling.sample` span whenever the SpanRecorder is
/// enabled. The forwarded call is identical traced and untraced, so the
/// wrapped loader computes the same batches either way.
class TimingSampler : public gids::sampling::Sampler {
 public:
  explicit TimingSampler(std::unique_ptr<gids::sampling::Sampler> inner);

  std::string_view name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }

  void SampleAtInto(std::span<const gids::graph::NodeId> seeds,
                    uint64_t iteration,
                    gids::sampling::MiniBatch* out) override;

  struct Totals {
    uint64_t calls = 0;
    int64_t ns = 0;
    uint64_t edges = 0;
  };
  /// Sum over every thread's slot.
  Totals totals() const;
  void ResetTotals();

  /// Optional call-start log indexed by iteration (request id): the start
  /// time of the call for iteration i lands in (*log)[i] when i is in
  /// range. Distinct iterations write distinct elements. Null disables.
  void set_start_log(std::vector<int64_t>* log) { start_log_ = log; }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<int64_t> ns{0};
    std::atomic<uint64_t> edges{0};
  };
  static constexpr size_t kSlots = 16;

  std::unique_ptr<gids::sampling::Sampler> inner_;
  std::array<Slot, kSlots> slots_;
  std::vector<int64_t>* start_log_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SAMPLER_H_
