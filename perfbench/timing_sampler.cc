#include "timing_sampler.h"

#include <utility>

#include "span_trace.h"

namespace perfbench {
namespace {

// Small dense per-thread index; threads beyond kSlots share slots, which
// the atomic adds keep correct.
size_t ThreadSlotIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

TimingSampler::TimingSampler(std::unique_ptr<gids::sampling::Sampler> inner)
    : inner_(std::move(inner)) {}

void TimingSampler::SampleAtInto(std::span<const gids::graph::NodeId> seeds,
                                 uint64_t iteration,
                                 gids::sampling::MiniBatch* out) {
  SpanRecorder& rec = SpanRecorder::Get();
  const uint64_t parent = rec.current_parent();
  const int64_t t0 = NowNs();
  inner_->SampleAtInto(seeds, iteration, out);
  const int64_t t1 = NowNs();

  Slot& slot = slots_[ThreadSlotIndex() % kSlots];
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  slot.edges.fetch_add(out->total_edges(), std::memory_order_relaxed);
  if (start_log_ != nullptr && iteration < start_log_->size()) {
    (*start_log_)[iteration] = t0;
  }
  if (rec.enabled()) {
    rec.Record(Span{rec.NewId(), parent, iteration, t0, t1,
                    SpanKind::kSamplingSample});
  }
}

TimingSampler::Totals TimingSampler::totals() const {
  Totals t;
  for (const Slot& s : slots_) {
    t.calls += s.calls.load(std::memory_order_relaxed);
    t.ns += s.ns.load(std::memory_order_relaxed);
    t.edges += s.edges.load(std::memory_order_relaxed);
  }
  return t;
}

void TimingSampler::ResetTotals() {
  for (Slot& s : slots_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.ns.store(0, std::memory_order_relaxed);
    s.edges.store(0, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
