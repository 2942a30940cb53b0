#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

// In-memory host-time spans recorded by the benchmark around its calls
// into each layer (README.md "Traced run"). Spans are kept per thread,
// merged at the end of the run, and written out as Chrome trace_event
// JSON.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host steady-clock time in nanoseconds.
int64_t NowNs();

enum class SpanKind : uint8_t {
  kGraphBuild,
  kGraphPagerank,
  kCoreCtor,
  kServingCtor,
  kCoreNext,
  kServingRun,
  kSamplingSample,
};
inline constexpr int kNumSpanKinds = 7;
const char* SpanName(SpanKind kind);

struct Span {
  uint64_t id = 0;      // unique, > 0
  uint64_t parent = 0;  // id of the span that caused this one; 0 = none
  uint64_t op = 0;      // iteration or request id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kGraphBuild;
  uint32_t tid = 0;  // recording thread, numbered from 1 (set by Record)
};

/// Per-kind totals over a span set. `covered_ns` is the part of each
/// span's interval its children cover (the union of the child intervals,
/// clipped to the parent), so self_ns == total_ns - covered_ns exactly.
struct LayerTimes {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t covered_ns = 0;
  int64_t self_ns = 0;
};
std::array<LayerTimes, kNumSpanKinds> ComputeLayerTimes(
    const std::vector<Span>& spans);

/// Process-wide span sink. Recording is off until enabled; an enabled
/// recorder appends to the calling thread's own buffer, so concurrent
/// sampler calls never contend on a lock after a thread's first span.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The Next()/Run() call in progress on the consumer thread; sampler
  /// spans started meanwhile name it as their parent.
  void set_current_parent(uint64_t id) {
    current_parent_.store(id, std::memory_order_relaxed);
  }
  uint64_t current_parent() const {
    return current_parent_.load(std::memory_order_relaxed);
  }

  void Record(Span span);

  /// Every span recorded so far, ordered by start time. Call only while
  /// no thread records.
  std::vector<Span> Collect() const;

  /// Writes `spans` as Chrome trace_event JSON; false on I/O failure.
  static bool WriteJson(const std::vector<Span>& spans,
                        const std::string& path);

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_parent_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration and collection)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Runs fn() on the calling thread and returns its host duration in ns.
/// With the recorder enabled, also records a `kind` span and publishes it
/// as the current parent while fn() runs, so sampler calls it triggers
/// become its children. Disabled, it only reads the clock twice.
template <typename Fn>
int64_t TimedCall(SpanKind kind, uint64_t op, Fn&& fn) {
  SpanRecorder& rec = SpanRecorder::Get();
  const bool on = rec.enabled();
  const uint64_t id = on ? rec.NewId() : 0;
  if (on) rec.set_current_parent(id);
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  if (on) {
    rec.set_current_parent(0);
    rec.Record(Span{id, 0, op, t0, t1, kind});
  }
  return t1 - t0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
