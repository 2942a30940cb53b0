#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGraphBuild:
      return "graph.build";
    case SpanKind::kGraphPagerank:
      return "graph.pagerank";
    case SpanKind::kCoreCtor:
      return "core.ctor";
    case SpanKind::kServingCtor:
      return "serving.ctor";
    case SpanKind::kCoreNext:
      return "core.next";
    case SpanKind::kServingRun:
      return "serving.run";
    case SpanKind::kSamplingSample:
      return "sampling.sample";
  }
  return "unknown";
}

std::array<LayerTimes, kNumSpanKinds> ComputeLayerTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::array<LayerTimes, kNumSpanKinds> out{};
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span: children that
      // overlap each other (parallel sampling) count once, and the part of
      // a child that outlives its parent (pool work still running after
      // Next() returned) is not this span's time.
      iv.clear();
      for (const Span* c : it->second) {
        int64_t lo = std::max(c->start_ns, s.start_ns);
        int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (cur_hi < lo) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    LayerTimes& lt = out[static_cast<int>(s.kind)];
    ++lt.count;
    lt.total_ns += s.end_ns - s.start_ns;
    lt.covered_ns += covered;
    lt.self_ns += s.end_ns - s.start_ns - covered;
  }
  return out;
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuffer* SpanRecorder::LocalBuffer() {
  // One recorder per process, so a plain thread-local pointer suffices;
  // the recorder owns the buffer, which outlives the thread.
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
    local = buffers_.back().get();
  }
  return local;
}

void SpanRecorder::Record(Span span) {
  ThreadBuffer* buffer = LocalBuffer();
  span.tid = buffer->tid;
  buffer->spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool SpanRecorder::WriteJson(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}",
                 i == 0 ? "" : ",", SpanName(s.kind),
                 static_cast<unsigned>(s.tid),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
