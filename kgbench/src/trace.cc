#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace kgbench {
namespace {

struct SpanRecord {
  uint64_t id;
  uint64_t parent;
  uint64_t trace_id;
  const char* layer;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

struct ThreadBuffer {
  std::vector<SpanRecord> records;
  uint64_t open_span = 0;  // innermost open span on this thread
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_trace{1};

// Buffers outlive their threads so a run can be summarized after joins.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->records.reserve(1 << 12);
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_relaxed); }

uint64_t NewTraceId() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* layer, const char* name, uint64_t trace_id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buffer = LocalBuffer();
  active_ = true;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = buffer->open_span;
  buffer->open_span = id_;
  trace_id_ = trace_id;
  layer_ = layer;
  name_ = name;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer* buffer = LocalBuffer();
  buffer->records.push_back(SpanRecord{id_, parent_, trace_id_, layer_, name_,
                                       start_ns_, end_ns});
  buffer->open_span = parent_;
}

TraceSummary SummarizeTrace() {
  TraceSummary summary;
  // Cost of one span, measured on a separate thread whose buffer is then
  // dropped so calibration spans never reach the summary or the file.
  constexpr int kCalibrationSpans = 20000;
  ThreadBuffer* calibration = nullptr;
  std::thread calibrate([&] {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kCalibrationSpans; ++i) {
      Span span("bench", "calibrate", 0);
    }
    summary.seconds_per_span =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() /
        kCalibrationSpans;
    calibration = LocalBuffer();
  });
  calibrate.join();

  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<std::unique_ptr<ThreadBuffer>>& buffers = Buffers();
  std::erase_if(buffers, [&](const std::unique_ptr<ThreadBuffer>& b) {
    return b.get() == calibration;
  });
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& buffer : buffers) {
    for (const SpanRecord& r : buffer->records) {
      if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  for (const auto& buffer : buffers) {
    for (const SpanRecord& r : buffer->records) {
      ++summary.spans;
      const int64_t duration = r.end_ns - r.start_ns;
      auto it = child_ns.find(r.id);
      const int64_t self = duration - (it == child_ns.end() ? 0 : it->second);
      summary.self_seconds[r.layer] += static_cast<double>(self) * 1e-9;
      if (r.parent == 0) {
        summary.root_seconds += static_cast<double>(duration) * 1e-9;
      }
    }
  }
  return summary;
}

bool WriteTrace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    for (const SpanRecord& r : buffer->records) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                   "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.trace_id), r.layer,
                   r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace kgbench
