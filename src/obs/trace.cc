#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace slimfast {
namespace obs {

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose, like the metric registry: spans may be recorded
  // from threads still draining during static destruction.
  static TraceRecorder* global = new TraceRecorder();
  return *global;
}

void TraceRecorder::Enable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!epoch_set_) {
    epoch_ = std::chrono::steady_clock::now();
    epoch_set_ = true;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

int TraceRecorder::TidFor(std::thread::id id) {
  // Caller holds mu_. Dense ids keep the chrome timeline rows compact
  // and stable within one trace.
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size());
  tids_.emplace(id, tid);
  return tid;
}

void TraceRecorder::RecordComplete(
    const char* name, std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  Event event;
  event.name = name;
  event.start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start - epoch_)
          .count();
  event.duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  event.tid = TidFor(std::this_thread::get_id());
  events_.push_back(std::move(event));
}

size_t TraceRecorder::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

int64_t TraceRecorder::DroppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceRecorder::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Event& event : events_) {
    if (!first) out += ',';
    first = false;
    // Span names are internal identifiers (letters, dots, digits), so
    // no JSON string escaping is needed beyond trusting the source.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
                  ",\"dur\":%" PRId64 ",\"pid\":1,\"tid\":%d}",
                  event.name.c_str(), event.start_us, event.duration_us,
                  event.tid);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = (written == json.size()) && (std::fclose(f) == 0);
  if (written != json.size()) std::fclose(f);
  return ok;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  tids_.clear();
  dropped_ = 0;
}

}  // namespace obs
}  // namespace slimfast
