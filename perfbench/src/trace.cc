#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<std::vector<Span>>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<std::vector<Span>>>();
  return *buffers;
}

struct ThreadState {
  std::shared_ptr<std::vector<Span>> spans;
  uint64_t current = 0;  // innermost open span on this thread
  uint64_t request = 0;  // its request id
};

ThreadState& State() {
  thread_local ThreadState state;
  if (state.spans == nullptr) {
    state.spans = std::make_shared<std::vector<Span>>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(state.spans);
  }
  return state;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace trace {

void Enable(bool on) { g_enabled.store(on); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> out;
  for (const auto& buffer : Buffers()) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> Millis(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& s : spans) {
    if (wanted == s.name) out.push_back(s.millis());
  }
  return out;
}

std::unordered_map<uint64_t, double> MillisByRequest(
    const std::vector<Span>& spans, const char* name) {
  std::unordered_map<uint64_t, double> out;
  const std::string wanted(name);
  for (const Span& s : spans) {
    if (wanted == s.name && s.request != 0) out[s.request] = s.millis();
  }
  return out;
}

}  // namespace trace

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!trace::Enabled()) return;
  active_ = true;
  ThreadState& state = State();
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = state.current;
  span_.request = request != 0 ? request : state.request;
  span_.name = name;
  saved_parent_ = state.current;
  saved_request_ = state.request;
  state.current = span_.id;
  state.request = span_.request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadState& state = State();
  state.current = saved_parent_;
  state.request = saved_request_;
  state.spans->push_back(span_);
}

}  // namespace perfbench
