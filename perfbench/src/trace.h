#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recorder for the traced run. Spans are recorded only by the
// benchmark, around its own calls into the program's modules; the program
// itself is not instrumented. Each span carries a name, start and end, the
// span that was open on the same thread when it began (its parent) and a
// request id shared by all spans of one request. Spans are kept in memory
// per thread and written out once, when the run ends. With tracing off a
// ScopedSpan records nothing.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

namespace trace {

void Enable(bool on);
bool Enabled();

/// Every span recorded so far, from all threads (call at quiescence).
std::vector<Span> Collect();

/// Writes `spans` as JSON lines to `path`; false on IO failure.
bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

/// Durations in milliseconds of the spans named `name`.
std::vector<double> Millis(const std::vector<Span>& spans, const char* name);

/// request id -> duration (ms) of the spans named `name`.
std::unordered_map<uint64_t, double> MillisByRequest(
    const std::vector<Span>& spans, const char* name);

}  // namespace trace

/// Records one span from construction to destruction (when tracing is on).
/// `request` 0 inherits the request id of the enclosing span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
