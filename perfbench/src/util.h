#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Small measurement helpers shared by the workloads: clocks, order
// statistics, process counters read from /proc, file sizes, and the result
// line the benchmark prints last.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Logs the wall time of one benchmark stage to stderr when it ends.
class StageLog {
 public:
  explicit StageLog(const char* name) : name_(name), start_(Clock::now()) {}
  ~StageLog();
  StageLog(const StageLog&) = delete;
  StageLog& operator=(const StageLog&) = delete;

 private:
  const char* name_;
  Clock::time_point start_;
};

/// Linear-interpolated quantile `q` in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
/// Smallest / largest of `values`; 0 when empty.
double Min(const std::vector<double>& values);
double Max(const std::vector<double>& values);

/// Completions per second, as the median over ten consecutive slices of
/// the completion times (each slice's count over the time it took), so a
/// stretch of the run slowed by something outside the benchmark moves the
/// figure less than a whole-run average would. 0 with too few samples.
double MedianRate(std::vector<Clock::time_point> done);

/// Resident set size of this process, in bytes (VmRSS).
uint64_t ResidentBytes();

/// Bytes this process moved through read()/write() so far (/proc/self/io
/// rchar and wchar). Memory-mapped file reads are not included.
struct IoCounters {
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
};
IoCounters ReadIoCounters();

/// Size of a regular file, 0 if absent.
uint64_t FileBytes(const std::string& path);
/// Total size of the regular files directly under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// The metrics of one run, printed as the benchmark's last stdout line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// Prints {"correct", "attempted", "failed", "metrics"} as one JSON line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;
  /// Human-readable listing on stderr.
  void Log(const char* title) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
