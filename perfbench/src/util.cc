#include "util.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

StageLog::~StageLog() {
  std::fprintf(stderr, "[stage] %-28s %8.3fs\n", name_, SecondsSince(start_));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double MedianRate(std::vector<Clock::time_point> done) {
  constexpr size_t kSlices = 10;
  std::sort(done.begin(), done.end());
  if (done.size() < 2 * kSlices) return 0.0;
  std::vector<double> rates;
  for (size_t c = 0; c < kSlices; ++c) {
    const size_t from = c * (done.size() - 1) / kSlices;
    const size_t to = (c + 1) * (done.size() - 1) / kSlices;
    const double seconds =
        std::chrono::duration<double>(done[to] - done[from]).count();
    if (seconds > 0) rates.push_back(static_cast<double>(to - from) / seconds);
  }
  return Median(rates);
}

uint64_t ResidentBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

IoCounters ReadIoCounters() {
  IoCounters out;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") out.read_bytes = value;
    if (key == "wchar:") out.written_bytes = value;
  }
  return out;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    os << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << value_unit.second << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

void Report::Log(const char* title) const {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, value_unit] : metrics_) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", name.c_str(), value_unit.first,
                 value_unit.second.c_str());
  }
}

}  // namespace perfbench
