#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and would
  // report the launching Python process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t stream) {
  // splitmix64 finalizer over a combination of the three counters.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL +
                    stream * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t seed, std::uint64_t index, std::uint64_t stream) {
  return static_cast<double>(mix(seed, index, stream) >> 11) * 0x1.0p-53;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({name, ns(Clock::now()), 0, open_.empty() ? -1 : open_.back(), request});
  open_.push_back(index);
  return index;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    out << "{\"id\":" << k << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
}

}  // namespace perfbench
