#include "bench_util.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t clock;
  if (::pthread_getcpuclockid(thread, &clock) != 0) return 0;
  return cpu_clock_s(clock);
}

void pin_thread(pthread_t thread, int cpu) {
  if (std::thread::hardware_concurrency() < static_cast<unsigned>(kPlacements)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(thread, sizeof(set), &set);
}

double reference_work_cpu_s() {
  static std::atomic<std::uint64_t> sink{0};
  const double started = thread_cpu_s();
  std::vector<std::uint64_t> table(1 << 15);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  const std::uint64_t mask = table.size() - 1;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * 0xd1342543de82ef95ULL;
    const std::uint64_t h = static_cast<std::uint64_t>(m >> 64) ^ static_cast<std::uint64_t>(m);
    table[h & mask] += h;
    if ((i & 15) == 0) map[h & 0xfff] += table[(h >> 20) & mask];
  }
  sink += x + table[x & mask] + map.size();
  return thread_cpu_s() - started;
}

double Samples::percentile(double pct) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

Summary Samples::summary() const {
  Summary s;
  s.count = values_.size();
  if (values_.empty()) return s;
  s.p50 = percentile(50);
  s.tail = s.p50;
  s.max = *std::max_element(values_.begin(), values_.end());
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(s.count) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      s.tail = percentile(pct);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
