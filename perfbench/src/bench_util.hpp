// Shared plumbing for the benchmark workloads: wall-clock stopwatches, raw
// sample sets with percentile summaries, peak-RSS probes, the result record
// every workload fills, and its JSON rendering.
#pragma once

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

// CPU time of a thread of this process, in seconds. The kernel leaves out
// the time the hypervisor gave this vCPU to other guests (steal), so on a
// shared host it follows the work done where wall time also follows the
// neighbours. The gated timings of the survey and monitor workloads, and
// every set-up time, are taken on this clock.
double thread_cpu_s();
double thread_cpu_s(pthread_t thread);

// Thread placement. On a shared host one vCPU can run far slower than
// another for minutes (its hyperthread sibling busy with another guest), so
// the workloads turn their threads round CPUs 0-3 from one pass or slice to
// the next, and their medians do not hang on where the scheduler put them.
// Pinning is best effort and off on hosts with fewer than four CPUs.
inline constexpr int kPlacements = 4;
inline int placed_cpu(int cpu, int rotation) { return (cpu + rotation) % kPlacements; }
void pin_thread(pthread_t thread, int cpu);
inline void pin_current_thread(int cpu) { pin_thread(::pthread_self(), cpu); }

// Host speed. On a shared host the same work takes from one run to the
// next up to half as long again on the CPU clock (other guests share the
// cores' caches and hyperthreads), and that drift is slow: minutes. So the
// workloads also time one fixed piece of reference work that does not use
// the program (64-bit multiplies, an L2-sized table, a small hash map) on
// the same CPUs beside their own, and report their gated timings at the
// reference speed: a CPU time t measured while the reference took r reads
// t * kReferenceS / r. kReferenceS is about what the reference takes on
// one vCPU of a 4-vCPU Xeon VM (10-15 ms), so the figures keep their scale.
inline constexpr double kReferenceS = 0.012;
double reference_work_cpu_s();
inline double at_reference_speed(double t, double reference_s) {
  return reference_s > 0 ? t * kReferenceS / reference_s : t;
}

// Percentiles come from the raw samples (nearest rank on the sorted set),
// never from histogram buckets. The tail reported is the highest of
// p99/p95/p90/p75 that still has at least ten samples beyond it; with fewer
// than 40 samples only the median is supported and tail == median.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
  double max = 0;
};

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double percentile(double pct) const;
  Summary summary() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

double median(std::vector<double> values);

// Peak RSS of a phase: reset the kernel's high-water mark before it and
// read VmHWM after. Without /proc/self/clear_refs the peak is since process
// start, and reset_peak_rss() says so by returning false.
bool reset_peak_rss();
double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Timing {
  std::string name;
  std::string unit;
  Summary summary;
};

// What one workload run hands back to main(): the correctness verdict and
// operation counts, the contract metrics, and descriptive detail.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty == every check passed
  std::vector<Metric> end_to_end;  // untraced numbers only
  std::vector<Metric> per_layer;   // traced run
  std::vector<Metric> detail;      // workload-named figures, counts, ratios
  std::vector<Timing> timings;     // sample summaries behind the metrics

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void timing(const std::string& name, const std::string& unit,
              const Samples& samples) {
    timings.push_back({name, unit, samples.summary()});
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // working directory inside the checkout
};

std::string json_escape(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
