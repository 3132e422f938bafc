// The three benchmark workloads. Each takes the run configuration (seed,
// measuring window, traced or not) and returns its checks, counts and
// metrics; main() renders them.
#pragma once

#include "bench_util.hpp"

namespace perfbench {

RunResult run_survey_workload(const RunConfig& config);
RunResult run_monitor_workload(const RunConfig& config);
RunResult run_serve_workload(const RunConfig& config);

}  // namespace perfbench
