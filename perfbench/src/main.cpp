// dnsboot-perfbench — one run of one benchmark workload.
//
//   dnsboot-perfbench --workload survey|monitor|serve --seed N --seconds S
//                     --trace 0|1 --work-dir DIR
//
// Prints one JSON object on its last line: the host/build fingerprint, the
// correctness verdict with attempted/failed operation counts, the
// end-to-end metrics (from untraced measurement), the per-layer metrics
// (--trace 1 only), workload-named detail figures and the sample summaries
// (count, median, tail percentile) behind every timing. Exits 1 when a
// correctness check fails, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

// Every per-layer metric, in report order. A workload that does not
// exercise a layer reports it as 0 (e.g. kasp.* on survey, simnet on serve).
const char* const kPerLayer[][2] = {
    {"ecosystem.plan_ms", "ms"},
    {"ecosystem.build_shard_ms", "ms"},
    {"parallel.shard_ms.max_over_median", "ratio"},
    {"net.events", "count"},
    {"net.datagrams", "count"},
    {"net.self_ms", "ms"},
    {"server.sim_ms", "ms"},
    {"resolver.sends", "count"},
    {"resolver.retries", "count"},
    {"resolver.timeouts", "count"},
    {"resolver.useful_ratio", "ratio"},
    {"scanner.scan_ms", "ms"},
    {"scanner.handler_ms", "ms"},
    {"scanner.zones_complete", "count"},
    {"scanner.zones_requeued", "count"},
    {"analysis.trust_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"analysis.merge_ms", "ms"},
    {"analysis.serialize_ms", "ms"},
    {"crypto.verify_us", "us"},
    {"crypto.sign_us", "us"},
    {"dnssec.verify_signature_us", "us"},
    {"dns.decode_us", "us"},
    {"dns.encode_us", "us"},
    {"server.handle_us", "us"},
    {"net.wire.recv_batch", "count"},
    {"net.wire.send_batch", "count"},
    {"longitudinal.handler_ms", "ms"},
    {"longitudinal.batches", "count"},
    {"longitudinal.transitions", "count"},
    {"longitudinal.journal_appended", "count"},
    {"kasp.advance_ms", "ms"},
    {"kasp.applied", "count"},
    {"serve.gen_late_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

#ifdef DNSBOOT_VERIFY
constexpr bool kVerify = true;
#else
constexpr bool kVerify = false;
#endif

std::string fingerprint_json() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool flagged = build_type != "Release" || kVerify;
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_escape(cpu_model());
  out += ", \"compiler\": " + json_escape(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_escape(build_type);
  out += ", \"dnsboot_verify\": " + std::string(kVerify ? "true" : "false");
  out += ", \"flagged\": " + std::string(flagged ? "true" : "false");
  out += "}";
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_escape(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_escape(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string timings_json(const std::vector<Timing>& timings) {
  std::string out = "{";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const Summary& s = timings[i].summary;
    if (i > 0) out += ", ";
    out += json_escape(timings[i].name) + ": {\"unit\": " +
           json_escape(timings[i].unit) +
           ", \"count\": " + std::to_string(s.count) +
           ", \"p50\": " + json_number(s.p50) +
           ", \"tail\": " + json_number(s.tail) +
           ", \"tail_pct\": " + json_number(s.tail_pct) +
           ", \"max\": " + json_number(s.max) + "}";
  }
  return out + "}";
}

// Orders the per-layer metrics as kPerLayer and fills the ones the workload
// did not measure with 0.
std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& entry : kPerLayer) {
    Metric m{entry[0], 0, entry[1]};
    for (const Metric& got : measured) {
      if (got.name == m.name) m.value = got.value;
    }
    out.push_back(m);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: dnsboot-perfbench --workload survey|monitor|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0 || config.work_dir.empty()) return usage();

  RunResult result;
  if (config.workload == "survey") {
    result = run_survey_workload(config);
  } else if (config.workload == "monitor") {
    result = run_monitor_workload(config);
  } else if (config.workload == "serve") {
    result = run_serve_workload(config);
  } else {
    return usage();
  }

  // Each distinct failure once, however many passes repeated it.
  std::vector<std::string> checks;
  std::set<std::string> seen;
  for (const std::string& c : result.check_failures) {
    if (seen.insert(c).second) checks.push_back(c);
  }
  const bool correct = checks.empty();
  std::string out = "{\"workload\": " + json_escape(config.workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + json_number(config.seconds);
  out += ", \"trace\": " + std::string(config.trace ? "1" : "0");
  out += ", \"fingerprint\": " + fingerprint_json();
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"failed_ratio\": " +
         json_number(result.attempted > 0
                         ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0);
  out += ", \"check_failures\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_escape(checks[i]);
  }
  out += "]";
  out += ", \"end_to_end\": " + metrics_json(result.end_to_end);
  out += ", \"per_layer\": " +
         metrics_json(config.trace ? complete_per_layer(result.per_layer)
                                   : std::vector<Metric>{});
  out += ", \"detail\": " + metrics_json(result.detail);
  out += ", \"timings\": " + timings_json(result.timings);
  out += "}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
