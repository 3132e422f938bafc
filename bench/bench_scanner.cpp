// Scan-feasibility measurements (paper §3 + Appendix D) and the design
// ablations called out in DESIGN.md §4: per-NS query volume, the Cloudflare
// pool-sampling policy, and the 50 qps/NS rate limit's effect on scan time.
#include <chrono>
#include <cstdio>

#include "analysis/survey.hpp"
#include "bench_json.hpp"
#include "ecosystem/builder.hpp"
#include "scanner/targets.hpp"

namespace {

using namespace dnsboot;

struct AblationResult {
  std::uint64_t queries = 0;
  std::uint64_t datagrams = 0;
  double simulated_days = 0;
  std::uint64_t zones = 0;
  std::uint64_t endpoints_queried = 0;
  std::uint64_t endpoints_available = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
};

AblationResult run_once(double scale, bool pool_sampling, double qps,
                        bool signal_scan) {
  auto wall_start = std::chrono::steady_clock::now();
  net::SimNetwork network(99);
  network.set_default_link(
      net::LinkModel{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0});
  ecosystem::EcosystemConfig config;
  config.scale = scale;
  ecosystem::EcosystemBuilder builder(network, config);
  auto eco = builder.build();

  analysis::SurveyRunOptions options;
  options.engine.per_server_qps = qps;
  options.scanner.enable_pool_sampling = pool_sampling;
  options.scanner.scan_signal_zones = signal_scan;
  auto result = analysis::run_survey(network, eco.hints, eco.scan_targets,
                                     eco.ns_domain_to_operator, eco.now,
                                     options);
  AblationResult out;
  out.queries = result.engine_stats.queries;
  out.datagrams = result.datagrams;
  out.simulated_days =
      result.simulated_duration / (86400.0 * net::kSecond);
  out.zones = eco.scan_targets.size();
  out.endpoints_queried = result.survey.endpoints_queried;
  out.endpoints_available = result.survey.endpoints_available;
  out.events = network.events_processed();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

void add_json_run(dnsboot::bench::BenchJson& json, const char* label,
                  const AblationResult& r) {
  double wall_sec = r.wall_ms / 1000.0;
  json.begin_object()
      .add("run", label)
      .add("threads", std::uint64_t{1})
      .add("zones", r.zones)
      .add("wall_ms", r.wall_ms)
      .add("zones_per_sec", wall_sec > 0 ? r.zones / wall_sec : 0.0)
      .add("events_per_sec",
           wall_sec > 0 ? static_cast<double>(r.events) / wall_sec : 0.0)
      .add("queries", r.queries)
      .add("datagrams", r.datagrams)
      .add("simulated_days", r.simulated_days)
      .end_object();
}

void report(const char* label, const AblationResult& r) {
  std::printf("%-38s %9llu zones %10llu queries (%5.1f/zone) "
              "%7.3f sim-days  endpoints %llu/%llu\n",
              label, static_cast<unsigned long long>(r.zones),
              static_cast<unsigned long long>(r.queries),
              r.zones ? static_cast<double>(r.queries) / r.zones : 0.0,
              r.simulated_days,
              static_cast<unsigned long long>(r.endpoints_queried),
              static_cast<unsigned long long>(r.endpoints_available));
}

}  // namespace

int main() {
  std::printf("bench_scanner — §3 / App. D scan feasibility + ablations\n");
  const double scale = 1.0 / 20000;  // ablations run the survey 4x

  auto baseline = run_once(scale, true, 50.0, true);
  auto no_sampling = run_once(scale, false, 50.0, true);
  auto fast_limit = run_once(scale, true, 1000.0, true);
  auto no_signal = run_once(scale, true, 50.0, false);

  std::printf("\n== ablations (scale 1/20000) ==\n");
  report("baseline (sampling, 50qps, signals)", baseline);
  report("no Cloudflare pool sampling", no_sampling);
  report("1000 qps per NS (no rate limit)", fast_limit);
  report("no signal-zone probing", no_signal);

  std::printf("\n== paper comparisons ==\n");
  std::printf("queries per zone: measured %.1f (paper: ~20 per NS, most "
              "zones have 2 NSes => ~40/zone upper bound)\n",
              static_cast<double>(baseline.queries) / baseline.zones);
  if (no_sampling.queries > baseline.queries) {
    std::printf("pool sampling saves %.1f%% of all queries (the paper's "
                "motivation for scanning 2 of 12 Cloudflare NSes)\n",
                100.0 *
                    static_cast<double>(no_sampling.queries -
                                        baseline.queries) /
                    static_cast<double>(no_sampling.queries));
  }
  std::printf("rate limiting stretches the scan %.1fx in simulated time "
              "(paper: a month-long campaign at 50 qps/NS)\n",
              fast_limit.simulated_days > 0
                  ? baseline.simulated_days / fast_limit.simulated_days
                  : 0.0);
  std::printf("signal probing adds %.1f%% query volume (App. D: a registry "
              "needs to deep-scan only ~1.2 M of 287.6 M zones)\n",
              100.0 *
                  static_cast<double>(baseline.queries - no_signal.queries) /
                  static_cast<double>(baseline.queries));

  // --- §3 acquisition ablation: AXFR zone files vs CT-log samples ---------
  std::printf("\n== target acquisition (§3/§3.1) ==\n");
  {
    net::SimNetwork network(98);
    network.set_default_link(
        net::LinkModel{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0});
    ecosystem::EcosystemConfig config;
    config.scale = 1.0 / 50000;
    ecosystem::EcosystemBuilder builder(network, config);
    auto eco = builder.build();
    resolver::QueryEngine engine(network, net::IpAddress::v4({192, 0, 2, 243}),
                                 resolver::QueryEngineOptions{});
    resolver::DelegationResolver delegation_resolver(engine, eco.hints);
    scanner::TargetAcquirer acquirer(
        network, net::IpAddress::v4({192, 0, 2, 242}), delegation_resolver);

    for (const char* tld : {"ch.", "com."}) {
      scanner::TargetAcquisition acquisition;
      acquirer.axfr_targets(
          std::move(dns::Name::from_text(tld)).take(),
          [&](scanner::TargetAcquisition result) {
            acquisition = std::move(result);
          });
      network.run();
      if (acquisition.complete) {
        std::printf("AXFR %-5s -> %zu registrable domains in %zu messages "
                    "(%zu records)\n",
                    tld, acquisition.names.size(),
                    acquisition.transfer_messages,
                    acquisition.transfer_records);
        // CT-log sampling (§3.1: 43-80 %% coverage) is unbiased for rates.
        for (double coverage : {0.43, 0.80}) {
          auto sample = scanner::TargetAcquirer::ctlog_sample(
              acquisition.names, coverage, 5);
          std::printf("  CT-log sample at %2.0f%% coverage: %zu domains\n",
                      coverage * 100, sample.size());
        }
      } else {
        std::printf("AXFR %-5s -> %s (the paper used CZDS files for gTLDs)\n",
                    tld, acquisition.failure.c_str());
      }
    }
  }

  dnsboot::bench::BenchJson json("scanner");
  json.begin_array("runs");
  add_json_run(json, "baseline", baseline);
  add_json_run(json, "no_pool_sampling", no_sampling);
  add_json_run(json, "no_rate_limit", fast_limit);
  add_json_run(json, "no_signal_scan", no_signal);
  json.end_array();
  if (!json.write()) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }
  return 0;
}
