// measurement_study — a miniature end-to-end reproduction of the paper:
// build the calibrated synthetic Internet at 1/100000 scale, run the YoDNS-
// style scan, and print the study's key findings. The full-size version of
// every table and figure is bench/bench_paper.
#include <cstdio>

#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "ecosystem/builder.hpp"

using namespace dnsboot;

int main() {
  net::SimNetwork network(2025);
  network.set_default_link(
      net::LinkModel{5 * net::kMillisecond, 2 * net::kMillisecond, 0.001});

  ecosystem::EcosystemConfig config;
  config.scale = 1.0 / 100000;
  ecosystem::EcosystemBuilder builder(network, config);
  auto eco = builder.build();
  std::printf("measurement_study — scanning %zu synthetic zones "
              "(1/100000 of the paper's 287.6 M)\n\n",
              eco.scan_targets.size());

  auto result = analysis::run_survey(network, eco.hints, eco.scan_targets,
                                     eco.ns_domain_to_operator, eco.now);
  const analysis::Survey& s = result.survey;
  double total = static_cast<double>(s.total - s.unresolved);

  std::printf("== DNSSEC deployment (§4.1) ==\n");
  std::printf("  unsigned:       %7s  (%s%%)   paper: 93.2%%\n",
              format_count(s.unsigned_zones).c_str(),
              format_percent(s.unsigned_zones / total).c_str());
  std::printf("  secured:        %7s  (%s%%)    paper:  5.5%%\n",
              format_count(s.secured).c_str(),
              format_percent(s.secured / total).c_str());
  std::printf("  invalid:        %7s  (%s%%)    paper:  0.2%%\n",
              format_count(s.invalid).c_str(),
              format_percent(s.invalid / total).c_str());
  std::printf("  secure islands: %7s  (%s%%)    paper:  1.1%%\n\n",
              format_count(s.islands).c_str(),
              format_percent(s.islands / total).c_str());

  std::printf("== CDS deployment (§4.2) ==\n");
  std::printf("  zones with CDS:        %6s (%s%%)  paper: 3.7%%\n",
              format_count(s.with_cds).c_str(),
              format_percent(s.with_cds / total).c_str());
  std::printf("  NSes failing CDS query: %5s (%s%%)  paper: 2.6%%\n\n",
              format_count(s.cds_query_failed).c_str(),
              format_percent(s.cds_query_failed / total).c_str());

  std::printf("== Authenticated bootstrapping (§4.3/§4.4) ==\n");
  std::printf("  zones with signal RRs:  %s\n",
              format_count(s.ab_total.with_signal).c_str());
  std::printf("  already secured:        %s\n",
              format_count(s.ab_total.already_secured).c_str());
  std::printf("  cannot be bootstrapped: %s\n",
              format_count(s.ab_total.cannot_bootstrap).c_str());
  std::printf("  potential to bootstrap: %s\n",
              format_count(s.ab_total.potential).c_str());
  std::printf("  signal zone correct:    %s\n",
              format_count(s.ab_total.signal_correct).c_str());
  if (s.ab_total.potential > 0) {
    std::printf("  correctness rate:       %s%%   paper: 99.9%%\n",
                format_percent(static_cast<double>(s.ab_total.signal_correct) /
                               static_cast<double>(s.ab_total.potential))
                    .c_str());
  }
  std::printf("\n  AB-publishing operators found:");
  for (const auto& [name, column] : s.ab_by_operator) {
    if (column.with_signal > 0) std::printf(" %s", name.c_str());
  }

  std::printf("\n\n== scan cost (App. D) ==\n");
  std::printf("  queries: %s (%.1f per zone), retries: %s, timeouts: %s\n",
              format_count(result.engine_stats.queries).c_str(),
              static_cast<double>(result.engine_stats.queries) / total,
              format_count(result.engine_stats.retries).c_str(),
              format_count(result.engine_stats.timeouts).c_str());
  std::printf("  simulated scan time at 50 qps/NS: %.2f days\n",
              result.simulated_duration / (86400.0 * net::kSecond));
  return 0;
}
