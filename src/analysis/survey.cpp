#include "analysis/survey.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "analysis/trust.hpp"

namespace dnsboot::analysis {

SurveyRunResult run_survey(
    net::Transport& network, const resolver::RootHints& hints,
    const std::vector<dns::Name>& targets,
    const std::map<std::string, std::string>& ns_domain_to_operator,
    std::uint32_t now, const SurveyRunOptions& options) {
  SurveyRunResult result;

  // Scan phase: collect raw observations.
  net::IpAddress scanner_address = net::IpAddress::v4({192, 0, 2, 251});
  resolver::QueryEngineOptions engine_options = options.engine;
  if (engine_options.tracer == nullptr) engine_options.tracer = options.tracer;
  scanner::ScannerOptions scanner_options = options.scanner;
  if (scanner_options.tracer == nullptr) {
    scanner_options.tracer = options.tracer;
  }
  resolver::QueryEngine engine(network, scanner_address, engine_options);
  resolver::DelegationResolver delegation_resolver(engine, hints);
  scanner::Scanner scanner(network, engine, delegation_resolver,
                           scanner_options);

  std::vector<scanner::ZoneObservation> observations;
  observations.reserve(targets.size());
  net::SimTime started = network.now();
  scanner.scan(targets, [&](scanner::ZoneObservation obs) {
    observations.push_back(std::move(obs));
  });
  scanner.run();

  result.simulated_duration = network.now() - started;
  // Fold every component's registry into the run's: the result's stats
  // views are bound to result.metrics, so merging (rather than assigning
  // views, which would dangle once the components die) is what populates
  // them. Distinct name prefixes (engine/scanner/net/wire) keep the merge
  // collision-free.
  result.metrics->merge(engine.metrics());
  result.metrics->merge(scanner.metrics());
  if (const obs::MetricsRegistry* net_metrics = network.metrics_registry()) {
    result.metrics->merge(*net_metrics);
  }
  result.datagrams = network.datagrams_sent();
  result.bytes_on_wire = network.bytes_sent();

  if (options.tracer != nullptr) {
    obs::TraceSpan span;
    span.kind = "phase";
    span.name = "scan";
    span.start_usec = started;
    span.end_usec = network.now();
    span.attempts = targets.size();
    span.status = "ok";
    options.tracer->record(std::move(span));
  }

  // Canonical observation order: observations complete in network-timing
  // order, which differs between the simulator and real sockets (and, over
  // the wire, between runs). Re-sorting into target order makes the report
  // a pure function of the observations themselves, so a wire survey is
  // byte-identical to the simulated one for the same seed. Each observation
  // is looked up once; sorting (rank, arrival index) pairs is a stable sort
  // by rank.
  std::unordered_map<std::string, std::size_t> target_rank;
  target_rank.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    target_rank.emplace(targets[i].to_text(), i);
  }
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    auto it = target_rank.find(observations[i].zone.to_text());
    order.emplace_back(it != target_rank.end() ? it->second : SIZE_MAX, i);
  }
  std::sort(order.begin(), order.end());

  // Analysis phase: validate + classify offline, as the paper does from its
  // stored DNS messages.
  const net::SimTime analysis_started = network.now();
  TrustContext trust(scanner.infrastructure(), hints.trust_anchor, now);
  OperatorIdentifier operators{
      std::map<std::string, std::string>(ns_domain_to_operator)};
  SurveyAggregator aggregator;
  for (const auto& [rank, i] : order) {
    ZoneReport report = analyze_zone(observations[i], trust, operators);
    aggregator.add(report);
    if (options.keep_reports) result.reports.push_back(std::move(report));
  }
  result.survey = aggregator.survey();
  result.top_by_domains = aggregator.top_by_domains(20);
  result.top_by_cds = aggregator.top_by_cds(20);
  if (options.tracer != nullptr) {
    obs::TraceSpan span;
    span.kind = "phase";
    span.name = "analysis";
    span.start_usec = analysis_started;
    span.end_usec = network.now();
    span.attempts = observations.size();
    span.status = "ok";
    options.tracer->record(std::move(span));
  }
  return result;
}

}  // namespace dnsboot::analysis
