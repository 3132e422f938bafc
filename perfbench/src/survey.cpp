// survey workload: a one-shot sharded survey, assembled here from the
// program's public calls (make_ecosystem_plan, build_shard, Scanner, the
// TrustContext / analyze_zone / SurveyAggregator analysis, the shard merge
// and survey_to_json) so every stage can be timed from outside. A first
// pass through analysis::run_sharded_survey — the program's own executor —
// is the reference every timed pass must reproduce byte for byte.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "analysis/parallel.hpp"
#include "analysis/report_io.hpp"
#include "analysis/trust.hpp"
#include "ecosystem/plan.hpp"
#include "kernels.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace analysis = dnsboot::analysis;
namespace ecosystem = dnsboot::ecosystem;
namespace net = dnsboot::net;

namespace {

// 1/100000 of the paper's population: ~2.9 k zones, every pathology class
// present, about 1.5 s per pass on 2 workers.
constexpr double kScaleDenom = 100000;
constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 2;
// Set-up timings taken before each pass, so they sample the whole window.
constexpr int kPlanRepeatsPerPass = 9;

const net::LinkModel kLink{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0};

struct ShardOutput {
  analysis::SurveyRunResult result;
  double shard_ms = 0;  // build + scan + analysis, as the worker saw it
  double build_ms = 0;
  double scan_ms = 0;
  double trust_ms = 0;
  double analyze_ms = 0;
  double net_self_ms = 0;
  double server_ms = 0;
  double client_ms = 0;
  std::uint64_t events = 0;
};

struct PassOutput {
  bool traced = false;
  double wall_ms = 0;  // shards + merge + serialize
  // The same span on the CPU clock: the busiest worker's CPU time plus the
  // merge and serialization on the main thread. It is the pass's wall time
  // less what the host took away, stragglers included.
  double cpu_ms = 0;
  double total_cpu_ms = 0;  // every worker's CPU time plus the main thread's
  double reference_s = 0;   // the workers' reference work, mean
  double merge_ms = 0;
  double serialize_ms = 0;
  std::vector<ShardOutput> shards;
  analysis::SurveyRunResult merged;
  std::string json;
};

// One shard, mirroring analysis::run_survey on the shard's own world. When
// traced, the servers are re-attached through a server-side TimedTransport
// and the resolver/scanner run on a client-side one.
ShardOutput run_shard(const ecosystem::EcosystemConfig& config,
                      const ecosystem::EcosystemPlan& plan, std::size_t shard,
                      std::uint64_t net_seed, bool traced,
                      std::vector<CapturedQuery>* capture) {
  ShardOutput out;
  const Clock::time_point started = Clock::now();
  net::SimNetwork network(net_seed);
  network.set_default_link(kLink);
  ecosystem::Ecosystem eco =
      ecosystem::build_shard(network, config, plan, shard, kShards);
  out.build_ms = ms_since(started);

  LayerClock clock;
  std::optional<TimedTransport> server_side;
  std::optional<TimedTransport> client_side;
  net::Transport* client_net = &network;
  if (traced) {
    server_side.emplace(network, &clock, Layer::kServer, capture);
    client_side.emplace(network, &clock, Layer::kClient);
    for (const auto& server : eco.servers) {
      for (const auto& address : server->addresses()) {
        server->attach(*server_side, address);
      }
    }
    client_net = &*client_side;
  }

  analysis::SurveyRunOptions options;
  options.keep_reports = true;
  analysis::SurveyRunResult& result = out.result;
  const Clock::time_point scan_started = Clock::now();
  dnsboot::resolver::QueryEngine engine(
      *client_net, net::IpAddress::v4({192, 0, 2, 251}), options.engine);
  dnsboot::resolver::DelegationResolver delegation_resolver(engine, eco.hints);
  dnsboot::scanner::Scanner scanner(*client_net, engine, delegation_resolver,
                                    options.scanner);
  std::vector<dnsboot::scanner::ZoneObservation> observations;
  observations.reserve(eco.scan_targets.size());
  const net::SimTime sim_started = network.now();
  scanner.scan(eco.scan_targets, [&](dnsboot::scanner::ZoneObservation obs) {
    observations.push_back(std::move(obs));
  });
  scanner.run();
  out.scan_ms = ms_since(scan_started);

  result.simulated_duration = network.now() - sim_started;
  result.metrics->merge(engine.metrics());
  result.metrics->merge(scanner.metrics());
  result.metrics->merge(*network.metrics_registry());
  result.datagrams = network.datagrams_sent();
  result.bytes_on_wire = network.bytes_sent();
  out.events = network.events_processed();

  // Canonical (target) order, as run_survey sorts before analysis.
  std::unordered_map<std::string, std::size_t> rank;
  for (std::size_t i = 0; i < eco.scan_targets.size(); ++i) {
    rank.emplace(eco.scan_targets[i].to_text(), i);
  }
  std::stable_sort(observations.begin(), observations.end(),
                   [&rank](const auto& a, const auto& b) {
                     auto ra = rank.find(a.zone.to_text());
                     auto rb = rank.find(b.zone.to_text());
                     return (ra != rank.end() ? ra->second : SIZE_MAX) <
                            (rb != rank.end() ? rb->second : SIZE_MAX);
                   });

  Clock::time_point t = Clock::now();
  analysis::TrustContext trust(scanner.infrastructure(), eco.hints.trust_anchor,
                               eco.now);
  out.trust_ms = ms_since(t);

  t = Clock::now();
  analysis::OperatorIdentifier operators{
      std::map<std::string, std::string>(eco.ns_domain_to_operator)};
  analysis::SurveyAggregator aggregator;
  for (const auto& obs : observations) {
    analysis::ZoneReport report = analysis::analyze_zone(obs, trust, operators);
    aggregator.add(report);
    result.reports.push_back(std::move(report));
  }
  result.survey = aggregator.survey();
  result.top_by_domains = aggregator.top_by_domains(20);
  result.top_by_cds = aggregator.top_by_cds(20);
  out.analyze_ms = ms_since(t);

  out.net_self_ms = clock.self_ms(Layer::kNet);
  out.server_ms = clock.self_ms(Layer::kServer);
  out.client_ms = clock.self_ms(Layer::kClient);
  out.shard_ms = ms_since(started);
  return out;
}

PassOutput run_pass(const ecosystem::EcosystemConfig& config,
                    const ecosystem::EcosystemPlan& plan, std::uint64_t seed,
                    std::size_t index, bool traced,
                    std::vector<CapturedQuery>* capture) {
  PassOutput pass;
  pass.traced = traced;
  pass.shards.resize(kShards);
  const Clock::time_point started = Clock::now();

  // The sharded executor: workers pull shard indices, results land in
  // per-shard slots, the merge walks shards in order after the join.
  std::atomic<std::size_t> next{0};
  std::vector<double> worker_cpu_s(kThreads);
  std::vector<double> reference_s(kThreads);
  auto worker = [&](std::size_t slot) {
    pin_current_thread(placed_cpu(static_cast<int>(slot), static_cast<int>(index * kThreads)));
    const double cpu_started = thread_cpu_s();
    for (;;) {
      const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= kShards) break;
      pass.shards[shard] = run_shard(
          config, plan, shard,
          analysis::shard_network_seed(seed ^ 0xd15b007, shard, kShards),
          traced, shard == 0 ? capture : nullptr);
    }
    worker_cpu_s[slot] = thread_cpu_s() - cpu_started;
    // The host's speed on this CPU, just after the shards.
    reference_s[slot] = reference_work_cpu_s();
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < kThreads; ++i) pool.emplace_back(worker, i);
  for (std::thread& thread : pool) thread.join();

  const double main_cpu_started = thread_cpu_s();
  Clock::time_point t = Clock::now();
  analysis::SurveyRunResult& merged = pass.merged;
  for (ShardOutput& shard : pass.shards) {
    analysis::SurveyRunResult& r = shard.result;
    merged.survey += r.survey;
    merged.reports.insert(merged.reports.end(),
                          std::make_move_iterator(r.reports.begin()),
                          std::make_move_iterator(r.reports.end()));
    merged.metrics->merge(*r.metrics);
    merged.simulated_duration =
        std::max(merged.simulated_duration, r.simulated_duration);
    merged.datagrams += r.datagrams;
    merged.bytes_on_wire += r.bytes_on_wire;
    const analysis::SurveyRunResult spent = std::move(r);
  }
  merged.top_by_domains = analysis::top_rows_by_domains(merged.survey, 20);
  merged.top_by_cds = analysis::top_rows_by_cds(merged.survey, 20);
  pass.merge_ms = ms_since(t);

  t = Clock::now();
  pass.json = analysis::survey_to_json(merged);
  pass.serialize_ms = ms_since(t);
  pass.wall_ms = ms_since(started);
  const double main_cpu_s = thread_cpu_s() - main_cpu_started;
  pass.cpu_ms =
      (*std::max_element(worker_cpu_s.begin(), worker_cpu_s.end()) + main_cpu_s) * 1e3;
  pass.reference_s =
      std::accumulate(reference_s.begin(), reference_s.end(), 0.0) / kThreads;
  pass.total_cpu_ms =
      (std::accumulate(worker_cpu_s.begin(), worker_cpu_s.end(), 0.0) + main_cpu_s) * 1e3;
  return pass;
}

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    lines.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

template <typename F>
double median_of(const std::vector<const PassOutput*>& passes, F&& f) {
  std::vector<double> values;
  for (const PassOutput* p : passes) values.push_back(f(*p));
  return median(values);
}

// Median over passes of a shard field summed over the pass's shards.
template <typename T>
double median_shard_sum(const std::vector<const PassOutput*>& passes,
                        T ShardOutput::*field) {
  return median_of(passes, [field](const PassOutput& p) {
    double total = 0;
    for (const ShardOutput& s : p.shards) total += static_cast<double>(s.*field);
    return total;
  });
}

}  // namespace

RunResult run_survey_workload(const RunConfig& run) {
  RunResult result;
  ecosystem::EcosystemConfig config;
  config.seed = run.seed;
  config.scale = 1.0 / kScaleDenom;

  ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);

  // Reference: the program's own sharded executor on the same inputs.
  auto source = [&](std::size_t shard, std::uint64_t net_seed) {
    analysis::ShardWorld world;
    world.network = std::make_unique<net::SimNetwork>(net_seed);
    world.network->set_default_link(kLink);
    auto eco = std::make_shared<ecosystem::Ecosystem>(
        ecosystem::build_shard(*world.network, config, plan, shard, kShards));
    world.hints = eco->hints;
    world.targets = std::move(eco->scan_targets);
    world.ns_domain_to_operator = eco->ns_domain_to_operator;
    world.now = eco->now;
    world.keepalive = std::move(eco);
    return world;
  };
  analysis::ShardedSurveyOptions reference_options;
  reference_options.shards = kShards;
  reference_options.threads = kThreads;
  reference_options.base_network_seed = run.seed ^ 0xd15b007;
  reference_options.run.keep_reports = true;
  const analysis::ShardedSurveyResult reference =
      analysis::run_sharded_survey(source, reference_options);
  const std::string reference_json = analysis::survey_to_json(reference.merged);
  const std::vector<std::string> reference_lines =
      csv_lines(analysis::reports_to_csv(reference.merged.reports));
  const std::uint64_t zones = reference.merged.survey.total;

  // Set-up is the plan. It takes well under a millisecond, so it is timed
  // many times in the warm process, on the CPU clock, spread over the
  // window, and the median reported.
  Samples plan_ms;

  // Timed passes; a traced run alternates untraced and traced passes so the
  // tracing overhead is measured under the same conditions.
  std::vector<PassOutput> passes;
  std::vector<CapturedQuery> captured;
  const bool rss_reset = reset_peak_rss();
  const Clock::time_point window = Clock::now();
  while (passes.size() < 4 || seconds_since(window) < run.seconds) {
    const bool traced = run.trace && passes.size() % 2 == 1;
    const bool capture = traced && captured.empty();
    // The main thread (set-up, merge, serialization) takes the CPU round
    // that the pass's workers leave free.
    pin_current_thread(placed_cpu(static_cast<int>(kThreads),
                                  static_cast<int>(passes.size() * kThreads)));
    for (int i = 0; i < kPlanRepeatsPerPass; ++i) {
      const double t = thread_cpu_s();
      plan = ecosystem::make_ecosystem_plan(config);
      plan_ms.add((thread_cpu_s() - t) * 1e3);
    }
    passes.push_back(
        run_pass(config, plan, run.seed, passes.size(), traced,
                 capture ? &captured : nullptr));
    PassOutput& pass = passes.back();

    result.attempted += zones;
    const std::vector<std::string> lines =
        csv_lines(analysis::reports_to_csv(pass.merged.reports));
    std::uint64_t differing = 0;
    for (std::size_t i = 1; i < std::max(lines.size(), reference_lines.size()); ++i) {
      if (i >= lines.size() || i >= reference_lines.size() ||
          lines[i] != reference_lines[i]) {
        ++differing;
      }
    }
    const std::uint64_t zones_failed = pass.merged.scanner_stats.zones_failed;
    result.failed += differing + zones_failed;
    result.check(pass.json == reference_json,
                 std::string(traced ? "traced" : "untraced") +
                     " pass report differs from the run_sharded_survey reference");
    result.check(differing == 0, std::to_string(differing) +
                                     " zone report lines differ from the reference");
    // Only the pass's timings and counters are kept, so the peak RSS does
    // not grow with the number of passes a window holds.
    pass.merged.reports.clear();
    pass.merged.reports.shrink_to_fit();
    pass.merged.survey = analysis::Survey{};
    pass.merged.top_by_domains.clear();
    pass.merged.top_by_cds.clear();
    pass.json.clear();
    pass.json.shrink_to_fit();
  }
  const double peak_mib = peak_rss_mib();
  result.timing("setup.plan_ms", "ms", plan_ms);

  std::vector<const PassOutput*> plain;
  std::vector<const PassOutput*> traced;
  Samples shard_us;
  Samples pass_ref_us;      // critical path on the CPU clock, reference speed
  Samples pass_cpu_us;      // the same as measured
  Samples pass_wall_us;
  Samples pass_ref_rate;    // zones per CPU-second of all threads, reference speed
  Samples pass_cpu_rate;    // the same as measured
  Samples pass_wall_rate;   // zones per wall-clock second
  Samples reference_ms;
  for (const PassOutput& pass : passes) {
    (pass.traced ? traced : plain).push_back(&pass);
    if (pass.traced) continue;
    for (const ShardOutput& s : pass.shards) shard_us.add(s.shard_ms * 1e3);
    const double z = static_cast<double>(zones);
    pass_ref_us.add(at_reference_speed(pass.cpu_ms, pass.reference_s) * 1e3);
    pass_cpu_us.add(pass.cpu_ms * 1e3);
    pass_wall_us.add(pass.wall_ms * 1e3);
    pass_ref_rate.add(z / at_reference_speed(pass.total_cpu_ms / 1e3, pass.reference_s));
    pass_cpu_rate.add(z / (pass.total_cpu_ms / 1e3));
    pass_wall_rate.add(z / (pass.wall_ms / 1e3));
    reference_ms.add(pass.reference_s * 1e3);
  }
  const double zones_per_ref_s = median(pass_ref_rate.values());
  result.timing("survey.pass_zones_per_ref_s", "zones/s", pass_ref_rate);
  result.timing("survey.pass_zones_per_cpu_s", "zones/s", pass_cpu_rate);
  result.timing("survey.pass_zones_per_wall_s", "zones/s", pass_wall_rate);
  result.timing("survey.pass_ref_us", "us", pass_ref_us);
  result.timing("survey.pass_cpu_us", "us", pass_cpu_us);
  result.timing("survey.pass_wall_us", "us", pass_wall_us);
  result.timing("survey.shard_wall_us", "us", shard_us);
  result.timing("host.reference_ms", "ms", reference_ms);

  // The plan ran on every CPU in turn; it is scaled by the run's median
  // reference time.
  const double median_reference_s = median(reference_ms.values()) / 1e3;
  result.e2e("rate_ref_per_s", zones_per_ref_s, "1/s");
  result.e2e("p50_ref_us", pass_ref_us.summary().p50, "us");
  result.e2e("setup_s",
             at_reference_speed(plan_ms.summary().p50 / 1e3, median_reference_s), "s");
  result.e2e("peak_rss_mib", peak_mib, "MiB");
  result.note("zones_per_ref_s", zones_per_ref_s, "zones/s");
  result.note("zones_per_cpu_s", median(pass_cpu_rate.values()), "zones/s");
  result.note("zones_per_s", median(pass_wall_rate.values()), "zones/s");
  result.note("zones", static_cast<double>(zones), "count");
  result.note("passes_untraced", static_cast<double>(plain.size()), "count");
  result.note("passes_traced", static_cast<double>(traced.size()), "count");
  result.note("shards", kShards, "count");
  result.note("workers", kThreads, "count");
  result.note("peak_rss_since_start", rss_reset ? 0 : 1, "bool");

  if (!run.trace) return result;

  const auto counter = [](const PassOutput& p, const char* name) {
    return static_cast<double>(p.merged.metrics->counter_value(name));
  };
  result.layer("ecosystem.plan_ms", plan_ms.summary().p50, "ms");
  result.layer("ecosystem.build_shard_ms",
               median_shard_sum(traced, &ShardOutput::build_ms), "ms");
  result.layer("parallel.shard_ms.max_over_median",
               median_of(traced, [](const PassOutput& p) {
                 std::vector<double> ms;
                 for (const ShardOutput& s : p.shards) ms.push_back(s.shard_ms);
                 return *std::max_element(ms.begin(), ms.end()) / median(ms);
               }), "ratio");
  result.layer("net.events", median_shard_sum(traced, &ShardOutput::events), "count");
  result.layer("net.datagrams", median_of(traced, [](const PassOutput& p) {
                 return static_cast<double>(p.merged.datagrams);
               }), "count");
  result.layer("net.self_ms", median_shard_sum(traced, &ShardOutput::net_self_ms), "ms");
  result.layer("server.sim_ms", median_shard_sum(traced, &ShardOutput::server_ms), "ms");
  const PassOutput& any = *traced.front();
  const double sends = counter(any, "dnsboot_engine_sends");
  result.layer("resolver.sends", sends, "count");
  result.layer("resolver.retries", counter(any, "dnsboot_engine_retries"), "count");
  result.layer("resolver.timeouts", counter(any, "dnsboot_engine_timeouts"), "count");
  result.layer("resolver.useful_ratio",
               sends > 0 ? counter(any, "dnsboot_engine_responses") / sends : 0,
               "ratio");
  result.layer("scanner.scan_ms", median_shard_sum(traced, &ShardOutput::scan_ms), "ms");
  result.layer("scanner.handler_ms",
               median_shard_sum(traced, &ShardOutput::client_ms), "ms");
  result.layer("scanner.zones_complete",
               counter(any, "dnsboot_scanner_zones_complete"), "count");
  result.layer("scanner.zones_requeued",
               counter(any, "dnsboot_scanner_zones_requeued"), "count");
  result.layer("analysis.trust_ms", median_shard_sum(traced, &ShardOutput::trust_ms), "ms");
  result.layer("analysis.analyze_ms",
               median_shard_sum(traced, &ShardOutput::analyze_ms), "ms");
  result.layer("analysis.merge_ms",
               median_of(traced, [](const PassOutput& p) { return p.merge_ms; }), "ms");
  result.layer("analysis.serialize_ms",
               median_of(traced, [](const PassOutput& p) { return p.serialize_ms; }),
               "ms");
  const double plain_ms = median_of(plain, [](const PassOutput& p) { return p.cpu_ms; });
  const double traced_ms = median_of(traced, [](const PassOutput& p) { return p.cpu_ms; });
  result.layer("trace.overhead_ratio", traced_ms / plain_ms - 1.0, "ratio");

  // Kernels on shard 0's world and the queries its servers received.
  net::SimNetwork network(analysis::shard_network_seed(run.seed ^ 0xd15b007, 0, kShards));
  const ecosystem::Ecosystem eco =
      ecosystem::build_shard(network, config, plan, 0, kShards);
  run_kernels(eco, replayable_queries(captured, index_servers(eco)), result);
  return result;
}

}  // namespace perfbench
