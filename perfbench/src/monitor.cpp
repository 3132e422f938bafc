// monitor workload: longitudinal::Monitor re-probing one world for a
// simulated day while the KASP PolicyClock rolls its keys, single-threaded,
// with a fresh journal directory per pass so every transition is appended.
// Each pass builds its world anew (the motion mutates it). The first pass
// is an untimed warm-up whose adoption report is the reference every timed
// pass, traced or not, must reproduce byte for byte.
#include <filesystem>
#include <optional>

#include "ecosystem/plan.hpp"
#include "kasp/clock.hpp"
#include "kernels.hpp"
#include "layers.hpp"
#include "longitudinal/monitor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ecosystem = dnsboot::ecosystem;
namespace net = dnsboot::net;

namespace {

// 1/1000000 of the paper's population (~310 zones) over one simulated day:
// each zone is re-probed several times and hundreds of key events re-sign
// zones and move DS records, in about two seconds per pass.
constexpr double kScaleDenom = 1000000;
constexpr net::SimTime kHorizon = net::SimTime{1} * 86400 * net::kSecond;

struct MonitorPass {
  bool traced = false;
  bool reference = false;  // the untimed first pass
  double plan_ms = 0;
  double build_ms = 0;
  double setup_s = 0;  // plan + build + policy clock, CPU time
  double run_ms = 0;   // Monitor::start through the last event, CPU time
  double run_wall_ms = 0;
  double reference_s = 0;  // the host's speed on this CPU, just after the run
  std::uint64_t probes = 0;
  std::uint64_t planned = 0;
  std::uint64_t applied = 0;
  std::uint64_t failed = 0;
  std::uint64_t transitions = 0;
  std::uint64_t batches = 0;
  std::uint64_t journal_appended = 0;
  std::uint64_t journal_mismatches = 0;
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  double net_self_ms = 0;
  double server_ms = 0;
  double client_ms = 0;
  double motion_ms = 0;
  std::string start_error;
  std::string report;
};

MonitorPass run_pass(std::uint64_t seed, const std::string& state_dir,
                     bool traced, std::vector<CapturedQuery>* capture) {
  MonitorPass pass;
  pass.traced = traced;
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  std::filesystem::create_directories(state_dir, ec);

  const Clock::time_point setup_started = Clock::now();
  const double setup_cpu_started = thread_cpu_s();
  ecosystem::EcosystemConfig config;
  config.seed = seed;
  config.scale = 1.0 / kScaleDenom;
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
  pass.plan_ms = ms_since(setup_started);
  net::SimNetwork network(seed ^ 0xd15b007);
  ecosystem::Ecosystem eco = ecosystem::build_shard(network, config, plan, 0, 1);
  pass.build_ms = ms_since(setup_started) - pass.plan_ms;

  LayerClock clock;
  std::optional<TimedTransport> server_side;
  std::optional<TimedTransport> client_side;
  std::optional<TimedTransport> motion_side;
  net::Transport* monitor_net = &network;
  net::Transport* registry_net = &network;
  if (traced) {
    server_side.emplace(network, &clock, Layer::kServer, capture);
    client_side.emplace(network, &clock, Layer::kClient);
    motion_side.emplace(network, &clock, Layer::kMotion);
    for (const auto& server : eco.servers) {
      for (const auto& address : server->addresses()) {
        server->attach(*server_side, address);
      }
    }
    monitor_net = &*client_side;
    registry_net = &*motion_side;
  }

  // The registry side of the world motion resolves from its own vantage,
  // as dnsboot-monitor sets it up.
  dnsboot::resolver::QueryEngine registry_engine(
      *registry_net, net::IpAddress::v4({192, 0, 2, 252}), {});
  dnsboot::resolver::DelegationResolver registry_resolver(registry_engine,
                                                          eco.hints);
  dnsboot::kasp::KaspOptions kasp_options;
  kasp_options.seed = seed;
  kasp_options.horizon = kHorizon;
  dnsboot::kasp::PolicyClock policy(network, registry_engine, registry_resolver,
                                    eco, kasp_options);
  pass.setup_s = thread_cpu_s() - setup_cpu_started;
  TimedMotion timed_policy(policy, &clock);

  dnsboot::longitudinal::MonitorOptions options;
  options.seed = seed;
  options.horizon = kHorizon;
  options.state_dir = state_dir;
  dnsboot::longitudinal::Monitor monitor(
      *monitor_net, eco, options,
      traced ? static_cast<dnsboot::longitudinal::WorldMotion*>(&timed_policy)
             : &policy);

  const Clock::time_point run_started = Clock::now();
  const double run_cpu_started = thread_cpu_s();
  const auto started = monitor.start();
  if (started.ok()) {
    monitor.run();
  } else {
    pass.start_error = started.error().to_string();
  }
  pass.run_ms = (thread_cpu_s() - run_cpu_started) * 1e3;
  pass.run_wall_ms = ms_since(run_started);
  pass.reference_s = reference_work_cpu_s();

  pass.probes = monitor.probes_completed();
  pass.planned = policy.planned_steps();
  pass.applied = policy.applied();
  pass.failed = policy.failed();
  pass.transitions = monitor.reporter().transitions();
  pass.batches = monitor.batches_run();
  pass.journal_appended = monitor.journal_appended();
  pass.journal_mismatches = monitor.journal_mismatches();
  pass.events = network.events_processed();
  pass.datagrams = network.datagrams_sent();
  pass.net_self_ms = clock.self_ms(Layer::kNet);
  pass.server_ms = clock.self_ms(Layer::kServer);
  pass.client_ms = clock.self_ms(Layer::kClient);
  pass.motion_ms = clock.self_ms(Layer::kMotion);
  pass.report = monitor.reporter().to_json();
  std::filesystem::remove_all(state_dir, ec);
  return pass;
}

template <typename T>
double median_of(const std::vector<const MonitorPass*>& passes,
                 T MonitorPass::*field) {
  std::vector<double> values;
  for (const MonitorPass* p : passes) values.push_back(static_cast<double>(p->*field));
  return median(values);
}

}  // namespace

RunResult run_monitor_workload(const RunConfig& run) {
  RunResult result;
  const std::string state_dir = run.work_dir + "/monitor-state";

  std::vector<MonitorPass> passes;
  passes.push_back(run_pass(run.seed, state_dir, false, nullptr));
  passes.front().reference = true;
  const std::string reference = passes.front().report;

  std::vector<CapturedQuery> captured;
  const bool rss_reset = reset_peak_rss();
  const Clock::time_point window = Clock::now();
  std::size_t timed = 0;
  while (timed < 4 || seconds_since(window) < run.seconds) {
    const bool traced = run.trace && timed % 2 == 1;
    const bool capture = traced && captured.empty();
    pin_current_thread(placed_cpu(0, static_cast<int>(timed)));
    passes.push_back(
        run_pass(run.seed, state_dir, traced, capture ? &captured : nullptr));
    ++timed;
  }
  const double peak_mib = peak_rss_mib();

  std::vector<const MonitorPass*> plain;
  std::vector<const MonitorPass*> traced;
  Samples run_ref_us;      // Monitor::start..last event, CPU clock, reference speed
  Samples run_cpu_us;      // the same as measured
  Samples run_wall_us;
  Samples setup_s;         // plan + build + clock, CPU clock, reference speed
  Samples probe_rate;      // probes per CPU-second at reference speed
  Samples reference_ms;
  for (const MonitorPass& pass : passes) {
    result.attempted += pass.planned;
    result.failed += pass.failed + (pass.planned - std::min(pass.planned, pass.applied));
    const std::string label = pass.reference ? "reference pass"
                              : pass.traced  ? "traced pass"
                                             : "untraced pass";
    result.check(pass.start_error.empty(), label + ": start failed: " + pass.start_error);
    result.check(pass.applied == pass.planned && pass.failed == 0,
                 label + ": " + std::to_string(pass.applied) + "/" +
                     std::to_string(pass.planned) + " KASP steps applied, " +
                     std::to_string(pass.failed) + " failed");
    result.check(pass.transitions > 0, label + ": no transitions");
    result.check(pass.journal_mismatches == 0, label + ": journal mismatches");
    result.check(pass.journal_appended > 0, label + ": nothing journaled");
    result.check(pass.report == reference,
                 label + ": adoption report differs from the reference pass");
    setup_s.add(at_reference_speed(pass.setup_s, pass.reference_s));
    if (pass.reference) continue;
    (pass.traced ? traced : plain).push_back(&pass);
    if (!pass.traced) {
      const double ref_s = at_reference_speed(pass.run_ms / 1e3, pass.reference_s);
      run_ref_us.add(ref_s * 1e6);
      run_cpu_us.add(pass.run_ms * 1e3);
      run_wall_us.add(pass.run_wall_ms * 1e3);
      probe_rate.add(static_cast<double>(pass.probes) / ref_s);
      reference_ms.add(pass.reference_s * 1e3);
    }
  }
  const double probes_per_ref_s = median(probe_rate.values());
  result.timing("monitor.pass_probes_per_ref_s", "probes/s", probe_rate);
  result.timing("monitor.pass_ref_us", "us", run_ref_us);
  result.timing("monitor.pass_cpu_us", "us", run_cpu_us);
  result.timing("monitor.pass_wall_us", "us", run_wall_us);
  result.timing("setup.monitor_ref_s", "s", setup_s);
  result.timing("host.reference_ms", "ms", reference_ms);

  result.e2e("rate_ref_per_s", probes_per_ref_s, "1/s");
  result.e2e("p50_ref_us", run_ref_us.summary().p50, "us");
  result.e2e("setup_s", setup_s.summary().p50, "s");
  result.e2e("peak_rss_mib", peak_mib, "MiB");
  const MonitorPass& first = passes.front();
  const double probes = static_cast<double>(first.probes);
  result.note("probes_per_ref_s", probes_per_ref_s, "probes/s");
  result.note("probes_per_cpu_s", probes / (run_cpu_us.summary().p50 / 1e6), "probes/s");
  result.note("probes_per_s", probes / (run_wall_us.summary().p50 / 1e6), "probes/s");
  result.note("probes", static_cast<double>(first.probes), "count");
  result.note("key_events", static_cast<double>(first.planned), "count");
  result.note("passes_untraced", static_cast<double>(plain.size()), "count");
  result.note("passes_traced", static_cast<double>(traced.size()), "count");
  result.note("peak_rss_since_start", rss_reset ? 0 : 1, "bool");

  if (!run.trace) return result;

  result.layer("ecosystem.plan_ms", median_of(traced, &MonitorPass::plan_ms), "ms");
  result.layer("ecosystem.build_shard_ms",
               median_of(traced, &MonitorPass::build_ms), "ms");
  result.layer("net.events", static_cast<double>(first.events), "count");
  result.layer("net.datagrams", static_cast<double>(first.datagrams), "count");
  result.layer("net.self_ms", median_of(traced, &MonitorPass::net_self_ms), "ms");
  result.layer("server.sim_ms", median_of(traced, &MonitorPass::server_ms), "ms");
  result.layer("longitudinal.handler_ms",
               median_of(traced, &MonitorPass::client_ms), "ms");
  result.layer("longitudinal.batches", static_cast<double>(first.batches), "count");
  result.layer("longitudinal.transitions", static_cast<double>(first.transitions), "count");
  result.layer("longitudinal.journal_appended",
               static_cast<double>(first.journal_appended), "count");
  result.layer("kasp.advance_ms", median_of(traced, &MonitorPass::motion_ms), "ms");
  result.layer("kasp.applied", static_cast<double>(first.applied), "count");
  const double plain_ms = median_of(plain, &MonitorPass::run_ms);
  const double traced_ms = median_of(traced, &MonitorPass::run_ms);
  result.layer("trace.overhead_ratio", traced_ms / plain_ms - 1.0, "ratio");

  ecosystem::EcosystemConfig config;
  config.seed = run.seed;
  config.scale = 1.0 / kScaleDenom;
  net::SimNetwork network(run.seed ^ 0xd15b007);
  const ecosystem::Ecosystem eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);
  run_kernels(eco, replayable_queries(captured, index_servers(eco)), result);
  return result;
}

}  // namespace perfbench
