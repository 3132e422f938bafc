#include "longitudinal/monitor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dnsboot::longitudinal {

namespace {

std::string format_tag_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

}  // namespace

Monitor::Monitor(net::Transport& network, ecosystem::Ecosystem& eco,
                 MonitorOptions options, WorldMotion* motion)
    : network_(network),
      eco_(eco),
      options_(std::move(options)),
      motion_(motion),
      rng_(options_.seed),
      engine_(network, net::IpAddress::v4({192, 0, 2, 251}), {}),
      resolver_(engine_, eco_.hints),
      operators_(std::map<std::string, std::string>(eco_.ns_domain_to_operator)),
      scheduler_(options_.cadence, options_.seed) {
  // The world tag binds a journal to the run that produced it: same seed,
  // same population, same horizon/stability knobs — anything else and the
  // re-simulated transition stream could not match the recovered bytes.
  std::uint64_t population = 0xcbf29ce484222325ull;
  for (const auto& zone : eco_.scan_targets) {
    population ^= fnv1a(zone.canonical_text());
    population *= 0x100000001b3ull;
  }
  char pop_hex[24];
  std::snprintf(pop_hex, sizeof pop_hex, "%016" PRIx64, population);
  world_tag_ = "seed=" + format_tag_u64(options_.seed) +
               " zones=" + format_tag_u64(eco_.scan_targets.size()) +
               " pop=" + pop_hex +
               " horizon=" + format_tag_u64(options_.horizon) +
               " stable=" + format_tag_u64(options_.stable_probes);
  if (motion_ != nullptr) {
    // The motion determines the transition stream, so it is part of the
    // world identity: a journal recorded under one motion must refuse to
    // replay under another.
    world_tag_ += " motion=" + std::string(motion_->motion_name());
  }

  metrics_.set_help("dnsboot_monitor_probes_total",
                    "zone probes folded into the history store");
  metrics_.set_help("dnsboot_monitor_batches_total",
                    "re-probe batches scanned");
  metrics_.set_help("dnsboot_monitor_journal_appended_total",
                    "transitions appended (acknowledged) to the journal");
  metrics_.set_help("dnsboot_monitor_journal_replayed_total",
                    "regenerated transitions verified against the recovered "
                    "journal instead of re-appended");
  metrics_.set_help("dnsboot_monitor_snapshot_write_errors_total",
                    "periodic snapshot writes that failed");
  // Pre-create everything the run-time paths touch (registry contract:
  // name-map mutation is constructor-only; a live scrape thread may snapshot
  // while the atomics update).
  (void)metrics_.counter("dnsboot_monitor_probes_total");
  (void)metrics_.counter("dnsboot_monitor_batches_total");
  (void)metrics_.counter("dnsboot_monitor_journal_appended_total");
  (void)metrics_.counter("dnsboot_monitor_journal_replayed_total");
  (void)metrics_.counter("dnsboot_monitor_journal_mismatch_total");
  (void)metrics_.counter("dnsboot_monitor_journal_write_errors_total");
  (void)metrics_.counter("dnsboot_monitor_snapshot_write_errors_total");
  (void)metrics_.counter("dnsboot_monitor_snapshots_total");
  (void)metrics_.gauge("dnsboot_monitor_zones_tracked");
  (void)metrics_.gauge("dnsboot_monitor_zones_retired");
  (void)metrics_.gauge("dnsboot_monitor_history_arena_bytes");
  for (int i = 0; i < kZonePhaseCount; ++i) {
    (void)metrics_.gauge("dnsboot_monitor_phase_" +
                         to_string(static_cast<ZonePhase>(i)));
  }
}

Status Monitor::start() {
  if (!options_.state_dir.empty()) {
    const std::string journal_path = options_.state_dir + "/journal.log";
    auto recovered = Journal::recover(journal_path);
    if (!recovered.ok()) return recovered.error();
    if (recovered->existed && recovered->world_tag != world_tag_) {
      return Error{"monitor.world_tag",
                   "journal belongs to a different world: '" +
                       recovered->world_tag + "' vs '" + world_tag_ + "'"};
    }
    recovered_lines_ = std::move(recovered->lines);
    auto journal = Journal::open(journal_path, world_tag_);
    if (!journal.ok()) return journal.error();
    journal_.emplace(std::move(journal).take());
  }

  if (motion_ != nullptr) arm_world_motion(network_, *motion_);

  for (const auto& zone : eco_.scan_targets) {
    schedule_zone(zone,
                  scheduler_.initial_offset(zone, options_.initial_spread) + 1);
  }
  metrics_.gauge("dnsboot_monitor_zones_tracked")
      .set(static_cast<double>(eco_.scan_targets.size()));
  arm_snapshot_timer();
  return Status::ok_status();
}

void Monitor::schedule_zone(const dns::Name& zone, net::SimTime delay) {
  if (network_.now() + delay >= options_.horizon) {
    ++zones_retired_;
    metrics_.gauge("dnsboot_monitor_zones_retired")
        .set(static_cast<double>(zones_retired_));
    return;
  }
  network_.schedule(delay, [this, zone]() { zone_due(zone); });
}

void Monitor::zone_due(const dns::Name& zone) {
  pending_.push_back(zone);
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  network_.schedule(options_.batch_window, [this]() { flush_batch(); });
}

void Monitor::flush_batch() {
  flush_scheduled_ = false;
  if (pending_.empty()) return;

  auto batch = std::make_shared<Batch>();
  batch->seq = ++batch_seq_;
  batch->zones = std::move(pending_);
  pending_.clear();
  std::sort(batch->zones.begin(), batch->zones.end());
  batch->zones.erase(std::unique(batch->zones.begin(), batch->zones.end()),
                     batch->zones.end());

  scanner::ScannerOptions scan_options = options_.scanner;
  scan_options.seed =
      rng_.fork("batch:" + format_tag_u64(batch->seq)).next_u64();
  scan_options.infrastructure = have_infra_ ? &infra_ : nullptr;
  batch->scanner = std::make_unique<scanner::Scanner>(network_, engine_,
                                                      resolver_, scan_options);
  batch->observations.reserve(batch->zones.size());
  active_batches_.emplace(batch->seq, batch);

  const std::uint64_t seq = batch->seq;
  const std::size_t expected = batch->zones.size();
  batch->scanner->scan(batch->zones, [this, seq,
                                      expected](scanner::ZoneObservation obs) {
    auto it = active_batches_.find(seq);
    if (it == active_batches_.end()) return;
    it->second->observations.push_back(std::move(obs));
    if (it->second->observations.size() == expected) {
      // Defer: the Scanner is still on the stack inside this delivery
      // callback; destroying it here would free its queues under it.
      network_.schedule(0, [this, seq]() { finish_batch(seq); });
    }
  });
}

void Monitor::finish_batch(std::uint64_t seq) {
  auto it = active_batches_.find(seq);
  if (it == active_batches_.end()) return;
  std::shared_ptr<Batch> batch = std::move(it->second);
  active_batches_.erase(it);

  // Adopt the batch's infrastructure (superset of ours: newly seen TLDs
  // were captured on demand) for the next batch's hand-off.
  infra_ = batch->scanner->infrastructure();
  have_infra_ = true;
  batch->scanner.reset();
  if (!trust_.has_value() || infra_.tlds.size() != trust_tld_count_) {
    trust_.emplace(infra_, eco_.hints.trust_anchor, eco_.now);
    trust_tld_count_ = infra_.tlds.size();
  }

  // Observations complete in network-timing order; canonical zone order
  // makes the fold (and therefore seq assignment) deterministic.
  std::sort(batch->observations.begin(), batch->observations.end(),
            [](const scanner::ZoneObservation& a,
               const scanner::ZoneObservation& b) { return a.zone < b.zone; });

  for (const auto& obs : batch->observations) {
    fold_observation(obs, *trust_);
  }

  ++batches_run_;
  metrics_.counter("dnsboot_monitor_batches_total").add(1);
  refresh_gauges();
}

void Monitor::fold_observation(const scanner::ZoneObservation& obs,
                               const analysis::TrustContext& trust) {
  analysis::ZoneReport report = analysis::analyze_zone(obs, trust, operators_);
  const ProbeFinding finding = reduce_report(report, obs);
  HistoryStore::ProbeOutcome outcome = history_.record_probe(
      obs.zone, network_.now(), finding, options_.stable_probes);
  ++probes_completed_;
  metrics_.counter("dnsboot_monitor_probes_total").add(1);
  if (outcome.transition.has_value()) handle_transition(*outcome.transition);

  const ZoneHistory* history = history_.find(obs.zone);
  if (history != nullptr) {
    schedule_zone(obs.zone, scheduler_.next_interval(obs.zone, *history));
  }
}

void Monitor::handle_transition(const Transition& transition) {
  if (transition.seq <= recovered_lines_.size()) {
    // Replayed region: the re-simulated transition must reproduce the
    // recovered journal byte-for-byte; a mismatch means the world diverged
    // (wrong seed/flags) and is surfaced, never silently re-appended.
    if (Journal::encode(transition) == recovered_lines_[transition.seq - 1]) {
      ++journal_replayed_;
      metrics_.counter("dnsboot_monitor_journal_replayed_total").add(1);
    } else {
      ++journal_mismatches_;
      metrics_.counter("dnsboot_monitor_journal_mismatch_total").add(1);
    }
  } else if (journal_.has_value()) {
    if (journal_->append(transition).ok()) {
      ++journal_appended_;
      metrics_.counter("dnsboot_monitor_journal_appended_total").add(1);
    } else {
      metrics_.counter("dnsboot_monitor_journal_write_errors_total").add(1);
    }
  }
  reporter_.on_transition(transition);
}

void Monitor::arm_snapshot_timer() {
  if (options_.snapshot_every == 0 || options_.state_dir.empty()) return;
  if (network_.now() + options_.snapshot_every >= options_.horizon) return;
  network_.schedule(options_.snapshot_every, [this]() {
    // A failed periodic snapshot is not fatal (the journal alone recovers
    // the run), but it must be visible: it is counted, like journal write
    // errors.
    if (!write_snapshot().ok()) {
      metrics_.counter("dnsboot_monitor_snapshot_write_errors_total").add(1);
    }
    arm_snapshot_timer();
  });
}

std::string Monitor::snapshot_path() const {
  return options_.state_dir.empty() ? std::string{}
                                    : options_.state_dir + "/snapshot.dnsboot";
}

Status Monitor::write_snapshot() {
  if (options_.state_dir.empty()) {
    return Error{"monitor.snapshot", "no state directory configured"};
  }
  SnapshotMeta meta;
  meta.world_tag = world_tag_;
  meta.seq = history_.next_seq() - 1;
  meta.at = network_.now();
  DNSBOOT_CHECK(write_snapshot_file(snapshot_path(), meta, history_));
  ++snapshots_written_;
  metrics_.counter("dnsboot_monitor_snapshots_total").add(1);
  return Status::ok_status();
}

void Monitor::refresh_gauges() {
  const auto counts = history_.phase_counts();
  for (int i = 0; i < kZonePhaseCount; ++i) {
    metrics_
        .gauge("dnsboot_monitor_phase_" + to_string(static_cast<ZonePhase>(i)))
        .set(static_cast<double>(counts[i]));
  }
  metrics_.gauge("dnsboot_monitor_history_arena_bytes")
      .set(static_cast<double>(history_.arena_bytes()));
}

}  // namespace dnsboot::longitudinal
