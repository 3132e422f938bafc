#include <algorithm>
#include <set>
#include <tuple>

#include "analysis/zone_report.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::analysis {
namespace {

using scanner::RRsetProbe;

std::vector<dns::DsRdata> ds_rdatas_of(const dns::RRset& rrset) {
  std::vector<dns::DsRdata> out;
  for (const auto& rd : rrset.rdatas) {
    if (const auto* ds = std::get_if<dns::DsRdata>(&rd)) out.push_back(*ds);
  }
  return out;
}

// Representative answer for `qtype`: prefer an endpoint that returned
// signatures (a rogue endpoint — e.g. a parked NS answering everything with
// unsigned data — must not shadow the operator's authoritative answers).
const RRsetProbe* first_answer(const std::vector<const RRsetProbe*>& probes) {
  const RRsetProbe* unsigned_answer = nullptr;
  for (const auto* probe : probes) {
    if (probe->outcome != RRsetProbe::Outcome::kAnswer) continue;
    if (!probe->rrset.signatures.empty()) return probe;
    if (unsigned_answer == nullptr) unsigned_answer = probe;
  }
  return unsigned_answer;
}

// Endpoint-consistency over one RR type: all endpoints that *answered* must
// agree on the rdatas (paper §4.2). Absence on some endpoint is tracked
// separately — a parked/mismatched NS returning NODATA does not make the
// answering NSes' data inconsistent (the copacabana case of §4.4 stays
// eligible for bootstrapping).
struct ConsistencyResult {
  bool any_answer = false;
  bool any_nodata = false;
  bool any_failure = false;
  bool consistent = true;
  const RRsetProbe* representative = nullptr;
};

ConsistencyResult check_consistency(
    const std::vector<const RRsetProbe*>& probes) {
  ConsistencyResult result;
  for (const auto* probe : probes) {
    switch (probe->outcome) {
      case RRsetProbe::Outcome::kAnswer:
        result.any_answer = true;
        if (result.representative == nullptr) {
          result.representative = probe;
        } else if (!result.representative->rrset.rrset.same_rdatas(
                       probe->rrset.rrset)) {
          result.consistent = false;
        }
        break;
      case RRsetProbe::Outcome::kNoData:
      case RRsetProbe::Outcome::kNxDomain:
        result.any_nodata = true;
        break;
      case RRsetProbe::Outcome::kError:
      case RRsetProbe::Outcome::kTimeout:
        result.any_failure = true;
        break;
    }
  }
  return result;
}

// Does this CDS/CDNSKEY rdata match one of the zone's DNSKEYs?
bool cds_matches_keys(const dns::Name& zone, const dns::Rdata& rdata,
                      const std::vector<dns::DnskeyRdata>& keys) {
  if (const auto* cds = std::get_if<dns::DsRdata>(&rdata)) {
    if (cds->is_delete_sentinel()) return true;
    for (const auto& key : keys) {
      if (dnssec::ds_matches_dnskey(zone, *cds, key)) return true;
    }
    return false;
  }
  if (const auto* cdnskey = std::get_if<dns::DnskeyRdata>(&rdata)) {
    if (cdnskey->is_delete_sentinel()) return true;
    for (const auto& key : keys) {
      if (key.public_key == cdnskey->public_key &&
          key.algorithm == cdnskey->algorithm) {
        return true;
      }
    }
    return false;
  }
  return false;
}

CdsAnalysis analyze_cds(const scanner::ZoneObservation& obs,
                        const std::vector<dns::DnskeyRdata>& zone_keys,
                        const dns::Name& zone, TrustContext& trust) {
  CdsAnalysis out;
  auto cds_probes = obs.probes_of(dns::RRType::kCDS);
  auto cdnskey_probes = obs.probes_of(dns::RRType::kCDNSKEY);

  ConsistencyResult cds = check_consistency(cds_probes);
  ConsistencyResult cdnskey = check_consistency(cdnskey_probes);

  out.query_failed = cds.any_failure || cdnskey.any_failure;
  out.present = cds.any_answer || cdnskey.any_answer;
  out.consistent = cds.consistent && cdnskey.consistent;
  if (!out.present) return out;

  // Delete sentinel and DNSKEY correspondence, over both record types.
  out.matches_dnskey = true;
  auto inspect = [&](const RRsetProbe* probe) {
    if (probe == nullptr) return;
    for (const auto& rd : probe->rrset.rrset.rdatas) {
      if (const auto* ds = std::get_if<dns::DsRdata>(&rd)) {
        if (ds->is_delete_sentinel()) out.delete_request = true;
        out.cds.push_back(*ds);
      }
      if (const auto* key = std::get_if<dns::DnskeyRdata>(&rd)) {
        if (key->is_delete_sentinel()) out.delete_request = true;
      }
      if (!cds_matches_keys(zone, rd, zone_keys)) out.matches_dnskey = false;
    }
  };
  inspect(cds.representative);
  inspect(cdnskey.representative);

  // Signature check over the CDS RRset (meaningful when the zone has keys).
  if (!zone_keys.empty()) {
    const RRsetProbe* probe =
        cds.representative != nullptr ? cds.representative
                                      : cdnskey.representative;
    if (probe != nullptr) {
      auto v = dnssec::verify_rrset(probe->rrset.rrset,
                                    probe->rrset.signatures, zone_keys, zone,
                                    trust.now(), trust.memo());
      out.rrsig_valid = v.valid;
    }
  }
  return out;
}

BootstrapEligibility derive_eligibility(const ZoneReport& report) {
  if (!report.resolved) return BootstrapEligibility::kUnresolved;
  switch (report.dnssec) {
    case dnssec::ZoneDnssecStatus::kSecure:
      return BootstrapEligibility::kAlreadySecured;
    case dnssec::ZoneDnssecStatus::kUnsigned:
      return BootstrapEligibility::kUnsignedZone;
    case dnssec::ZoneDnssecStatus::kBogus:
      return BootstrapEligibility::kInvalidDnssec;
    case dnssec::ZoneDnssecStatus::kSecureIsland:
      break;
  }
  if (!report.cds.present) return BootstrapEligibility::kIslandWithoutCds;
  if (report.cds.delete_request) return BootstrapEligibility::kIslandCdsDelete;
  if (!report.cds.matches_dnskey) {
    return BootstrapEligibility::kIslandCdsMismatch;
  }
  return BootstrapEligibility::kBootstrappable;
}

// Key-lifecycle classification (RFC 7583): what state the zone's keys are
// in, judged purely from served data. "Broken" requires a parent DS — an
// island or unsigned zone has no rollover to break; "mid" requires a secure
// chain plus evidence of a transition in flight.
KeyLifecycleState derive_key_state(const ZoneReport& report,
                                   const std::vector<dns::DnskeyRdata>& keys,
                                   const std::vector<dns::DsRdata>& parent_ds) {
  if (!report.resolved) return KeyLifecycleState::kStable;
  const bool ds_present = !parent_ds.empty();
  if (ds_present && report.dnssec != dnssec::ZoneDnssecStatus::kSecure) {
    // The parent vouches for a chain the child no longer serves: a botched
    // rollover (premature DS swap, stale RRSIGs, withdrawn DNSKEY, ...).
    return KeyLifecycleState::kBrokenRollover;
  }
  if (report.dnssec != dnssec::ZoneDnssecStatus::kSecure &&
      report.dnssec != dnssec::ZoneDnssecStatus::kSecureIsland) {
    return KeyLifecycleState::kStable;
  }

  // Multiple keys of one role, or multiple DNSKEY algorithms: a
  // pre-publication / double-signature roll in progress.
  std::size_t sep_keys = 0;
  std::size_t zone_keys = 0;
  std::set<std::uint8_t> algorithms;
  for (const auto& key : keys) {
    if ((key.flags & 0x0001) != 0) {
      ++sep_keys;
    } else {
      ++zone_keys;
    }
    algorithms.insert(key.algorithm);
  }
  if (sep_keys > 1 || zone_keys > 1 || algorithms.size() > 1) {
    return KeyLifecycleState::kMidRollover;
  }

  // Double DS at the parent: the KSK roll's overlap window.
  std::set<std::uint16_t> ds_tags;
  for (const auto& ds : parent_ds) ds_tags.insert(ds.key_tag);
  if (ds_tags.size() > 1) return KeyLifecycleState::kMidRollover;

  // CDS announcing a DS set that differs from the one the parent serves:
  // RFC 7344 maintenance pending (only meaningful when a DS exists).
  if (ds_present && report.cds.present && !report.cds.delete_request &&
      !report.cds.cds.empty()) {
    auto key_of = [](const dns::DsRdata& ds) {
      return std::make_tuple(ds.key_tag, ds.algorithm, ds.digest_type,
                             ds.digest);
    };
    std::set<decltype(key_of(parent_ds[0]))> served, announced;
    for (const auto& ds : parent_ds) served.insert(key_of(ds));
    for (const auto& ds : report.cds.cds) announced.insert(key_of(ds));
    if (served != announced) return KeyLifecycleState::kMidRollover;
  }
  return KeyLifecycleState::kStable;
}

// --- signal-zone checks (§4.4) ------------------------------------------------

bool signal_has_answer(const scanner::SignalObservation& signal) {
  for (const auto& probe : signal.cds_probes) {
    if (probe.outcome == RRsetProbe::Outcome::kAnswer) return true;
  }
  for (const auto& probe : signal.cdnskey_probes) {
    if (probe.outcome == RRsetProbe::Outcome::kAnswer) return true;
  }
  return false;
}

// Validate one signaling zone: chain from its TLD down to the CDS RRset at
// the signaling name.
bool signal_chain_valid(const scanner::SignalObservation& signal,
                        TrustContext& trust) {
  // DS for the signaling zone at its parent, authenticated via the TLD keys.
  if (!trust.validate_parent_ds(signal.parent, signal.parent_ds)) return false;
  // Signaling-zone apex DNSKEY chained through that DS.
  const RRsetProbe* dnskey_probe = nullptr;
  for (const auto& probe : signal.dnskey_probes) {
    if (probe.outcome == RRsetProbe::Outcome::kAnswer) {
      dnskey_probe = &probe;
      break;
    }
  }
  if (dnskey_probe == nullptr) return false;
  auto chain = dnssec::validate_dnskey_rrset(
      signal.signaling_zone, dnskey_probe->rrset,
      ds_rdatas_of(signal.parent_ds.rrset), trust.now(), trust.memo());
  if (!chain.valid) return false;
  // Every answered signal CDS/CDNSKEY RRset must carry a valid signature.
  auto keys = dnskeys_of(dnskey_probe->rrset.rrset);
  for (const auto* probes :
       {&signal.cds_probes, &signal.cdnskey_probes}) {
    for (const auto& probe : *probes) {
      if (probe.outcome != RRsetProbe::Outcome::kAnswer) continue;
      auto v = dnssec::verify_rrset(probe.rrset.rrset, probe.rrset.signatures,
                                    keys, signal.signaling_zone, trust.now(),
                                    trust.memo());
      if (!v.valid) return false;
    }
  }
  return true;
}

// Do the signal CDS rdatas match the in-zone CDS set?
bool signal_matches_zone(const scanner::SignalObservation& signal,
                         const std::vector<dns::DsRdata>& zone_cds) {
  for (const auto& probe : signal.cds_probes) {
    if (probe.outcome != RRsetProbe::Outcome::kAnswer) continue;
    auto signal_cds = ds_rdatas_of(probe.rrset.rrset);
    if (signal_cds.size() != zone_cds.size()) return false;
    auto key = [](const dns::DsRdata& ds) {
      return std::make_tuple(ds.key_tag, ds.algorithm, ds.digest_type,
                             ds.digest);
    };
    std::vector<decltype(key(zone_cds[0]))> a, b;
    for (const auto& ds : signal_cds) a.push_back(key(ds));
    for (const auto& ds : zone_cds) b.push_back(key(ds));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

}  // namespace

std::string to_string(BootstrapEligibility eligibility) {
  switch (eligibility) {
    case BootstrapEligibility::kUnresolved: return "unresolved";
    case BootstrapEligibility::kAlreadySecured: return "already-secured";
    case BootstrapEligibility::kUnsignedZone: return "unsigned";
    case BootstrapEligibility::kInvalidDnssec: return "invalid-dnssec";
    case BootstrapEligibility::kIslandWithoutCds: return "island-without-cds";
    case BootstrapEligibility::kIslandCdsDelete: return "island-cds-delete";
    case BootstrapEligibility::kIslandCdsMismatch: return "island-cds-mismatch";
    case BootstrapEligibility::kBootstrappable: return "bootstrappable";
  }
  return "?";
}

std::string to_string(ScanQuality quality) {
  switch (quality) {
    case ScanQuality::kComplete: return "complete";
    case ScanQuality::kDegraded: return "degraded";
    case ScanQuality::kNotObserved: return "not-observed";
    case ScanQuality::kUnreachable: return "unreachable";
  }
  return "?";
}

std::string to_string(KeyLifecycleState state) {
  switch (state) {
    case KeyLifecycleState::kStable: return "stable";
    case KeyLifecycleState::kMidRollover: return "mid-rollover";
    case KeyLifecycleState::kBrokenRollover: return "broken-rollover";
  }
  return "?";
}

std::string to_string(AbStatus status) {
  switch (status) {
    case AbStatus::kNoSignal: return "no-signal";
    case AbStatus::kAlreadySecured: return "already-secured";
    case AbStatus::kCannotDeleteRequest: return "deletion-request";
    case AbStatus::kCannotInvalidDnssec: return "invalid-dnssec";
    case AbStatus::kSignalIncorrect: return "signal-incorrect";
    case AbStatus::kSignalCorrect: return "signal-correct";
  }
  return "?";
}

ZoneReport analyze_zone(const scanner::ZoneObservation& obs,
                        TrustContext& trust,
                        const OperatorIdentifier& operators) {
  ZoneReport report;
  report.zone = obs.zone;
  report.tld = obs.tld;
  report.resolved = obs.resolved;
  report.endpoints_queried = obs.endpoints.size();
  report.endpoints_available = obs.endpoints_before_sampling;
  report.pool_sampled = obs.pool_sampled;
  report.failed_probes = obs.failed_probes;
  report.transient_failures = obs.transient_failures;
  report.scan_attempt = obs.scan_attempt;
  report.under_attack = obs.probes_under_attack > 0;
  if (obs.resolved) {
    report.scan_quality =
        obs.completeness == scanner::ZoneObservation::Completeness::kComplete
            ? ScanQuality::kComplete
            : ScanQuality::kDegraded;
  } else {
    // A transiently-failed resolution means the scan could not observe the
    // zone; a permanent one means the operator's delegation is broken.
    report.scan_quality = scanner::is_transient_failure(obs.failure)
                              ? ScanQuality::kNotObserved
                              : ScanQuality::kUnreachable;
  }
  if (!obs.resolved) {
    report.operator_name = kUnknownOperator;
    return report;
  }

  // Operator identification over the union of parent and child NS sets.
  {
    std::vector<dns::Name> ns_union = obs.parent_ns;
    for (const auto* probe : obs.probes_of(dns::RRType::kNS)) {
      if (probe->outcome != RRsetProbe::Outcome::kAnswer) continue;
      for (const auto& rd : probe->rrset.rrset.rdatas) {
        ns_union.push_back(std::get<dns::NsRdata>(rd).nsdname);
      }
    }
    report.operators = operators.identify_all(ns_union);
    report.operator_name =
        report.operators.empty() ? kUnknownOperator : report.operators[0];
    std::size_t known = 0;
    for (const auto& name : report.operators) {
      if (name != kUnknownOperator) ++known;
    }
    report.multi_operator = known > 1;
  }

  // DNSSEC classification (§4.1).
  dnssec::ZoneObservationForValidation validation;
  validation.apex = obs.zone;
  validation.now = trust.now();
  validation.memo = trust.memo();
  validation.parent_secure = trust.tld_secure(obs.tld);
  report.parent_ds_authentic =
      trust.validate_parent_ds(obs.tld, obs.parent_ds);
  if (report.parent_ds_authentic) {
    validation.parent_ds = ds_rdatas_of(obs.parent_ds.rrset);
  }
  std::vector<dns::DnskeyRdata> zone_keys;
  if (const RRsetProbe* dnskey =
          first_answer(obs.probes_of(dns::RRType::kDNSKEY))) {
    validation.dnskey = dnskey->rrset;
    zone_keys = dnskeys_of(dnskey->rrset.rrset);
  }
  if (const RRsetProbe* soa = first_answer(obs.probes_of(dns::RRType::kSOA))) {
    if (validation.dnskey.has_value()) {
      validation.data.push_back(soa->rrset);
    }
  }
  auto classification = dnssec::classify_zone(validation);
  report.dnssec = classification.status;
  report.dnssec_reason = classification.reason;

  // CDS analysis (§4.2).
  report.cds = analyze_cds(obs, zone_keys, obs.zone, trust);

  // Figure 1 funnel position.
  report.eligibility = derive_eligibility(report);

  // Key-lifecycle state (RFC 7583 provenance).
  report.key_state =
      derive_key_state(report, zone_keys, ds_rdatas_of(obs.parent_ds.rrset));

  // Signal-zone analysis (§4.4).
  for (const auto& signal : obs.signals) {
    if (signal_has_answer(signal)) {
      report.signal_present = true;
      break;
    }
  }
  if (!report.signal_present) {
    report.ab = AbStatus::kNoSignal;
    return report;
  }

  if (report.dnssec == dnssec::ZoneDnssecStatus::kSecure) {
    report.ab = AbStatus::kAlreadySecured;
    return report;
  }
  if (report.cds.delete_request) {
    report.ab = AbStatus::kCannotDeleteRequest;
    return report;
  }
  if (report.dnssec == dnssec::ZoneDnssecStatus::kUnsigned ||
      report.dnssec == dnssec::ZoneDnssecStatus::kBogus ||
      !report.cds.consistent || !report.cds.matches_dnskey ||
      (report.cds.present && !report.cds.rrsig_valid)) {
    report.ab = AbStatus::kCannotInvalidDnssec;
    return report;
  }

  // The zone is a secure island with valid in-zone CDS: check the signaling
  // trees themselves (RFC 9615 requirements).
  SignalViolations& violations = report.signal_violations;
  for (const auto& signal : obs.signals) {
    // Zone cuts along the signaling path disqualify AB even when the
    // signaling tree is otherwise empty (the parked-typo case of §4.4).
    if (!signal.apparent_cuts.empty()) violations.zone_cut = true;
    const bool has_answer = signal_has_answer(signal);
    if (!has_answer) {
      // Some NS lacks the signaling records entirely.
      violations.not_under_every_ns = true;
      continue;
    }
    // Within one signaling zone, every endpoint must agree.
    ConsistencyResult consistency;
    {
      std::vector<const RRsetProbe*> probes;
      for (const auto& probe : signal.cds_probes) probes.push_back(&probe);
      consistency = check_consistency(probes);
    }
    if (!consistency.consistent) violations.inconsistent = true;
    if (!signal_chain_valid(signal, trust)) violations.chain_invalid = true;
    if (!signal_matches_zone(signal, report.cds.cds)) {
      violations.mismatch_with_zone = true;
    }
  }
  report.ab = violations.any() ? AbStatus::kSignalIncorrect
                               : AbStatus::kSignalCorrect;
  return report;
}

}  // namespace dnsboot::analysis
