// ZoneReport — the per-zone result of the paper's full analysis pipeline:
// DNSSEC status (§4.1), CDS deployment and correctness (§4.2), bootstrap
// eligibility (§4.3, Figure 1), and RFC 9615 signal-zone status (§4.4,
// Table 3).
#pragma once

#include <string>
#include <vector>

#include "analysis/operator_id.hpp"
#include "analysis/trust.hpp"
#include "dnssec/validator.hpp"
#include "scanner/observation.hpp"

namespace dnsboot::analysis {

// In-zone CDS/CDNSKEY analysis (§4.2).
struct CdsAnalysis {
  bool query_failed = false;   // some NS FORMERR'd / timed out on CDS queries
  bool present = false;        // some NS served CDS or CDNSKEY
  bool consistent = true;      // every responding NS agrees (incl. presence)
  bool delete_request = false; // RFC 8078 delete sentinel present
  bool matches_dnskey = true;  // every non-delete CDS corresponds to a DNSKEY
  bool rrsig_valid = false;    // signatures over the CDS RRset verify
  // Representative CDS set (first answering endpoint).
  std::vector<dns::DsRdata> cds;
};

// Scan-side quality of the underlying observation — keeps "the operator
// misconfigured this" separate from "the scan could not observe this"
// (chaos worlds; paper §3's completeness discussion).
enum class ScanQuality {
  kComplete,     // every probe answered
  kDegraded,     // resolved, but some probes failed (provenance on each)
  kNotObserved,  // transient scan-side failure — retrying might have worked
  kUnreachable,  // permanent failure: lame or missing delegation
};

std::string to_string(ScanQuality quality);

// Where the zone lands in the Figure 1 funnel.
enum class BootstrapEligibility {
  kUnresolved,
  kAlreadySecured,      // signed + DS: rollovers only
  kUnsignedZone,        // no DNSSEC at all
  kInvalidDnssec,       // fails validation
  kIslandWithoutCds,
  kIslandCdsDelete,
  kIslandCdsMismatch,   // CDS matches no DNSKEY
  kBootstrappable,      // secure island with valid in-zone CDS
};

std::string to_string(BootstrapEligibility eligibility);

// Signal-zone (RFC 9615) status — the Table 3 row structure.
enum class AbStatus {
  kNoSignal,
  kAlreadySecured,
  kCannotDeleteRequest,
  kCannotInvalidDnssec,  // zone unsigned/bogus, or in-zone CDS broken
  kSignalIncorrect,
  kSignalCorrect,
};

std::string to_string(AbStatus status);

// Where the zone's keys stand in their RFC 7583 lifecycle, derived from the
// same observation the rest of the report comes from. A clean steady-state
// zone is kStable; a zone caught between rollover phases (successor key
// pre-published, double DS, CDS announcing a pending change, mixed DNSKEY
// algorithms) is kMidRollover; a zone whose parent serves a DS that the
// child's served data no longer validates under is kBrokenRollover.
enum class KeyLifecycleState {
  kStable,
  kMidRollover,
  kBrokenRollover,
};

std::string to_string(KeyLifecycleState state);

// Why a signal was judged incorrect (§4.4's violation taxonomy).
struct SignalViolations {
  bool zone_cut = false;             // signaling name crosses an extra cut
  bool not_under_every_ns = false;   // some NS lacks the signaling RRs
  bool chain_invalid = false;        // signaling zone fails DNSSEC validation
  bool inconsistent = false;         // signaling NSes disagree
  bool mismatch_with_zone = false;   // signal CDS != in-zone CDS

  bool any() const {
    return zone_cut || not_under_every_ns || chain_invalid || inconsistent ||
           mismatch_with_zone;
  }
};

struct ZoneReport {
  dns::Name zone;
  dns::Name tld;
  bool resolved = false;

  // Operator identification (§3).
  std::vector<std::string> operators;
  std::string operator_name;  // primary (first identified)
  bool multi_operator = false;

  dnssec::ZoneDnssecStatus dnssec = dnssec::ZoneDnssecStatus::kUnsigned;
  std::string dnssec_reason;
  bool parent_ds_authentic = false;  // DS RRset signature chain valid

  CdsAnalysis cds;
  BootstrapEligibility eligibility = BootstrapEligibility::kUnresolved;

  bool signal_present = false;  // any signaling CDS observed
  AbStatus ab = AbStatus::kNoSignal;
  SignalViolations signal_violations;

  // Scan-cost accounting (App. D).
  std::size_t endpoints_queried = 0;
  std::size_t endpoints_available = 0;
  bool pool_sampled = false;

  // Scan-robustness accounting (per-probe failure provenance rollup).
  ScanQuality scan_quality = ScanQuality::kUnreachable;
  std::size_t failed_probes = 0;
  std::size_t transient_failures = 0;
  int scan_attempt = 1;  // which scan pass produced the observation
  // Any probe completed while the engine's anti-spoofing defenses had the
  // endpoint flagged as under active attack. Provenance only: the answers
  // themselves still passed the ID/port/tuple checks.
  bool under_attack = false;

  // Key-lifecycle provenance (like under_attack: carried on every report,
  // rolled up by the survey, emitted as a trailing strippable CSV column).
  KeyLifecycleState key_state = KeyLifecycleState::kStable;
};

// Run the complete analysis for one observation.
ZoneReport analyze_zone(const scanner::ZoneObservation& observation,
                        TrustContext& trust,
                        const OperatorIdentifier& operators);

}  // namespace dnsboot::analysis
