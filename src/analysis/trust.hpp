// TrustContext — offline validation of the shared infrastructure chain:
// trust anchor -> root DNSKEY -> TLD DS -> TLD DNSKEY. Built once per scan
// from the InfrastructureSnapshot; per-zone analysis then validates the
// parent-side DS RRsets against the (already validated) TLD keys.
//
// A TrustContext owns the SignatureMemo its validations share, so it is
// used by one thread at a time (each survey shard and the monitor own one).
#pragma once

#include <map>
#include <optional>

#include "dnssec/validator.hpp"
#include "scanner/observation.hpp"

namespace dnsboot::analysis {

class TrustContext {
 public:
  // Memo capacity per analysed zone. Monitor runs verify about 2.9 distinct
  // (key, signature, message) triples per zone in the first simulated day
  // and 4.2 over a week or a month of KASP re-signing (DESIGN.md §15.4), so
  // 8 keeps every zone's signatures between re-probes.
  static constexpr std::size_t kMemoEntriesPerZone = 8;

  // `zones` is how many zones will be analysed through this context, and
  // sizes its memo (at least SignatureMemo::kDefaultCapacity). Pass it when
  // the same zones are analysed again and again, as the monitor does.
  TrustContext(const scanner::InfrastructureSnapshot& snapshot,
               const std::vector<dns::DsRdata>& trust_anchor,
               std::uint32_t now, std::size_t zones = 0);

  bool root_secure() const { return root_secure_; }
  // Is the chain down to (and including) this TLD's DNSKEY valid?
  bool tld_secure(const dns::Name& tld) const;
  // The TLD's validated DNSKEYs (empty when the TLD is not secure).
  const std::vector<dns::DnskeyRdata>& tld_keys(const dns::Name& tld) const;

  // Validate a parent-side DS RRset (as captured from a referral) against
  // the parent TLD's validated keys. True only when the TLD chain is secure
  // and the DS RRset's signature verifies.
  bool validate_parent_ds(const dns::Name& parent_tld,
                          const dnssec::SignedRRset& ds);

  std::uint32_t now() const { return now_; }

  // Every validation made through this context verifies each distinct
  // signature once (see dnssec::SignatureMemo).
  dnssec::SignatureMemo* memo() { return &memo_; }

 private:
  struct TldTrust {
    bool secure = false;
    std::vector<dns::DnskeyRdata> keys;
  };

  std::map<std::string, TldTrust> tlds_;
  std::vector<dns::DnskeyRdata> root_keys_;
  bool root_secure_ = false;
  std::uint32_t now_ = 0;
  dnssec::SignatureMemo memo_;
};

// Helpers shared with the per-zone classifier.
std::vector<dns::DnskeyRdata> dnskeys_of(const dns::RRset& rrset);

}  // namespace dnsboot::analysis
