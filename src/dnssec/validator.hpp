// DNSSEC validation: RRSIG verification, DS↔DNSKEY chaining, NSEC denial
// proofs, and the per-zone status classification used throughout the paper's
// §4 (Unsigned / Secure / Bogus / Secure island).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/record.hpp"

namespace dnsboot::dnssec {

// An RRset together with its covering RRSIGs, as observed by the scanner.
struct SignedRRset {
  dns::RRset rrset;
  std::vector<dns::RrsigRdata> signatures;
};

struct RrsetValidation {
  bool valid = false;
  std::string reason;  // diagnostic, e.g. "rrsig.expired"

  static RrsetValidation ok() { return {true, {}}; }
  static RrsetValidation fail(std::string why) { return {false, std::move(why)}; }
};

// Memo of Ed25519 verification results, keyed by SHA-256(public key ‖
// signature ‖ signature input). The verify result is a pure function of
// those bytes, so both outcomes are cached; every RRSIG/DNSKEY check that
// depends on anything else (validity window against `now`, signer, key
// tag, ...) stays outside the memo and runs on every call. Bounded: the
// memo is cleared when it reaches `capacity` entries. Not thread-safe: one
// memo per analysis::TrustContext, used by the thread that owns it.
class SignatureMemo {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;

  explicit SignatureMemo(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  // KeyPair::verify_with(public_key, message, signature), computed at most
  // once per distinct input while the entry stays in the memo.
  bool verify(BytesView public_key, BytesView message, BytesView signature);

  std::size_t size() const { return results_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  using Digest = std::array<std::uint8_t, 32>;
  struct DigestHash {
    std::size_t operator()(const Digest& digest) const;
  };
  std::size_t capacity_;
  std::unordered_map<Digest, bool, DigestHash> results_;
};

// Verify one RRSIG over one RRset with one DNSKEY (RFC 4035 §5.3). With a
// memo, only the signature arithmetic is looked up; every other check runs.
RrsetValidation verify_signature(const dns::RRset& rrset,
                                 const dns::RrsigRdata& rrsig,
                                 const dns::DnskeyRdata& dnskey,
                                 const dns::Name& zone_apex,
                                 std::uint32_t now,
                                 SignatureMemo* memo = nullptr);

// Verify an RRset against a key set: valid iff at least one (RRSIG, DNSKEY)
// pair validates. Returns the most informative failure reason otherwise.
RrsetValidation verify_rrset(const dns::RRset& rrset,
                             const std::vector<dns::RrsigRdata>& rrsigs,
                             const std::vector<dns::DnskeyRdata>& keys,
                             const dns::Name& zone_apex, std::uint32_t now,
                             SignatureMemo* memo = nullptr);

// Does this DS RDATA commit to this DNSKEY at `owner`?
bool ds_matches_dnskey(const dns::Name& owner, const dns::DsRdata& ds,
                       const dns::DnskeyRdata& dnskey);

// Validate an apex DNSKEY RRset against the delegating DS set: some DS must
// match a SEP key in the set, and that key must sign the DNSKEY RRset.
RrsetValidation validate_dnskey_rrset(const dns::Name& apex,
                                      const SignedRRset& dnskey_rrset,
                                      const std::vector<dns::DsRdata>& ds_set,
                                      std::uint32_t now,
                                      SignatureMemo* memo = nullptr);

// --- NSEC denial proofs (RFC 4035 §5.4) -------------------------------------

// Does `nsec` (owned by `owner`) cover `name` (owner < name < next, with
// apex wrap-around)?
bool nsec_covers(const dns::Name& owner, const dns::NsecRdata& nsec,
                 const dns::Name& name);

// Do the given NSEC records prove NODATA for (name, type)?
bool nsec_proves_nodata(const std::vector<dns::ResourceRecord>& nsecs,
                        const dns::Name& name, dns::RRType type);

// Do they prove NXDOMAIN for `name`?
bool nsec_proves_nxdomain(const std::vector<dns::ResourceRecord>& nsecs,
                          const dns::Name& name);

// --- Whole-zone classification ------------------------------------------------

// The four states the paper's §4.1 reports.
enum class ZoneDnssecStatus {
  kUnsigned,      // no DNSKEY, no DS
  kSecure,        // valid chain parent → DS → DNSKEY → data
  kBogus,         // fails validation (invalid/expired sigs, orphan DS, ...)
  kSecureIsland,  // validly signed but no DS at the (secure) parent
};

std::string to_string(ZoneDnssecStatus status);

struct ZoneObservationForValidation {
  dns::Name apex;
  bool parent_secure = true;  // the TLDs in scope are signed (paper §3)
  std::vector<dns::DsRdata> parent_ds;
  std::optional<SignedRRset> dnskey;  // apex DNSKEY RRset, if any
  // Representative authoritative data (the scanner collects SOA); all must
  // validate for the zone to count as validly signed.
  std::vector<SignedRRset> data;
  std::uint32_t now = 0;
  SignatureMemo* memo = nullptr;  // optional, see SignatureMemo
};

struct ZoneClassification {
  ZoneDnssecStatus status = ZoneDnssecStatus::kUnsigned;
  std::string reason;
};

ZoneClassification classify_zone(const ZoneObservationForValidation& obs);

}  // namespace dnsboot::dnssec
