#include "dnssec/validator.hpp"

#include <cstring>

#include "crypto/keys.hpp"
#include "crypto/sha2.hpp"
#include "dnssec/canonical.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::dnssec {

std::size_t SignatureMemo::DigestHash::operator()(const Digest& digest) const {
  std::size_t hash = 0;
  std::memcpy(&hash, digest.data(), sizeof(hash));
  return hash;
}

bool SignatureMemo::verify(BytesView public_key, BytesView message,
                           BytesView signature) {
  // The size checks keep the concatenated key unambiguous.
  if (public_key.size() != crypto::kEd25519PublicKeySize ||
      signature.size() != crypto::kEd25519SignatureSize) {
    return false;
  }
  crypto::Sha256 sha;
  sha.update(public_key);
  sha.update(signature);
  sha.update(message);
  const Digest digest = sha.finish();
  if (auto it = results_.find(digest); it != results_.end()) return it->second;
  if (results_.size() >= capacity_) results_.clear();
  const bool valid =
      crypto::KeyPair::verify_with(public_key, message, signature);
  results_.emplace(digest, valid);
  return valid;
}

RrsetValidation verify_signature(const dns::RRset& rrset,
                                 const dns::RrsigRdata& rrsig,
                                 const dns::DnskeyRdata& dnskey,
                                 const dns::Name& zone_apex,
                                 std::uint32_t now, SignatureMemo* memo) {
  if (rrsig.type_covered != rrset.type) {
    return RrsetValidation::fail("rrsig.wrong_type_covered");
  }
  if (rrsig.signer_name != zone_apex) {
    return RrsetValidation::fail("rrsig.wrong_signer");
  }
  if (!rrset.name.is_under(zone_apex)) {
    return RrsetValidation::fail("rrsig.owner_outside_zone");
  }
  if (rrsig.labels != rrset.name.label_count()) {
    // No wildcard support in the simulated ecosystem; a mismatch is an error.
    return RrsetValidation::fail("rrsig.label_count_mismatch");
  }
  if (now < rrsig.inception) {
    return RrsetValidation::fail("rrsig.not_yet_valid");
  }
  if (now > rrsig.expiration) {
    return RrsetValidation::fail("rrsig.expired");
  }
  if (!dnskey.is_zone_key() || dnskey.protocol != 3) {
    return RrsetValidation::fail("dnskey.not_zone_key");
  }
  if (dnskey.algorithm != rrsig.algorithm) {
    return RrsetValidation::fail("rrsig.algorithm_mismatch");
  }
  if (dnskey.key_tag() != rrsig.key_tag) {
    return RrsetValidation::fail("rrsig.key_tag_mismatch");
  }
  if (dnskey.algorithm !=
      static_cast<std::uint8_t>(crypto::DnssecAlgorithm::kEd25519)) {
    return RrsetValidation::fail("rrsig.unsupported_algorithm");
  }
  Bytes input = signature_input(rrset, rrsig);
  const bool verified =
      memo != nullptr
          ? memo->verify(dnskey.public_key, input, rrsig.signature)
          : crypto::KeyPair::verify_with(dnskey.public_key, input,
                                         rrsig.signature);
  if (!verified) {
    return RrsetValidation::fail("rrsig.bad_signature");
  }
  return RrsetValidation::ok();
}

RrsetValidation verify_rrset(const dns::RRset& rrset,
                             const std::vector<dns::RrsigRdata>& rrsigs,
                             const std::vector<dns::DnskeyRdata>& keys,
                             const dns::Name& zone_apex, std::uint32_t now,
                             SignatureMemo* memo) {
  if (rrsigs.empty()) return RrsetValidation::fail("rrsig.missing");
  if (keys.empty()) return RrsetValidation::fail("dnskey.missing");
  RrsetValidation last = RrsetValidation::fail("rrsig.no_matching_key");
  for (const auto& rrsig : rrsigs) {
    for (const auto& key : keys) {
      RrsetValidation v =
          verify_signature(rrset, rrsig, key, zone_apex, now, memo);
      if (v.valid) return v;
      last = v;
    }
  }
  return last;
}

bool ds_matches_dnskey(const dns::Name& owner, const dns::DsRdata& ds,
                       const dns::DnskeyRdata& dnskey) {
  if (ds.key_tag != dnskey.key_tag()) return false;
  if (ds.algorithm != dnskey.algorithm) return false;
  auto expected = make_ds(owner, dnskey, ds.digest_type);
  if (!expected.ok()) return false;  // unsupported digest type
  return expected->digest == ds.digest;
}

RrsetValidation validate_dnskey_rrset(const dns::Name& apex,
                                      const SignedRRset& dnskey_rrset,
                                      const std::vector<dns::DsRdata>& ds_set,
                                      std::uint32_t now, SignatureMemo* memo) {
  if (dnskey_rrset.rrset.rdatas.empty()) {
    return RrsetValidation::fail("dnskey.missing");
  }
  if (ds_set.empty()) return RrsetValidation::fail("ds.missing");

  // Find a DS that commits to a key in the set, then require that key to
  // sign the DNSKEY RRset (RFC 4035 §5.2).
  RrsetValidation last = RrsetValidation::fail("ds.no_matching_dnskey");
  for (const auto& ds : ds_set) {
    for (const auto& rd : dnskey_rrset.rrset.rdatas) {
      const auto* key = std::get_if<dns::DnskeyRdata>(&rd);
      if (key == nullptr) continue;
      if (!ds_matches_dnskey(apex, ds, *key)) continue;
      RrsetValidation v = verify_rrset(dnskey_rrset.rrset,
                                       dnskey_rrset.signatures, {*key}, apex,
                                       now, memo);
      if (v.valid) return v;
      last = v;
    }
  }
  return last;
}

bool nsec_covers(const dns::Name& owner, const dns::NsecRdata& nsec,
                 const dns::Name& name) {
  const dns::Name& next = nsec.next_domain;
  if (owner < next) {
    return owner < name && name < next;
  }
  // Chain wrap-around: owner is the canonically last name.
  return owner < name || name < next;
}

bool nsec_proves_nodata(const std::vector<dns::ResourceRecord>& nsecs,
                        const dns::Name& name, dns::RRType type) {
  for (const auto& rr : nsecs) {
    if (rr.type != dns::RRType::kNSEC || rr.name != name) continue;
    const auto& nsec = std::get<dns::NsecRdata>(rr.rdata);
    if (!nsec.types.contains(type) &&
        !nsec.types.contains(dns::RRType::kCNAME)) {
      return true;
    }
  }
  return false;
}

bool nsec_proves_nxdomain(const std::vector<dns::ResourceRecord>& nsecs,
                          const dns::Name& name) {
  // Need one NSEC covering the name itself. (A full resolver also checks a
  // covering NSEC for the wildcard *.closest-encloser; the simulated
  // ecosystem has no wildcards, so the single cover suffices.)
  for (const auto& rr : nsecs) {
    if (rr.type != dns::RRType::kNSEC) continue;
    const auto& nsec = std::get<dns::NsecRdata>(rr.rdata);
    if (nsec_covers(rr.name, nsec, name)) return true;
  }
  return false;
}

std::string to_string(ZoneDnssecStatus status) {
  switch (status) {
    case ZoneDnssecStatus::kUnsigned: return "unsigned";
    case ZoneDnssecStatus::kSecure: return "secure";
    case ZoneDnssecStatus::kBogus: return "bogus";
    case ZoneDnssecStatus::kSecureIsland: return "secure-island";
  }
  return "?";
}

ZoneClassification classify_zone(const ZoneObservationForValidation& obs) {
  const bool has_dnskey =
      obs.dnskey.has_value() && !obs.dnskey->rrset.rdatas.empty();
  const bool has_ds = !obs.parent_ds.empty();

  if (!has_dnskey) {
    if (has_ds) {
      // Errant DS with no keys below: validating resolvers see Bogus
      // (the Table 1 "Invalid" column for no-DNSSEC operators).
      return {ZoneDnssecStatus::kBogus, "ds.orphaned_no_dnskey"};
    }
    return {ZoneDnssecStatus::kUnsigned, ""};
  }

  // Zone is signed in some form. Self-validate the data with the DNSKEYs.
  std::vector<dns::DnskeyRdata> keys;
  for (const auto& rd : obs.dnskey->rrset.rdatas) {
    if (const auto* key = std::get_if<dns::DnskeyRdata>(&rd)) {
      keys.push_back(*key);
    }
  }
  RrsetValidation self = verify_rrset(obs.dnskey->rrset,
                                      obs.dnskey->signatures, keys, obs.apex,
                                      obs.now, obs.memo);
  if (!self.valid) {
    return {ZoneDnssecStatus::kBogus, "dnskey." + self.reason};
  }
  for (const auto& signed_set : obs.data) {
    RrsetValidation v = verify_rrset(signed_set.rrset, signed_set.signatures,
                                     keys, obs.apex, obs.now, obs.memo);
    if (!v.valid) {
      return {ZoneDnssecStatus::kBogus, "data." + v.reason};
    }
  }

  if (!has_ds) {
    // Validly signed, no DS above: the paper's secure island. Resolvers
    // treat it as insecure (RFC 4035 §5.2), so it is not Bogus.
    return {ZoneDnssecStatus::kSecureIsland, ""};
  }
  if (!obs.parent_secure) {
    // Cannot build a chain through an insecure parent; out of scope for the
    // paper (all studied TLDs are signed) but handled for completeness.
    return {ZoneDnssecStatus::kSecureIsland, "parent.insecure"};
  }
  RrsetValidation chained = validate_dnskey_rrset(
      obs.apex, *obs.dnskey, obs.parent_ds, obs.now, obs.memo);
  if (!chained.valid) {
    return {ZoneDnssecStatus::kBogus, "chain." + chained.reason};
  }
  return {ZoneDnssecStatus::kSecure, ""};
}

}  // namespace dnsboot::dnssec
