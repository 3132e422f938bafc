#include "dnssec/signer.hpp"

#include <algorithm>

#include "crypto/sha2.hpp"
#include "dnssec/canonical.hpp"
#include "dnssec/nsec3.hpp"

namespace dnsboot::dnssec {

ZoneKeys ZoneKeys::generate(Rng& rng) {
  return ZoneKeys{.ksk = crypto::KeyPair::generate(rng, crypto::kKskFlags),
                  .zsk = crypto::KeyPair::generate(rng, crypto::kZskFlags)};
}

dns::DnskeyRdata make_dnskey(const crypto::KeyPair& key) {
  dns::DnskeyRdata rd;
  rd.flags = key.flags();
  rd.protocol = 3;
  rd.algorithm = static_cast<std::uint8_t>(key.algorithm());
  rd.public_key = key.public_key();
  return rd;
}

Result<dns::DsRdata> make_ds(const dns::Name& owner,
                             const dns::DnskeyRdata& dnskey,
                             std::uint8_t digest_type) {
  Bytes input = ds_digest_input(owner, dnskey);
  dns::DsRdata ds;
  ds.key_tag = dnskey.key_tag();
  ds.algorithm = dnskey.algorithm;
  ds.digest_type = digest_type;
  switch (digest_type) {
    case 2: {
      auto digest = crypto::Sha256::digest(input);
      ds.digest.assign(digest.begin(), digest.end());
      break;
    }
    case 4: {
      auto digest = crypto::Sha384::digest(input);
      ds.digest.assign(digest.begin(), digest.end());
      break;
    }
    default:
      return Error{"dnssec.unsupported_digest",
                   "DS digest type " + std::to_string(digest_type)};
  }
  return ds;
}

Result<ChildSyncRecords> make_child_sync_records(const dns::Name& owner,
                                                 const crypto::KeyPair& ksk) {
  ChildSyncRecords out;
  dns::DnskeyRdata dnskey = make_dnskey(ksk);
  DNSBOOT_TRY(sha256, make_ds(owner, dnskey, 2));
  DNSBOOT_TRY(sha384, make_ds(owner, dnskey, 4));
  out.cds.push_back(std::move(sha256));
  out.cds.push_back(std::move(sha384));
  out.cdnskey.push_back(std::move(dnskey));
  return out;
}

dns::DsRdata cds_delete_sentinel() {
  return dns::DsRdata{0, 0, 0, Bytes{0}};
}

dns::DnskeyRdata cdnskey_delete_sentinel() {
  return dns::DnskeyRdata{0, 3, 0, Bytes{0}};
}

dns::ResourceRecord sign_rrset(const dns::RRset& rrset,
                               const crypto::KeyPair& key,
                               const dns::Name& signer,
                               const SigningPolicy& policy) {
  dns::RrsigRdata rrsig;
  rrsig.type_covered = rrset.type;
  rrsig.algorithm = static_cast<std::uint8_t>(key.algorithm());
  rrsig.labels = static_cast<std::uint8_t>(rrset.name.label_count());
  rrsig.original_ttl = rrset.ttl;
  rrsig.inception = policy.inception;
  rrsig.expiration = policy.expiration;
  rrsig.key_tag = make_dnskey(key).key_tag();
  rrsig.signer_name = signer;

  Bytes input = signature_input(rrset, rrsig);
  auto sig = key.sign(input);
  rrsig.signature.assign(sig.begin(), sig.end());

  dns::ResourceRecord rr;
  rr.name = rrset.name;
  rr.type = dns::RRType::kRRSIG;
  rr.klass = rrset.klass;
  rr.ttl = rrset.ttl;
  rr.rdata = std::move(rrsig);
  return rr;
}

bool is_authoritative_name(const dns::Zone& zone, const dns::Name& name) {
  // A name is occluded if a delegation point lies strictly between the apex
  // and the name (exclusive of the name itself: the cut owner's NS/DS live in
  // the parent zone, and the cut owner IS served — as a referral).
  dns::Name walk = name.parent();
  while (walk.label_count() > zone.origin().label_count()) {
    if (zone.is_delegation_point(walk)) return false;
    walk = walk.parent();
  }
  return true;
}

Status sign_zone(dns::Zone& zone, const ZoneKeys& keys,
                 const SigningPolicy& policy) {
  zone.strip_dnssec();
  zone.remove_rrset(zone.origin(), dns::RRType::kDNSKEY);

  // 1. DNSKEY RRset at the apex.
  dns::RRset dnskey_set;
  dnskey_set.name = zone.origin();
  dnskey_set.type = dns::RRType::kDNSKEY;
  dnskey_set.ttl = policy.dnskey_ttl;
  dnskey_set.rdatas.push_back(dns::Rdata{make_dnskey(keys.ksk)});
  dnskey_set.rdatas.push_back(dns::Rdata{make_dnskey(keys.zsk)});
  for (const auto& extra : keys.extra_ksks) {
    dnskey_set.rdatas.push_back(dns::Rdata{make_dnskey(extra)});
  }
  for (const auto& extra : keys.extra_zsks) {
    dnskey_set.rdatas.push_back(dns::Rdata{make_dnskey(extra)});
  }
  for (const auto& extra : keys.co_zsks) {
    dnskey_set.rdatas.push_back(dns::Rdata{make_dnskey(extra)});
  }
  for (const auto& extra : keys.extra_dnskeys) {
    dnskey_set.rdatas.push_back(dns::Rdata{extra});
  }
  DNSBOOT_CHECK(zone.add_rrset(dnskey_set));

  // 2. Denial chain: NSEC (canonically ordered, circular) or NSEC3.
  if (policy.generate_nsec && policy.denial == DenialMode::kNsec3) {
    DNSBOOT_CHECK(build_nsec3_chain(
        zone, Nsec3Params{policy.nsec3_iterations, policy.nsec3_salt},
        policy.nsec_ttl));
  }
  std::vector<dns::Name> chain_names;
  if (policy.generate_nsec && policy.denial == DenialMode::kNsec) {
    for (const auto& name : zone.names()) {
      if (is_authoritative_name(zone, name)) chain_names.push_back(name);
    }
  }
  for (std::size_t i = 0; i < chain_names.size(); ++i) {
    const dns::Name& owner = chain_names[i];
    const dns::Name& next = chain_names[(i + 1) % chain_names.size()];
    dns::TypeBitmap bitmap;
    for (const auto* set : zone.rrsets_at(owner)) bitmap.add(set->type);
    bitmap.add(dns::RRType::kNSEC);
    // Delegation points carry no RRSIG for their NS set; everything
    // authoritative is signed, so authoritative nodes get RRSIG in the map.
    if (!zone.is_delegation_point(owner)) bitmap.add(dns::RRType::kRRSIG);
    dns::ResourceRecord nsec;
    nsec.name = owner;
    nsec.type = dns::RRType::kNSEC;
    nsec.ttl = policy.nsec_ttl;
    nsec.rdata = dns::NsecRdata{next, std::move(bitmap)};
    DNSBOOT_CHECK(zone.add(nsec));
  }

  // 3. Sign every authoritative RRset. The DNSKEY RRset is signed by the KSK
  // (that is what the parent DS chains to); all else by the ZSK.
  for (const auto& set : zone.all_rrsets()) {
    if (!is_authoritative_name(zone, set.name)) continue;  // glue
    if (zone.is_delegation_point(set.name)) {
      // Parent-side data at a cut: NS is not signed; DS *is* signed.
      if (set.type != dns::RRType::kDS && set.type != dns::RRType::kNSEC) {
        continue;
      }
    }
    const crypto::KeyPair& key =
        (set.type == dns::RRType::kDNSKEY) ? keys.ksk : keys.zsk;
    DNSBOOT_CHECK(zone.add(sign_rrset(set, key, zone.origin(), policy)));
    if (set.type == dns::RRType::kDNSKEY) {
      // Rollover: every published KSK signs the DNSKEY RRset, so a DS
      // pointing at either old or new key validates the chain.
      for (const auto& extra : keys.extra_ksks) {
        DNSBOOT_CHECK(
            zone.add(sign_rrset(set, extra, zone.origin(), policy)));
      }
    } else {
      // Double-signature ZSK/algorithm rollover: the co-signing key adds a
      // second RRSIG over every data RRset the active ZSK signs.
      for (const auto& extra : keys.co_zsks) {
        DNSBOOT_CHECK(
            zone.add(sign_rrset(set, extra, zone.origin(), policy)));
      }
    }
  }
  return Status::ok_status();
}

}  // namespace dnsboot::dnssec
