#include "analysis/trust.hpp"

#include <algorithm>

#include "dnssec/validator.hpp"

namespace dnsboot::analysis {

std::vector<dns::DnskeyRdata> dnskeys_of(const dns::RRset& rrset) {
  std::vector<dns::DnskeyRdata> out;
  for (const auto& rd : rrset.rdatas) {
    if (const auto* key = std::get_if<dns::DnskeyRdata>(&rd)) {
      out.push_back(*key);
    }
  }
  return out;
}

namespace {

std::vector<dns::DsRdata> ds_of(const dns::RRset& rrset) {
  std::vector<dns::DsRdata> out;
  for (const auto& rd : rrset.rdatas) {
    if (const auto* ds = std::get_if<dns::DsRdata>(&rd)) out.push_back(*ds);
  }
  return out;
}

}  // namespace

TrustContext::TrustContext(const scanner::InfrastructureSnapshot& snapshot,
                           const std::vector<dns::DsRdata>& trust_anchor,
                           std::uint32_t now, std::size_t zones)
    : now_(now),
      memo_(std::max(dnssec::SignatureMemo::kDefaultCapacity,
                     zones * kMemoEntriesPerZone)) {
  // 1. Root DNSKEY against the configured trust anchor.
  const dns::Name root = dns::Name::root();
  dnssec::SignedRRset root_dnskey = snapshot.root_dnskey;
  auto root_validation =
      dnssec::validate_dnskey_rrset(root, root_dnskey, trust_anchor, now_,
                                    &memo_);
  root_secure_ = root_validation.valid;
  if (root_secure_) root_keys_ = dnskeys_of(root_dnskey.rrset);

  // 2. Each TLD: DS (signed by the root) then DNSKEY (chained through it).
  for (const auto& [label, info] : snapshot.tlds) {
    TldTrust trust;
    auto tld_name = dns::Name::from_text(label);
    if (root_secure_ && tld_name.ok() && !info.ds.rrset.rdatas.empty() &&
        !info.dnskey.rrset.rdatas.empty()) {
      auto ds_ok = dnssec::verify_rrset(info.ds.rrset, info.ds.signatures,
                                        root_keys_, root, now_, &memo_);
      if (ds_ok.valid) {
        auto chain = dnssec::validate_dnskey_rrset(
            tld_name.value(), info.dnskey, ds_of(info.ds.rrset), now_,
            &memo_);
        if (chain.valid) {
          trust.secure = true;
          trust.keys = dnskeys_of(info.dnskey.rrset);
        }
      }
    }
    tlds_.emplace(label, std::move(trust));
  }
}

bool TrustContext::tld_secure(const dns::Name& tld) const {
  auto it = tlds_.find(tld.canonical_text());
  return it != tlds_.end() && it->second.secure;
}

const std::vector<dns::DnskeyRdata>& TrustContext::tld_keys(
    const dns::Name& tld) const {
  static const std::vector<dns::DnskeyRdata> kEmpty;
  auto it = tlds_.find(tld.canonical_text());
  return it == tlds_.end() ? kEmpty : it->second.keys;
}

bool TrustContext::validate_parent_ds(const dns::Name& parent_tld,
                                      const dnssec::SignedRRset& ds) {
  if (!tld_secure(parent_tld)) return false;
  if (ds.rrset.rdatas.empty()) return false;
  auto v = dnssec::verify_rrset(ds.rrset, ds.signatures,
                                tld_keys(parent_tld), parent_tld, now_,
                                &memo_);
  return v.valid;
}

}  // namespace dnsboot::analysis
