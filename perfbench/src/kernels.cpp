#include "kernels.hpp"

#include <functional>
#include <map>
#include <variant>

#include "crypto/keys.hpp"
#include "dnssec/canonical.hpp"
#include "dnssec/validator.hpp"
#include "server/auth_server.hpp"

namespace perfbench {

namespace dns = dnsboot::dns;

namespace {

// Calls per timed batch and wall budget per kernel: batches are long
// enough that the two clock reads around them cost well under 1%, and the
// budget yields dozens of batches for the slowest kernel.
constexpr std::size_t kBatch = 64;
constexpr double kBudgetMs = 150;

// Runs call(i) over items 0..n-1 cyclically in batches until the budget is
// spent and every item ran at least once; returns µs per call, the median
// over batches.
double time_per_call(std::size_t n, const std::function<void(std::size_t)>& call,
                     const std::string& name, RunResult& result) {
  Samples per_call_us;
  if (n == 0) return 0;
  const Clock::time_point started = Clock::now();
  std::size_t next = 0;
  std::size_t calls = 0;
  while (calls < n || ms_since(started) < kBudgetMs) {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      call(next);
      next = (next + 1) % n;
    }
    per_call_us.add(std::chrono::duration<double, std::micro>(Clock::now() - t)
                        .count() /
                    static_cast<double>(kBatch));
    calls += kBatch;
  }
  result.timing(name, "us", per_call_us);
  return per_call_us.summary().p50;
}

void keep_alive(std::size_t value) { asm volatile("" : : "r"(value) : "memory"); }

struct SignedItem {
  const dns::RRset* rrset;
  dns::RrsigRdata rrsig;
  dns::DnskeyRdata dnskey;
  dns::Name apex;
  dnsboot::Bytes message;  // RFC 4034 §3.1.8.1 signature input
};

// Every (RRset, RRSIG, DNSKEY) triple the world's zones carry with an
// Ed25519 key, capped so corpus construction stays cheap.
std::vector<SignedItem> signed_corpus(
    const std::vector<std::shared_ptr<const dns::Zone>>& zones,
    std::vector<dns::RRset>* storage) {
  constexpr std::size_t kMaxItems = 4000;
  std::vector<SignedItem> items;
  for (const auto& zone : zones) {
    const dns::RRset* keys = zone->find_rrset(zone->origin(), dns::RRType::kDNSKEY);
    if (keys == nullptr) continue;
    for (const dns::RRset& rrset : zone->all_rrsets()) {
      for (const dns::ResourceRecord& sig :
           zone->signatures_covering(rrset.name, rrset.type)) {
        const auto* rrsig = std::get_if<dns::RrsigRdata>(&sig.rdata);
        if (rrsig == nullptr) continue;
        for (const dns::Rdata& rdata : keys->rdatas) {
          const auto* key = std::get_if<dns::DnskeyRdata>(&rdata);
          if (key == nullptr || key->algorithm != rrsig->algorithm ||
              key->algorithm !=
                  static_cast<std::uint8_t>(dnsboot::crypto::DnssecAlgorithm::kEd25519) ||
              key->key_tag() != rrsig->key_tag) {
            continue;
          }
          storage->push_back(rrset);
          items.push_back({nullptr, *rrsig, *key, zone->origin(),
                           dnsboot::dnssec::signature_input(rrset, *rrsig)});
          break;
        }
        if (items.size() >= kMaxItems) break;
      }
      if (items.size() >= kMaxItems) break;
    }
    if (items.size() >= kMaxItems) break;
  }
  for (std::size_t i = 0; i < items.size(); ++i) items[i].rrset = &(*storage)[i];
  return items;
}

}  // namespace

ServerByAddress index_servers(const dnsboot::ecosystem::Ecosystem& eco) {
  ServerByAddress out;
  for (const auto& server : eco.servers) {
    for (const auto& address : server->addresses()) out[address] = server.get();
  }
  return out;
}

std::vector<CapturedQuery> replayable_queries(
    const std::vector<CapturedQuery>& captured, const ServerByAddress& servers) {
  std::vector<CapturedQuery> out;
  for (const CapturedQuery& q : captured) {
    if (q.tcp || servers.count(q.destination) == 0 || q.payload.size() < 12) {
      continue;
    }
    auto decoded = dns::Message::decode(q.payload);
    if (!decoded.ok() || decoded->questions.size() != 1 ||
        decoded->questions[0].type == dns::RRType::kAXFR) {
      continue;
    }
    out.push_back(q);
  }
  return out;
}

dnsboot::Bytes expected_udp_answer(dnsboot::server::AuthServer& server,
                                   const dns::Message& query) {
  const dns::Message response = server.handle(query);
  dnsboot::Bytes wire = response.encode();
  std::size_t limit = 512;
  for (const auto& rr : query.additionals) {
    if (rr.type == dns::RRType::kOPT) {
      limit = std::max<std::size_t>(512, static_cast<std::uint16_t>(rr.klass));
    }
  }
  if (wire.size() > limit) {
    dns::Message truncated = dns::Message::make_response(query);
    truncated.header.rcode = response.header.rcode;
    truncated.header.aa = response.header.aa;
    truncated.header.tc = true;
    wire = truncated.encode();
  }
  return wire;
}

void run_kernels(const dnsboot::ecosystem::Ecosystem& eco,
                 const std::vector<CapturedQuery>& queries, RunResult& result) {
  // ---- crypto + dnssec on the world's own signatures -----------------------
  std::map<std::string, std::shared_ptr<const dns::Zone>> unique_zones;
  for (const auto& server : eco.servers) {
    for (const auto& [origin, zone] : server->zones()) unique_zones.emplace(origin, zone);
  }
  std::vector<std::shared_ptr<const dns::Zone>> zones;
  for (const auto& entry : unique_zones) zones.push_back(entry.second);
  std::vector<dns::RRset> rrset_storage;
  rrset_storage.reserve(4000);
  const std::vector<SignedItem> items = signed_corpus(zones, &rrset_storage);

  std::vector<const dnsboot::crypto::KeyPair*> signing_keys;
  for (const auto& [tld, handle] : eco.registries) {
    signing_keys.push_back(&handle.keys.ksk);
    signing_keys.push_back(&handle.keys.zsk);
  }

  std::size_t sink = 0;  // folds every result so no call is optimized away
  result.layer("crypto.verify_us",
               time_per_call(items.size(),
                             [&](std::size_t i) {
                               sink += dnsboot::crypto::KeyPair::verify_with(
                                   items[i].dnskey.public_key, items[i].message,
                                   items[i].rrsig.signature);
                             },
                             "crypto.verify_us", result),
               "us");
  result.layer("crypto.sign_us",
               signing_keys.empty()
                   ? 0
                   : time_per_call(items.size(),
                                   [&](std::size_t i) {
                                     sink += signing_keys[i % signing_keys.size()]
                                                 ->sign(items[i].message)[0];
                                   },
                                   "crypto.sign_us", result),
               "us");
  result.layer("dnssec.verify_signature_us",
               time_per_call(items.size(),
                             [&](std::size_t i) {
                               sink += dnsboot::dnssec::verify_signature(
                                           *items[i].rrset, items[i].rrsig,
                                           items[i].dnskey, items[i].apex,
                                           eco.now)
                                           .valid;
                             },
                             "dnssec.verify_signature_us", result),
               "us");
  result.note("kernels.signed_rrsets", static_cast<double>(items.size()), "count");

  // ---- dns codec + server lookup on the captured query mix ---------------
  const ServerByAddress servers = index_servers(eco);
  std::vector<dns::Message> decoded;
  std::vector<dnsboot::server::AuthServer*> targets;
  std::vector<dnsboot::Bytes> wires;  // queries, then their responses
  for (const CapturedQuery& q : queries) {
    auto message = dns::Message::decode(q.payload);
    auto server = servers.find(q.destination);
    if (!message.ok() || server == servers.end()) continue;
    decoded.push_back(std::move(message.value()));
    targets.push_back(server->second);
    wires.push_back(q.payload);
  }
  std::vector<dns::Message> responses;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    responses.push_back(targets[i]->handle(decoded[i]));
    wires.push_back(responses.back().encode());
  }
  result.layer("dns.decode_us",
               time_per_call(wires.size(),
                             [&](std::size_t i) {
                               sink += dns::Message::decode(wires[i]).ok();
                             },
                             "dns.decode_us", result),
               "us");
  result.layer("dns.encode_us",
               time_per_call(responses.size(),
                             [&](std::size_t i) {
                               sink += responses[i].encode().size();
                             },
                             "dns.encode_us", result),
               "us");
  result.layer("server.handle_us",
               time_per_call(decoded.size(),
                             [&](std::size_t i) {
                               sink += targets[i]->handle(decoded[i]).answers.size();
                             },
                             "server.handle_us", result),
               "us");
  result.note("kernels.messages", static_cast<double>(wires.size()), "count");
  keep_alive(sink);
}

}  // namespace perfbench
