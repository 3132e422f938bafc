// google-benchmark micro-suite for the protocol substrate: wire codecs,
// canonical forms, signing, validation, server lookup. These are the inner
// loops whose cost determines how large a simulated population the table
// benches can afford.
#include <benchmark/benchmark.h>

#include "base/rng.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha2.hpp"
#include "dns/message.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/signer.hpp"
#include "dnssec/validator.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace dnsboot;

dns::Name name_of(const char* text) {
  return std::move(dns::Name::from_text(text)).take();
}

dns::Message sample_response() {
  dns::Message q = dns::Message::make_query(1, name_of("www.example.com."),
                                            dns::RRType::kA);
  dns::Message r = dns::Message::make_response(q);
  r.header.aa = true;
  for (int i = 0; i < 4; ++i) {
    dns::ResourceRecord rr;
    rr.name = name_of("www.example.com.");
    rr.type = dns::RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata{{192, 0, 2, static_cast<std::uint8_t>(i)}};
    r.answers.push_back(rr);
  }
  dns::ResourceRecord sig;
  sig.name = name_of("www.example.com.");
  sig.type = dns::RRType::kRRSIG;
  sig.ttl = 300;
  dns::RrsigRdata rrsig;
  rrsig.type_covered = dns::RRType::kA;
  rrsig.algorithm = 15;
  rrsig.labels = 3;
  rrsig.signer_name = name_of("example.com.");
  rrsig.signature = Bytes(64, 0x42);
  sig.rdata = rrsig;
  r.answers.push_back(sig);
  return r;
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    auto n = dns::Name::from_text("_dsboot.example.co.uk._signal.ns1.example.net");
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCanonicalCompare(benchmark::State& state) {
  auto a = name_of("aaa.zzz.example.com.");
  auto b = name_of("aab.zzz.example.com.");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a <=> b);
  }
}
BENCHMARK(BM_NameCanonicalCompare);

void BM_MessageEncode(benchmark::State& state) {
  dns::Message r = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.encode());
  }
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  Bytes wire = sample_response().encode();
  for (auto _ : state) {
    auto m = dns::Message::decode(wire);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MessageDecode);

void BM_Sha256_1k(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1k);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(2);
  auto key = crypto::KeyPair::generate(rng, crypto::kZskFlags);
  Bytes msg = rng.bytes(300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Rng rng(3);
  auto key = crypto::KeyPair::generate(rng, crypto::kZskFlags);
  Bytes msg = rng.bytes(300);
  auto sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.verify(msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

dns::Zone make_zone(int hosts) {
  dns::Zone zone(name_of("example.com."));
  std::string text = "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
                     "@ IN NS ns1\n@ IN NS ns2\n";
  for (int i = 0; i < hosts; ++i) {
    text += "host" + std::to_string(i) + " IN A 192.0.2." +
            std::to_string(i % 250 + 1) + "\n";
  }
  auto parsed =
      dns::parse_zone(text, dns::ZoneFileOptions{zone.origin(), 3600});
  return std::move(parsed).take();
}

void BM_SignZone(benchmark::State& state) {
  Rng rng(4);
  auto keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = 1000;
  policy.expiration = 100000000;
  for (auto _ : state) {
    dns::Zone zone = make_zone(static_cast<int>(state.range(0)));
    auto status = dnssec::sign_zone(zone, keys, policy);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_SignZone)->Arg(2)->Arg(16)->Arg(64);

void BM_ValidateRRset(benchmark::State& state) {
  Rng rng(5);
  auto keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = 1000;
  policy.expiration = 100000000;
  dns::Zone zone = make_zone(2);
  (void)dnssec::sign_zone(zone, keys, policy);
  const dns::RRset* soa = zone.soa();
  std::vector<dns::RrsigRdata> sigs;
  for (const auto& rr :
       zone.signatures_covering(zone.origin(), dns::RRType::kSOA)) {
    sigs.push_back(std::get<dns::RrsigRdata>(rr.rdata));
  }
  std::vector<dns::DnskeyRdata> dnskeys = {dnssec::make_dnskey(keys.ksk),
                                           dnssec::make_dnskey(keys.zsk)};
  for (auto _ : state) {
    auto v = dnssec::verify_rrset(*soa, sigs, dnskeys, zone.origin(), 5000);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ValidateRRset);

void BM_ServerHandleQuery(benchmark::State& state) {
  server::AuthServer auth(server::ServerConfig{.id = "bench"}, 7);
  // Serve many zones so zone_for's suffix walk is realistic.
  for (int i = 0; i < 10000; ++i) {
    auto zone = std::make_shared<dns::Zone>(
        name_of(("zone" + std::to_string(i) + ".com.").c_str()));
    (void)zone->add(dns::ResourceRecord{
        zone->origin(), dns::RRType::kA, dns::RRClass::kIN, 300,
        dns::ARdata{{10, 0, 0, 1}}});
    auth.add_zone(zone);
  }
  dns::Message query =
      dns::Message::make_query(9, name_of("zone5000.com."), dns::RRType::kA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth.handle(query));
  }
}
BENCHMARK(BM_ServerHandleQuery);

}  // namespace

BENCHMARK_MAIN();
