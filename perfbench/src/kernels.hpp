// Per-call kernel timings of the crypto, dnssec, dns and server layers, run
// on a corpus drawn from the workload's own world (its zones, keys and
// signatures) and from the queries its servers actually received. The layer
// costs then describe the same bytes as the end-to-end run.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "ecosystem/builder.hpp"
#include "layers.hpp"

namespace perfbench {

// Server lookup by the address a captured query was sent to.
using ServerByAddress =
    std::unordered_map<dnsboot::net::IpAddress, dnsboot::server::AuthServer*,
                       dnsboot::net::IpAddressHash>;
ServerByAddress index_servers(const dnsboot::ecosystem::Ecosystem& eco);

// Keep the queries a UDP client can replay: UDP, decodable, one question,
// not a zone transfer, and addressed to a server of `servers`.
std::vector<CapturedQuery> replayable_queries(
    const std::vector<CapturedQuery>& captured, const ServerByAddress& servers);

// The datagram the serving path answers `query` with: AuthServer::handle's
// response, truncated to header+question with TC set when it exceeds the
// query's UDP limit (512, or the EDNS buffer size).
dnsboot::Bytes expected_udp_answer(dnsboot::server::AuthServer& server,
                                   const dnsboot::dns::Message& query);

// Times the kernels and appends crypto.verify_us, crypto.sign_us,
// dnssec.verify_signature_us, dns.decode_us, dns.encode_us and
// server.handle_us (per call, median over batches) to result.per_layer.
// `queries` must come from traffic to `eco`'s servers.
void run_kernels(const dnsboot::ecosystem::Ecosystem& eco,
                 const std::vector<CapturedQuery>& queries, RunResult& result);

}  // namespace perfbench
