// Sharded survey executor (DESIGN.md §9, §14) — partition the zone
// population into S shards by a stable hash of the zone name, run each
// shard's scan in its own fully independent simulated world (network +
// servers + scanner + engine), and merge the per-shard results in shard
// order.
//
// Determinism contract:
//   * The merged report depends only on (source, shards, base_network_seed,
//     run options) — never on the thread count. Workers pull shard indices
//     from an atomic counter, but results land in a slot vector indexed by
//     shard and the merge walks shards 0..S-1 after all workers have joined.
//   * shards == 1 reproduces the single-world run_survey() pipeline
//     byte-for-byte: the full target list is scanned in one world whose
//     network seed is exactly base_network_seed.
//
// Streaming-shard contract (§14): the world source returns a world holding
// ONLY its shard's targets (ecosystem::build_shard materializes exactly that
// slice), so worker memory is O(zones/shard) instead of O(world). The
// executor trusts the source's slice — it no longer re-filters — and the
// source MUST slice with shard_of (i.e. base shard_of_canonical), or shards
// would scan zones they never built.
//
// Each worker's world is thread-confined; the only cross-thread traffic is
// the shard counter and the slot vector, whose entries are written by
// exactly one worker and read only after join (a happens-before edge), so
// the executor is clean under TSan without any locking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/survey.hpp"
#include "net/simnet.hpp"

namespace dnsboot::analysis {

// Everything one shard worker needs: a private simulated world, identical
// across shards except for the network RNG seed. `keepalive` owns whatever
// backs the network handlers (e.g. the ecosystem's servers) so the world
// survives until the shard's scan finishes.
struct ShardWorld {
  std::unique_ptr<net::SimNetwork> network;
  resolver::RootHints hints;
  // THIS SHARD'S zones only (population order preserved). The executor scans
  // the list as-is; with one shard it is the full population.
  std::vector<dns::Name> targets;
  std::map<std::string, std::string> ns_domain_to_operator;
  std::uint32_t now = 0;
  std::shared_ptr<void> keepalive;
};

// Produces the world for one shard, holding only that shard's target slice.
// Called concurrently from worker threads: implementations must not touch
// shared mutable state. The ecosystem construction must depend only on its
// own seeds (never on shard_seed), so the shard slices partition one
// consistent population; shard_seed goes to the SimNetwork so per-shard
// packet timing is decorrelated.
using ShardWorldSource =
    std::function<ShardWorld(std::size_t shard_index, std::uint64_t shard_seed)>;

struct ShardedSurveyOptions {
  SurveyRunOptions run;
  std::size_t shards = 1;
  std::size_t threads = 1;
  // Seed for the single-shard world; multi-shard seeds are derived from it
  // (see shard_network_seed).
  std::uint64_t base_network_seed = 1;
};

struct ShardedSurveyResult {
  // Merged exactly as a single-world SurveyRunResult: survey counters and
  // maps sum key-wise, reports concatenate in shard order, stats sum,
  // simulated_duration is the slowest shard (shards run concurrently in
  // simulated time), and the table rows are recomputed from the merged
  // operator map.
  SurveyRunResult merged;
  std::uint64_t events_processed = 0;
  std::vector<net::SimTime> shard_durations;
  std::size_t shards = 0;
  std::size_t threads = 0;
};

// Stable shard assignment: FNV-1a over the canonical zone text (delegates to
// base shard_of_canonical, shared with ecosystem::build_shard). Independent
// of scan order, target list position, and everything else mutable.
std::size_t shard_of(const dns::Name& zone, std::size_t shards);

// Per-shard network seed. shards == 1 passes the base seed through
// unchanged (the legacy-equivalence guarantee); otherwise each shard gets a
// SplitMix64-derived seed so shard networks draw independent jitter/loss.
std::uint64_t shard_network_seed(std::uint64_t base_seed,
                                 std::size_t shard_index, std::size_t shards);

ShardedSurveyResult run_sharded_survey(const ShardWorldSource& source,
                                       const ShardedSurveyOptions& options);

}  // namespace dnsboot::analysis
