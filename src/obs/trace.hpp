// Structured trace layer (DESIGN.md §11) — per-unit spans for query →
// retry → response lifecycles, scan phases and server request handling,
// kept in a bounded ring buffer and emitted as JSONL.
//
// Sampling is counter-based, not random: the Nth candidate is traced
// (`sample()` returns true every `sample_every` calls), so a seeded
// simulation traces exactly the same spans every run — randomness would
// break the repo's determinism contract. `sample_every == 1` traces
// everything, `0` disables tracing entirely.
//
// The ring holds the most recent `capacity` spans; overflow drops the
// oldest and counts the drop, so a long survey's trace file is "the tail of
// the run" rather than an unbounded allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace dnsboot::obs {

// One traced unit of work. Times are transport microseconds (simulated time
// under SimNetwork, wall-derived under WireTransport).
struct TraceSpan {
  std::string kind;    // "query" | "zone" | "phase"
  std::string name;    // qname / zone / phase label
  std::string status;  // outcome: "ok", "timeout", "degraded", ...
  std::string detail;  // free-form context (server address, rcode, ...)
  std::uint64_t start_usec = 0;
  std::uint64_t end_usec = 0;
  std::uint64_t attempts = 0;  // send attempts (queries) / probes (zones)
  std::uint64_t seq = 0;       // assigned by Tracer::record, monotonic

  std::string to_json() const;  // one JSONL line, no trailing newline
};

struct TracerOptions {
  std::size_t capacity = 4096;     // ring size in spans
  std::uint64_t sample_every = 64; // trace every Nth candidate; 0 = off
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  // Span-start decision: should this candidate unit be traced? Increments
  // the candidate counter either way (that is what makes the choice
  // deterministic and cheap — one relaxed fetch_add on the untraced path).
  bool sample();

  void record(TraceSpan span);

  // Oldest-first copy of the ring.
  std::vector<TraceSpan> snapshot() const;
  // The ring as JSONL, oldest span first, one object per line.
  std::string to_jsonl() const;

  std::uint64_t candidates() const {
    return candidates_.load(std::memory_order_relaxed);
  }
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const TracerOptions& options() const { return options_; }

 private:
  TracerOptions options_;  // immutable after construction
  // Sampling/accounting counters: relaxed RMW atomics, safe from any thread
  // (fetch_add is a full read-modify-write; order does not matter here).
  std::atomic<std::uint64_t> candidates_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};

  // The ring and its cursor are the only multi-writer state in the tracer;
  // everything below is touched with mutex_ held (enforced by clang
  // -Wthread-safety via the annotations, and by lockdep under
  // DNSBOOT_VERIFY).
  mutable base::Mutex mutex_{"Tracer::mutex_"};
  std::vector<TraceSpan> ring_ GUARDED_BY(mutex_);  // fixed capacity once full
  std::size_t next_ GUARDED_BY(mutex_) = 0;  // insertion point when full
  bool wrapped_ GUARDED_BY(mutex_) = false;
};

}  // namespace dnsboot::obs
