// probe.hpp — the traced replay: per-layer times from public calls.
//
// Replays a sample of the generated inputs in-process, in serving-path
// order, through the same public functions the runtime calls, with one
// span around each call (names follow the repository's metric/span
// scheme, e.g. `server.handle`):
//
//   read   bench.read → runtime.snapshot_acquire, runtime.answer_cache.probe,
//          and on a cache miss dns.decode, runtime.snapshot_acquire,
//          server.handle, dns.encode (the UDP listener's order).
//   write  bench.update → runtime.commit_zones ⊃ server.txn_commit, then
//          runtime.answer_cache.rebuild and spatial.rebuild replayed on
//          the same parent/successor pair (both run inside the runtime's
//          writer section, out of reach of an outside timer), then
//          server.engine_build (a shard's refresh).
//   area   bench.area → dns.decode, spatial.answer_area, spatial.query
//          (the index probe answer_area makes, replayed on its own),
//          dns.encode.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dns/dnssec.hpp"
#include "oracle.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "world.hpp"

namespace civicbench {

struct ProbeInputs {
  const World* world = nullptr;
  /// The building runtime, idle after the load phases: reads and AREA
  /// queries replay against its snapshot, the write tree commits
  /// through its commit_zones().
  sns::runtime::ServerRuntime* runtime = nullptr;
  std::vector<ReadReq> reads;
  std::vector<AreaReq> areas;
  std::vector<Rehome> moves;
  sns::dns::TsigKey key;
  /// Values the load phases sent (devices mobility_churn moved answer
  /// with their newest sent value, not the world's).
  const ChurnBook* book = nullptr;
};

struct ProbeResult {
  std::map<std::string, double> metrics;
  TieOut tie;
  double read_pipeline_p50_us = 0.0;  // traced
  double area_pipeline_p50_us = 0.0;  // traced
  double overhead_ratio = 0.0;        // traced / untraced read pipeline p50
  std::vector<Span> spans;
  std::uint64_t wrong = 0;  // replayed answers the oracle rejected
};

/// Tolerance of the trace tie-out: the roots' unattributed self time
/// may be at most this share of their duration.
inline constexpr double kTieOutTolerance = 0.25;

[[nodiscard]] ProbeResult run_probe(const ProbeInputs& in);

/// The signed RFC 2136 re-home of `move`: delete the device's TXT and
/// LOC RRsets, add the new ones, TSIG-sign with `key` at `now_s`.
[[nodiscard]] sns::dns::Message make_rehome_update(const World& world, const Rehome& move,
                                                   std::uint16_t id,
                                                   const sns::dns::TsigKey& key,
                                                   std::uint64_t now_s);

}  // namespace civicbench
