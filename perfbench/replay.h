#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The benchmark's two in-process checks of a timed loopback run:
//
//   * CheckDirect re-runs a fixed sample of one connection's reads on a
//     Strategy::kDirect mirror session (the reference semantics), as the
//     server soak does;
//   * Replay re-executes the recorded streams against a fresh `fast` engine
//     with a request handler that mirrors the server's dispatch, checking
//     every replayed answer against the server's and, when traced, timing
//     each layer's public entry point from here, outside src/.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "workloads.h"

namespace perfbench {

/// What both sides must agree on for one request: success, and for reads
/// the relation's row count and Relation::Hash (for `nodes`, the node count
/// and a hash of the names and parents).
struct Answer {
  bool ok = false;
  uint64_t rows = 0;
  uint64_t hash = 0;

  bool operator==(const Answer& o) const {
    return ok == o.ok && rows == o.rows && hash == o.hash;
  }
};

/// The Answer a wire response document carries. A `fetch` whose tuple list
/// disagrees with its row count reads as failed.
Answer AnswerOf(const hql::JsonValue& doc);

/// One connection's record of the timed run, in stream order.
struct Recorded {
  std::vector<Answer> answers;          // prologue, then loop requests
  std::vector<double> loop_latency_us;  // client latency per loop request
  size_t loop_requests() const { return loop_latency_us.size(); }
};

struct DirectCheck {
  size_t checked = 0;
  size_t mismatches = 0;
};

/// Replays connection `conn`'s stream on a kDirect mirror and compares
/// `samples` evenly spaced loop reads with the server's answers.
DirectCheck CheckDirect(const Workload& workload, uint64_t seed, int conn,
                        const Recorded& recorded, size_t samples);

/// Per-layer totals over the replayed loop requests (sums, not means).
struct ReplayTotals {
  size_t requests = 0;
  size_t reads = 0;
  size_t mismatches = 0;
  double window_us = 0;  // in-process handling time of the requests

  // Layers inside the window (traced only).
  double wire_parse_us = 0;
  double parse_us = 0;
  double query_us = 0;  // Session::Query / Compare / Nodes
  double write_us = 0;  // Session::Derive / Edit / Drop
  double hash_us = 0;
  double encode_us = 0;
  double free_us = 0;  // releasing the result relation after encoding

  // Probes re-run outside the window on each read's composed query.
  double tree_size = 0;
  double enf_us = 0;
  double simplify_us = 0;
  double plan_us = 0;

  // From the session's ExecStats, per request.
  double operator_us = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t patched = 0;
  uint64_t patch_fallbacks = 0;
  uint64_t rows_vectorized = 0;
  uint64_t tuples_copied = 0;
  uint64_t result_rows = 0;
  uint64_t route_lazy = 0;
  uint64_t route_delta = 0;
  uint64_t route_eager = 0;

  // From the engine's MemoCache over the replayed loop.
  uint64_t memo_evictions = 0;
  uint64_t memo_cached_tuples = 0;

  /// Window per replayed loop request, by connection (for transport time).
  std::vector<std::vector<double>> request_us;
};

struct ReplayResult {
  ReplayTotals untraced;
  ReplayTotals traced;  // operator tracing on, every layer timed
};

/// Re-executes each connection's prologue and its first `per_conn` loop
/// requests (at most as many as the server answered), round-robin across
/// connections, on two fresh engines side by side: one untraced, one
/// traced. Only loop requests are counted.
ReplayResult Replay(const Workload& workload, uint64_t seed,
                    const std::vector<Recorded>& recorded, size_t per_conn);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
