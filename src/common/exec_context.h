#ifndef HQL_COMMON_EXEC_CONTEXT_H_
#define HQL_COMMON_EXEC_CONTEXT_H_

// Per-execution observability: ExecContext and ExecStats.
//
// Every runtime counter the library used to keep in process-wide mutable
// globals (view sharing, index probes, memo hits, governor trips) is now
// charged against an ExecContext — one in-flight execution's accounting.
// A context is installed into a thread-local slot with ExecContextScope,
// exactly like GovernorScope, so the physical kernels (whose signatures
// return plain Relations) charge stats without signature churn. The choice
// of an equivalent ENF query is the choice of how eager or lazy evaluation
// is (paper Section 5.2); ExecStats is how one query *measures* that
// choice, attributable to exactly that query even under heavy concurrency.
//
// Layering:
//   * ExecStats      — a plain value: the counters plus per-operator
//                      tracing spans, mergeable and JSON-serializable.
//   * ExecContext    — the live accounting object (atomic counters, a
//                      mutex-guarded span list). Thread-safe: one context
//                      may be shared by several worker threads.
//   * ExecContextScope — RAII installation into the thread-local slot;
//                      scopes nest and the previous context is restored.
//   * ExecRouteScope — tags subsequent spans with the execution route
//                      (lazy / eager / delta / hybrid-*) for the duration
//                      of a scope.
//   * TraceSpan      — RAII per-operator span recorder used inside the
//                      kernels; a no-op unless the ambient context has
//                      tracing enabled.
//
// Charging falls back to a process-default context when no scope is
// installed. To observe the work a piece of code does, install an
// ExecContextScope over a fresh context and read its Snapshot().

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hql {

/// One traced physical-operator execution: what ran, along which route,
/// how many rows went in and came out, and how long it took.
struct OperatorSpan {
  std::string op;     // operator kind: "select", "join", "select-when", ...
  std::string route;  // execution route: "lazy", "eager", "delta", ...
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t micros = 0;  // wall time, microseconds
};

/// The kinds of governor trips, for per-context attribution.
enum class GovernorTripKind {
  kDeadline,
  kTupleBudget,
  kRewriteBudget,
  kCancelled,
};

/// A snapshot of one execution's work: every counter that used to live in
/// a process-wide global, plus the traced operator spans. Plain data —
/// copyable, mergeable, serializable.
struct ExecStats {
  // Memoizing subplan cache traffic attributed to this execution (the
  // cache-wide entry/eviction counters stay on MemoCache::stats()).
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  // Hybrid plan entries on the same cache: a hit skips re-planning.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  // Copy-on-write view layer.
  uint64_t views_created = 0;
  uint64_t view_consolidations = 0;
  uint64_t view_tuples_shared = 0;
  uint64_t view_tuples_copied = 0;

  // Secondary indexes.
  uint64_t indexes_built = 0;
  uint64_t indexes_shared = 0;
  uint64_t index_probes = 0;
  uint64_t index_tuples_skipped = 0;

  // Execution governor.
  uint64_t governor_deadline_trips = 0;
  uint64_t governor_tuple_trips = 0;
  uint64_t governor_rewrite_trips = 0;
  uint64_t governor_cancellations = 0;
  uint64_t governor_lazy_fallbacks = 0;
  uint64_t governor_index_fallbacks = 0;
  uint64_t governor_max_tuples_charged = 0;         // high-water mark
  uint64_t governor_max_rewrite_nodes_charged = 0;  // high-water mark

  // Columnar batch execution (eval/vector_exec.h).
  uint64_t columnar_batches_built = 0;      // physical batch transpositions
  uint64_t columnar_batches_reused = 0;     // cache hits serving a batch
  uint64_t columnar_morsels_dispatched = 0; // morsel tasks run
  uint64_t columnar_rows_vectorized = 0;    // rows through the batch kernels
  uint64_t columnar_rows_fallback = 0;      // rows the route declined
  uint64_t columnar_agg_rows_vectorized = 0;  // rows through the agg kernel
  uint64_t columnar_agg_groups = 0;           // groups the agg kernel emitted
  uint64_t columnar_when_routed = 0;  // delta-attached ops served columnar

  // Incremental re-evaluation (eval/incremental.h): cached results patched
  // by delta-of-delta propagation instead of recomputed.
  uint64_t incremental_results_patched = 0;   // cached results patched
  uint64_t incremental_edits_propagated = 0;  // edit tuples pushed through ops
  uint64_t incremental_fallbacks = 0;         // attempts that fell back

  // The top-level route the execution actually took ("lazy", "eager",
  // "delta", "hybrid-lazy", "hybrid-eager", "hybrid-delta", "direct";
  // empty when no routed execution ran under the context).
  std::string route;

  // Per-operator tracing spans, in recording order (empty unless tracing
  // was enabled on the context).
  std::vector<OperatorSpan> spans;

  /// Deterministic merge: counters add, high-water marks take the max,
  /// `other`'s spans append in order, the first non-empty route wins.
  /// Merging slots of a family in input order therefore yields the same
  /// rollup regardless of which worker finished first.
  void MergeFrom(const ExecStats& other);

  /// Stable JSON serialization (schema "hql-exec-stats/v1"): fixed key
  /// order, no locale dependence. Reused by the bench_* --json writers and
  /// validated by bench/check_bench_json.
  std::string ToJson() const;
};

/// The live per-execution accounting object. All charge methods are
/// thread-safe (relaxed atomics; the span list takes a short lock), so one
/// context can absorb a family of worker threads.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Enables per-operator span recording (off by default; counter charging
  /// is always on).
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  // -- charge API (called by storage/eval/opt layers) --
  void AddMemoHit() { Bump(&memo_hits_); }
  void AddMemoMiss() { Bump(&memo_misses_); }
  void AddPlanCacheHit() { Bump(&plan_cache_hits_); }
  void AddPlanCacheMiss() { Bump(&plan_cache_misses_); }

  void AddViewCreated() { Bump(&views_created_); }
  void AddViewConsolidation() { Bump(&view_consolidations_); }
  void AddViewTuplesShared(uint64_t n) { Bump(&view_tuples_shared_, n); }
  void AddViewTuplesCopied(uint64_t n) { Bump(&view_tuples_copied_, n); }

  void AddIndexBuilt() { Bump(&indexes_built_); }
  void AddIndexShared() { Bump(&indexes_shared_); }
  void AddIndexProbe() { Bump(&index_probes_); }
  void AddIndexTuplesSkipped(uint64_t n) { Bump(&index_tuples_skipped_, n); }

  void AddColumnarBatchBuilt() { Bump(&columnar_batches_built_); }
  void AddColumnarBatchReused() { Bump(&columnar_batches_reused_); }
  void AddColumnarMorselsDispatched(uint64_t n) {
    Bump(&columnar_morsels_dispatched_, n);
  }
  void AddColumnarRowsVectorized(uint64_t n) {
    Bump(&columnar_rows_vectorized_, n);
  }
  void AddColumnarRowsFallback(uint64_t n) {
    Bump(&columnar_rows_fallback_, n);
  }
  void AddColumnarAggRowsVectorized(uint64_t n) {
    Bump(&columnar_agg_rows_vectorized_, n);
  }
  void AddColumnarAggGroups(uint64_t n) { Bump(&columnar_agg_groups_, n); }
  void AddColumnarWhenRouted() { Bump(&columnar_when_routed_); }

  void AddIncrementalResultPatched() { Bump(&incremental_results_patched_); }
  void AddIncrementalEditsPropagated(uint64_t n) {
    Bump(&incremental_edits_propagated_, n);
  }
  void AddIncrementalFallback() { Bump(&incremental_fallbacks_); }

  void AddGovernorTrip(GovernorTripKind kind);
  void AddLazyFallback() { Bump(&governor_lazy_fallbacks_); }
  void AddIndexFallback() { Bump(&governor_index_fallbacks_); }
  /// Raises the per-execution high-water marks (governor destructor).
  void RaiseTuplesCharged(uint64_t n);
  void RaiseRewriteNodesCharged(uint64_t n);

  /// Notes the top-level execution route (last write wins; see
  /// ExecStats::route).
  void NoteRoute(const char* route);

  /// Appends one traced span. Callers normally go through TraceSpan, which
  /// already checks tracing().
  void RecordSpan(OperatorSpan span);

  /// A coherent copy of the counters and spans charged so far.
  ExecStats Snapshot() const;

  /// Adds a finished execution's stats into this context (family rollups,
  /// ExplainAnalyze propagating to the caller's context).
  void MergeFrom(const ExecStats& stats);

  /// Zeroes every counter, the route, and the span list.
  void Reset();

  // Category resets backing the deprecated Reset{View,Index,Governor}Stats
  // shims: each clears only its own counters.
  void ResetViewCounters();
  void ResetIndexCounters();
  void ResetGovernorCounters();
  void ResetMemoCounters();
  void ResetColumnarCounters();
  void ResetIncrementalCounters();

 private:
  static void Bump(std::atomic<uint64_t>* c, uint64_t n = 1) {
    c->fetch_add(n, std::memory_order_relaxed);
  }
  static void RaiseHighWater(std::atomic<uint64_t>* mark, uint64_t value);

  std::atomic<bool> tracing_{false};

  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> plan_cache_misses_{0};

  std::atomic<uint64_t> views_created_{0};
  std::atomic<uint64_t> view_consolidations_{0};
  std::atomic<uint64_t> view_tuples_shared_{0};
  std::atomic<uint64_t> view_tuples_copied_{0};

  std::atomic<uint64_t> indexes_built_{0};
  std::atomic<uint64_t> indexes_shared_{0};
  std::atomic<uint64_t> index_probes_{0};
  std::atomic<uint64_t> index_tuples_skipped_{0};

  std::atomic<uint64_t> governor_deadline_trips_{0};
  std::atomic<uint64_t> governor_tuple_trips_{0};
  std::atomic<uint64_t> governor_rewrite_trips_{0};
  std::atomic<uint64_t> governor_cancellations_{0};
  std::atomic<uint64_t> governor_lazy_fallbacks_{0};
  std::atomic<uint64_t> governor_index_fallbacks_{0};
  std::atomic<uint64_t> governor_max_tuples_charged_{0};
  std::atomic<uint64_t> governor_max_rewrite_nodes_charged_{0};

  std::atomic<uint64_t> columnar_batches_built_{0};
  std::atomic<uint64_t> columnar_batches_reused_{0};
  std::atomic<uint64_t> columnar_morsels_dispatched_{0};
  std::atomic<uint64_t> columnar_rows_vectorized_{0};
  std::atomic<uint64_t> columnar_rows_fallback_{0};
  std::atomic<uint64_t> columnar_agg_rows_vectorized_{0};
  std::atomic<uint64_t> columnar_agg_groups_{0};
  std::atomic<uint64_t> columnar_when_routed_{0};

  std::atomic<uint64_t> incremental_results_patched_{0};
  std::atomic<uint64_t> incremental_edits_propagated_{0};
  std::atomic<uint64_t> incremental_fallbacks_{0};

  mutable std::mutex mu_;  // guards route_ and spans_
  std::string route_;
  std::vector<OperatorSpan> spans_;
};

/// The context observing the current thread's execution, or nullptr when
/// none is installed.
ExecContext* CurrentExecContext();

/// The process-default context backing the deprecated Global*Stats shims;
/// charges land here when no scope is installed.
ExecContext& ProcessDefaultExecContext();

/// The context charges on this thread go to: the installed one, else the
/// process default.
inline ExecContext& AmbientExecContext() {
  ExecContext* ctx = CurrentExecContext();
  return ctx != nullptr ? *ctx : ProcessDefaultExecContext();
}

/// RAII installation of a context into the thread-local slot. Scopes nest;
/// the previous context is restored on destruction. Passing nullptr
/// shields an inner region (its charges fall through to the process
/// default).
class ExecContextScope {
 public:
  explicit ExecContextScope(ExecContext* context);
  ~ExecContextScope();

  ExecContextScope(const ExecContextScope&) = delete;
  ExecContextScope& operator=(const ExecContextScope&) = delete;

 private:
  ExecContext* prev_;
};

/// Tags spans recorded on this thread with an execution route for the
/// scope's duration (planner strategy branches, the filter algorithms).
class ExecRouteScope {
 public:
  explicit ExecRouteScope(const char* route);
  ~ExecRouteScope();

  ExecRouteScope(const ExecRouteScope&) = delete;
  ExecRouteScope& operator=(const ExecRouteScope&) = delete;

 private:
  const char* prev_;
};

/// The route tag ambient on this thread ("" when none).
const char* CurrentExecRoute();

/// RAII per-operator span: constructed at kernel entry with the input
/// cardinality, told the output cardinality before return, recorded into
/// the ambient context on destruction. When the ambient context has
/// tracing off (the default), construction is a thread-local read and a
/// branch — no clock, no allocation.
class TraceSpan {
 public:
  TraceSpan(const char* op, uint64_t rows_in);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_rows_out(uint64_t n) { rows_out_ = n; }
  bool active() const { return context_ != nullptr; }

 private:
  ExecContext* context_ = nullptr;  // null when tracing is off
  const char* op_ = nullptr;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
  uint64_t start_micros_ = 0;
};

}  // namespace hql

#endif  // HQL_COMMON_EXEC_CONTEXT_H_
