#ifndef HQL_COMMON_EXEC_CONTEXT_H_
#define HQL_COMMON_EXEC_CONTEXT_H_

// Per-execution observability: ExecContext and ExecStats.
//
// Every runtime counter (view sharing, index probes, memo hits, governor
// trips, ...; listed once in HQL_EXEC_COUNTERS below) is charged against
// an ExecContext — one in-flight execution's accounting.
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
#include <cstddef>
#include <cstdint>
#include <iterator>
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

// Every execution counter, declared once:
//
//   X(key, Enumerator, merge, group)
//
// `key` is the ExecStats member and the hql-exec-stats/v1 JSON key;
// `Enumerator` names the counter in ExecCounter for the charge API; `merge`
// says how two executions' values combine (kSum adds, kMax keeps the larger
// high-water mark); `group` is the EXPLAIN line the counter prints on. The
// list order is the JSON key order and the EXPLAIN order, so keep a
// group's entries adjacent. Adding a counter is one line here.
#define HQL_EXEC_COUNTERS(X)                                                  \
  /* Memoizing subplan cache traffic attributed to this execution (the */    \
  /* cache-wide entry/eviction counters stay on MemoCache::stats()), and */   \
  /* the same cache's hybrid plan entries: a hit skips re-planning. */        \
  X(memo_hits, kMemoHits, kSum, "exec")                                       \
  X(memo_misses, kMemoMisses, kSum, "exec")                                   \
  X(plan_cache_hits, kPlanCacheHits, kSum, "exec")                            \
  X(plan_cache_misses, kPlanCacheMisses, kSum, "exec")                        \
  /* Copy-on-write overlays (storage/relation.h): overlays created by */      \
  /* ApplyDelta, their consolidations, and tuples shared or copied. */        \
  X(views_created, kViewsCreated, kSum, "views")                              \
  X(view_consolidations, kViewConsolidations, kSum, "views")                  \
  X(view_tuples_shared, kViewTuplesShared, kSum, "views")                     \
  X(view_tuples_copied, kViewTuplesCopied, kSum, "views")                     \
  /* Secondary indexes (storage/index.h); skipped = base rows a probe */      \
  /* avoided scanning. */                                                     \
  X(indexes_built, kIndexesBuilt, kSum, "indexes")                            \
  X(indexes_shared, kIndexesShared, kSum, "indexes")                          \
  X(index_probes, kIndexProbes, kSum, "indexes")                              \
  X(index_tuples_skipped, kIndexTuplesSkipped, kSum, "indexes")               \
  /* Execution governor (common/governor.h): trips, degrade-gracefully */     \
  /* fallbacks, and the per-execution peaks of its budgets. */                \
  X(governor_deadline_trips, kGovernorDeadlineTrips, kSum, "governor")        \
  X(governor_tuple_trips, kGovernorTupleTrips, kSum, "governor")              \
  X(governor_rewrite_trips, kGovernorRewriteTrips, kSum, "governor")          \
  X(governor_cancellations, kGovernorCancellations, kSum, "governor")         \
  X(governor_lazy_fallbacks, kGovernorLazyFallbacks, kSum, "governor")        \
  X(governor_index_fallbacks, kGovernorIndexFallbacks, kSum, "governor")      \
  X(governor_max_tuples_charged, kGovernorMaxTuplesCharged, kMax, "governor") \
  X(governor_max_rewrite_nodes_charged, kGovernorMaxRewriteNodesCharged,      \
    kMax, "governor")                                                         \
  /* Columnar batch execution (eval/vector_exec.h): batch transpositions, */  \
  /* cache hits serving a batch, morsel tasks run, rows through the batch */  \
  /* kernels, rows the route declined. */                                     \
  X(columnar_batches_built, kColumnarBatchesBuilt, kSum, "columnar")          \
  X(columnar_batches_reused, kColumnarBatchesReused, kSum, "columnar")        \
  X(columnar_morsels_dispatched, kColumnarMorselsDispatched, kSum,            \
    "columnar")                                                               \
  X(columnar_rows_vectorized, kColumnarRowsVectorized, kSum, "columnar")      \
  X(columnar_rows_fallback, kColumnarRowsFallback, kSum, "columnar")          \
  /* Rows through the aggregation kernel, groups it emitted, and */           \
  /* delta-attached operators served columnar. */                             \
  X(columnar_agg_rows_vectorized, kColumnarAggRowsVectorized, kSum,           \
    "vectorized")                                                             \
  X(columnar_agg_groups, kColumnarAggGroups, kSum, "vectorized")              \
  X(columnar_when_routed, kColumnarWhenRouted, kSum, "vectorized")            \
  /* Incremental re-evaluation (eval/incremental.h): cached results */        \
  /* patched by delta-of-delta propagation, edit tuples pushed through */     \
  /* operators, and attempts that fell back to recomputing. */                \
  X(incremental_results_patched, kIncrementalResultsPatched, kSum,            \
    "incremental")                                                            \
  X(incremental_edits_propagated, kIncrementalEditsPropagated, kSum,          \
    "incremental")                                                            \
  X(incremental_fallbacks, kIncrementalFallbacks, kSum, "incremental")

/// Names one execution counter (see HQL_EXEC_COUNTERS).
enum class ExecCounter : size_t {
#define HQL_EXEC_COUNTER_ENUM(key, Enumerator, merge, group) Enumerator,
  HQL_EXEC_COUNTERS(HQL_EXEC_COUNTER_ENUM)
#undef HQL_EXEC_COUNTER_ENUM
};

/// How two executions' values of a counter combine.
enum class ExecMerge {
  kSum,  // counts of work: they add
  kMax,  // high-water marks: the larger wins
};

/// One entry of the counter list.
struct ExecCounterInfo {
  ExecCounter counter;
  const char* key;    // ExecStats member and JSON key
  ExecMerge merge;
  const char* group;  // EXPLAIN line
};

/// The counter list as data, indexed by ExecCounter.
inline constexpr ExecCounterInfo kExecCounters[] = {
#define HQL_EXEC_COUNTER_INFO(key, Enumerator, merge, group) \
  {ExecCounter::Enumerator, #key, ExecMerge::merge, group},
    HQL_EXEC_COUNTERS(HQL_EXEC_COUNTER_INFO)
#undef HQL_EXEC_COUNTER_INFO
};

inline constexpr size_t kNumExecCounters = std::size(kExecCounters);

/// A snapshot of one execution's work: the counters plus the traced
/// operator spans. Plain data — copyable, mergeable, serializable.
struct ExecStats {
#define HQL_EXEC_COUNTER_MEMBER(key, Enumerator, merge, group) uint64_t key = 0;
  HQL_EXEC_COUNTERS(HQL_EXEC_COUNTER_MEMBER)
#undef HQL_EXEC_COUNTER_MEMBER

  // The top-level route the execution actually took ("lazy", "eager",
  // "delta", "hybrid-lazy", "hybrid-eager", "hybrid-delta", "direct";
  // empty when no routed execution ran under the context).
  std::string route;

  // Per-operator tracing spans, in recording order (empty unless tracing
  // was enabled on the context).
  std::vector<OperatorSpan> spans;

  /// The named member for `counter`.
  uint64_t& operator[](ExecCounter counter);
  uint64_t operator[](ExecCounter counter) const;

  /// Deterministic merge: each counter combines by its ExecMerge kind,
  /// `other`'s spans append in order, the first non-empty route wins.
  /// Merging slots of a family in input order therefore yields the same
  /// rollup regardless of which worker finished first.
  void MergeFrom(const ExecStats& other);

  /// Stable JSON serialization (schema "hql-exec-stats/v1"): the counters
  /// in list order, then "route" and "spans"; no locale dependence. Reused
  /// by the bench_* --json writers and validated by bench/check_bench_json.
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

  /// Adds `n` to a kSum counter.
  void Add(ExecCounter counter, uint64_t n = 1) {
    Slot(counter).fetch_add(n, std::memory_order_relaxed);
  }

  /// Raises a kMax counter to at least `value`.
  void RaiseHighWater(ExecCounter counter, uint64_t value) {
    std::atomic<uint64_t>& mark = Slot(counter);
    uint64_t seen = mark.load(std::memory_order_relaxed);
    while (value > seen && !mark.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

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

 private:
  std::atomic<uint64_t>& Slot(ExecCounter counter) {
    return counters_[static_cast<size_t>(counter)];
  }
  const std::atomic<uint64_t>& Slot(ExecCounter counter) const {
    return counters_[static_cast<size_t>(counter)];
  }

  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> counters_[kNumExecCounters] = {};

  mutable std::mutex mu_;  // guards route_ and spans_
  std::string route_;
  std::vector<OperatorSpan> spans_;
};

/// The context observing the current thread's execution, or nullptr when
/// none is installed.
ExecContext* CurrentExecContext();

/// The process-default context: charges land here when no scope is
/// installed.
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
