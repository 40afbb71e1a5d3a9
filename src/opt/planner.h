#ifndef HQL_OPT_PLANNER_H_
#define HQL_OPT_PLANNER_H_

// The evaluation-strategy spectrum of the paper made operational. A
// Strategy names one point on the lazy <-> eager axis; the hybrid planner
// walks the query and decides per `when` node whether to substitute it away
// (lazy) or keep it for materialization (eager), following the heuristics
// sketched in Examples 2.1(c) and 2.2(b): substitution wins when the
// affected names occur rarely in the scope and the rewritten query stays
// small; materialization wins when the state is reused often or the
// rewrite would blow up (Example 2.4).

#include <cstdint>
#include <string>

#include "ast/forward.h"
#include "common/governor.h"
#include "common/result.h"
#include "eval/incremental.h"
#include "opt/estimator.h"
#include "storage/column_batch.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/stats.h"

namespace hql {

class MemoCache;

enum class Strategy {
  kDirect,   // reference semantics: materialize whole hypothetical states
  kLazy,     // red(Q), RA-simplify, evaluate as pure RA (Theorem 4.1)
  kFilter1,  // ENF + Algorithm HQL-1 (eager xsub, node-at-a-time)
  kFilter2,  // ENF + collapse + Algorithm HQL-2 (eager xsub, clustered)
  kFilter3,  // mod-ENF + collapse + Algorithm HQL-3 (eager deltas)
  kHybrid,   // planner decides per `when` node
};

const char* StrategyName(Strategy s);

struct PlannerOptions {
  /// How many queries are expected to run against each hypothetical state
  /// (Example 2.2's "families of hypothetical queries"). Materialization
  /// cost is amortized over this count.
  double reuse_count = 1.0;

  /// Hard cap on the expanded tree size a lazy rewrite may reach; beyond
  /// it the planner forces materialization (Example 2.4's guard).
  double max_lazy_tree_size = 100000.0;

  /// Run the RA simplifier over pure parts of the plan.
  bool simplify = true;

  /// Hybrid execution takes the delta route when the query has a mod-ENF
  /// form and the estimated state materialization is below this fraction
  /// of the affected base relations — the Section 5.5 regime where
  /// evaluating over the change beats xsub materialization. With an
  /// incremental cache set, a pure-RA `Q when state` on that route runs Q
  /// over the state's copy-on-write overlay and patches Q's last run; every
  /// other delta-route plan runs Algorithm HQL-3. Set to 0 to disable the
  /// delta route.
  double delta_fraction_threshold = 0.25;

  /// Optional memoizing subplan cache (eval/memo.h). When set, Execute's
  /// pure-RA evaluation serves repeated subplans from the cache, and state
  /// materialization (sessions, EvalAlternatives) reuses shared sub-states.
  /// The cache may be shared across queries, sessions, and threads; the
  /// caller owns it and it must outlive the calls that use it.
  MemoCache* memo = nullptr;

  /// Secondary-index policy for the physical operators (storage/index.h).
  /// kOff (default) keeps the scan kernels exactly; kManual probes only
  /// indexes already built via Database::BuildIndex; kAdvisor additionally
  /// lets `index_advisor` build indexes for frequently probed column sets.
  IndexMode index_mode = IndexMode::kOff;

  /// Advisor used in kAdvisor mode (caller-owned; shared across queries and
  /// threads so its access counts span a whole family of alternatives).
  /// Null in kAdvisor mode degrades to kManual behavior.
  IndexAdvisor* index_advisor = nullptr;

  /// Base relations smaller than this are never probed through an index —
  /// a scan already beats the probe bookkeeping.
  size_t index_min_rows = 64;

  /// Resource limits for the execution (common/governor.h). When any limit
  /// is set (or `cancel_token` is non-null) and no governor is already
  /// installed on the thread, Execute installs one for the duration of the
  /// call; limit violations surface as kResourceExhausted, observed
  /// cancellation as kCancelled. A rewrite-node trip on the lazy route
  /// degrades gracefully instead: Execute retries along the fallback
  /// lattice lazy -> hybrid -> eager (recorded in
  /// ExecStats::governor_lazy_fallbacks).
  ExecBudget budget;

  /// Optional cooperative cancellation for this execution; polled on the
  /// budget's check cadence.
  CancelTokenPtr cancel_token;

  /// Columnar/vectorized execution policy (storage/column_batch.h). kOff
  /// (default) keeps the row kernels exactly; kAuto lets large flat-base
  /// selections and equi-joins run the vectorized morsel kernels
  /// (eval/vector_exec.h), falling back to row execution for small bases,
  /// overlay-heavy views, or non-vectorizable predicates.
  ColumnarMode columnar_mode = ColumnarMode::kOff;

  /// Base relations smaller than this never take the columnar route — the
  /// batch build would not amortize.
  size_t columnar_min_rows = 4096;

  /// Rows per morsel for the vectorized kernels.
  size_t columnar_morsel_rows = 65536;

  /// Worker threads for morsel dispatch: 0 = hardware concurrency,
  /// 1 = run morsels inline on the calling thread.
  size_t columnar_threads = 0;

  /// Incremental re-evaluation policy (eval/incremental.h). kOff (default)
  /// recomputes every execution exactly as before. kAuto lets the lazy and
  /// hybrid-lazy routes, and the hybrid-delta route's `Q when state` reads,
  /// patch a cached result of the same plan when the database differs from
  /// the recorded execution only by a small overlay edit and the estimator
  /// prices the patch below a recompute; every other
  /// case (cold cache, consolidated base, large edit, aggregate plans)
  /// falls back to full evaluation — results are always bit-identical.
  IncrementalMode incremental_mode = IncrementalMode::kOff;

  /// Entry store for incremental execution (caller-owned, must outlive the
  /// calls that use it). Null disables patching even in kAuto mode.
  IncrementalCache* incremental_cache = nullptr;

  /// Edits larger than this fraction of the changed relations' current
  /// cardinality are recomputed rather than patched.
  double incremental_edit_fraction = 0.10;

  /// The index configuration the options denote.
  IndexConfig index_config() const {
    return IndexConfig{index_mode, index_advisor, index_min_rows};
  }

  /// The columnar configuration the options denote.
  ColumnarConfig columnar_config() const {
    ColumnarConfig c;
    c.mode = columnar_mode;
    c.min_rows = columnar_min_rows;
    c.morsel_rows = columnar_morsel_rows;
    c.threads = columnar_threads;
    return c;
  }

  /// The incremental configuration the options denote.
  IncrementalConfig incremental_config() const {
    IncrementalConfig c;
    c.mode = incremental_mode;
    c.cache = incremental_cache;
    c.max_edit_fraction = incremental_edit_fraction;
    return c;
  }
};

struct Plan {
  /// The planned query: `when` nodes that remain are to be materialized.
  QueryPtr query;
  /// Number of `when` nodes substituted away (lazy decisions).
  int lazy_decisions = 0;
  /// Number of `when` nodes kept for materialization (eager decisions).
  int eager_decisions = 0;
};

/// Hybrid planning: returns an equivalent query with per-`when` decisions
/// applied. The result is in ENF (remaining states are explicit
/// substitutions) and its pure parts are RA-simplified.
Result<Plan> PlanHybrid(const QueryPtr& query, const Schema& schema,
                        const StatsCatalog& stats,
                        const PlannerOptions& options = PlannerOptions());

/// Evaluates `query` in `db` under the given strategy. All strategies
/// compute the same value (Theorems 4.1 / Propositions 5.1, 5.3, 5.4).
Result<Relation> Execute(const QueryPtr& query, const Database& db,
                         const Schema& schema, Strategy strategy,
                         const PlannerOptions& options = PlannerOptions());

}  // namespace hql

#endif  // HQL_OPT_PLANNER_H_
