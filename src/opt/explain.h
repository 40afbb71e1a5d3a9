#ifndef HQL_OPT_EXPLAIN_H_
#define HQL_OPT_EXPLAIN_H_

// Structured explanation of how the framework treats a hypothetical query.
//
// The report is split along the static/runtime axis:
//
//   * PlanReport   — everything derivable without executing: the query's
//                    shape, every normal form along the lazy<->eager
//                    spectrum, the hybrid plan, and the cost model's view
//                    of each route. This is the developer-facing face of
//                    the paper's "choice of an equivalent ENF query is the
//                    choice of how eager or lazy the evaluation of Q is"
//                    (Section 5.2).
//   * ExecStats    — what an execution actually did (common/exec_context.h):
//                    view sharing, index probes, memo traffic, governor
//                    trips, traced operator spans.
//   * ExplainReport — the combined view (PlanReport + an ExecStats
//                    snapshot + the memo cache's counters), rendered by
//                    FormatExplain.
//   * AnalyzeReport — EXPLAIN ANALYZE: the static plan annotated with a
//                    *fresh, traced* execution of the query — actual rows
//                    and wall time next to the estimates, the route taken,
//                    and per-operator spans. Rendered by
//                    FormatExplainAnalyze.

#include <cstdint>
#include <string>

#include "ast/forward.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/stats.h"

namespace hql {

class MemoCache;

/// The static half of the report: everything known before running.
struct PlanReport {
  // Static shape.
  size_t arity = 0;
  size_t when_depth = 0;
  double tree_size = 0;
  uint64_t dag_size = 0;

  // Normal forms (textual syntax; all parse back).
  std::string enf;             // every state an explicit substitution
  std::string collapsed;       // HQL-2's clustered tree (debug rendering)
  std::string lazy;            // red(Q) after RA simplification
  bool lazy_is_empty = false;  // the rewriter proved the query empty
  double lazy_tree_size = 0;   // size of the (unsimplified) lazy rewrite
  bool has_mod_enf = false;    // HQL-3 can run on atomic deltas directly

  // Hybrid plan.
  std::string plan;
  int lazy_decisions = 0;
  int eager_decisions = 0;

  // Cost model.
  double estimated_cardinality = 0;
  double lazy_cost = 0;
  double hybrid_cost = 0;
  double state_materialization = 0;  // eager xsub tuples, all states
};

/// The combined view: static plan + a runtime snapshot.
struct ExplainReport : PlanReport {
  // The ambient context's execution-stats snapshot.
  ExecStats exec;

  // Memoizing subplan cache (populated when Explain is given one; these
  // are cache-lifetime counters, not per-execution ones).
  bool has_memo = false;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_evictions = 0;
  uint64_t memo_entries = 0;
  uint64_t memo_cached_tuples = 0;
  double memo_hit_rate = 0;
  // The same cache's hybrid plan entries.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_entries = 0;
};

/// Builds the static half only — no counters are read, nothing executes.
/// `stats` drives the cost numbers (use StatsCatalog::FromDatabase for
/// exact base cardinalities).
Result<PlanReport> ExplainPlan(const QueryPtr& query, const Schema& schema,
                               const StatsCatalog& stats);

/// Builds the combined report: ExplainPlan plus a snapshot of the ambient
/// ExecContext (the thread's installed context, else the process default).
/// A non-null `memo` adds the cache's hit/miss/eviction counters.
Result<ExplainReport> Explain(const QueryPtr& query, const Schema& schema,
                              const StatsCatalog& stats,
                              const MemoCache* memo = nullptr);

/// Multi-line human-readable rendering of the combined report.
std::string FormatExplain(const ExplainReport& report);

/// Options for ExplainAnalyze.
struct AnalyzeOptions {
  /// Execution route (all strategies agree on the value; see planner.h).
  Strategy strategy = Strategy::kHybrid;

  /// Per-operator span recording on the analysis context. On by default —
  /// that is what ANALYZE is for; turn off to measure counters only.
  bool tracing = true;

  /// Planner options for the traced execution (memo cache, index policy,
  /// budget, cancellation).
  PlannerOptions planner;
};

/// EXPLAIN ANALYZE: the static plan annotated with an actual execution.
struct AnalyzeReport {
  PlanReport plan;

  /// Exactly this execution's stats, from a fresh ExecContext installed
  /// around the run (tracing per AnalyzeOptions). Includes the route taken
  /// and the per-operator spans.
  ExecStats exec;

  uint64_t actual_rows = 0;   // result cardinality (vs estimated_cardinality)
  uint64_t wall_micros = 0;   // end-to-end wall time of the execution
};

/// Plans `query`, then executes it in `db` under a fresh traced
/// ExecContext and reports estimates and actuals side by side. The
/// execution's charges are merged into the caller's ambient context
/// afterwards, so analyzing a query never hides its work from enclosing
/// accounting. Errors from either planning or execution surface as the
/// Result's status.
Result<AnalyzeReport> ExplainAnalyze(const QueryPtr& query, const Database& db,
                                     const Schema& schema,
                                     const AnalyzeOptions& options = {});

/// Multi-line rendering: plan, estimated-vs-actual line, per-execution
/// counters, and a span table when tracing was on.
std::string FormatExplainAnalyze(const AnalyzeReport& report);

}  // namespace hql

#endif  // HQL_OPT_EXPLAIN_H_
