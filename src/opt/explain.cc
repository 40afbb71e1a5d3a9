#include "opt/explain.h"

#include <chrono>
#include <string_view>
#include <utility>

#include "ast/metrics.h"
#include "ast/query.h"
#include "ast/typecheck.h"
#include "common/strings.h"
#include "hql/collapse.h"
#include "hql/enf.h"
#include "hql/free_dom.h"
#include "hql/ra_rewrite.h"
#include "hql/reduce.h"
#include "eval/memo.h"
#include "opt/estimator.h"

namespace hql {

namespace {

// The per-execution counters, one line per group of the counter list:
// "group:      key=value key=value ...".
std::string FormatExecCounters(const ExecStats& stats) {
  std::string out;
  std::string_view group;
  for (const ExecCounterInfo& c : kExecCounters) {
    if (c.group != group) {
      if (!group.empty()) out += '\n';
      group = c.group;
      out += StrFormat("%-11s", (std::string(group) + ":").c_str());
    }
    out += StrFormat(" %s=%llu", c.key,
                     static_cast<unsigned long long>(stats[c.counter]));
  }
  out += '\n';
  return out;
}

}  // namespace

Result<PlanReport> ExplainPlan(const QueryPtr& query, const Schema& schema,
                               const StatsCatalog& stats) {
  PlanReport report;

  HQL_ASSIGN_OR_RETURN(report.arity, InferQueryArity(query, schema));
  report.when_depth = WhenDepth(query);
  report.tree_size = TreeSize(query);
  report.dag_size = DagSize(query);

  HQL_ASSIGN_OR_RETURN(QueryPtr enf, ToEnf(query, schema));
  report.enf = enf->ToString();
  HQL_ASSIGN_OR_RETURN(CollapsedPtr tree, Collapse(enf, schema));
  report.collapsed = CollapsedToString(tree);
  report.has_mod_enf = ToModEnf(query, schema).ok();

  HQL_ASSIGN_OR_RETURN(QueryPtr reduced, Reduce(query, schema));
  report.lazy_tree_size = TreeSize(reduced);
  HQL_ASSIGN_OR_RETURN(QueryPtr simplified, SimplifyRa(reduced, schema));
  report.lazy = simplified->ToString();
  report.lazy_is_empty = simplified->kind() == QueryKind::kEmpty;

  HQL_ASSIGN_OR_RETURN(Plan plan, PlanHybrid(query, schema, stats));
  report.plan = plan.query->ToString();
  report.lazy_decisions = plan.lazy_decisions;
  report.eager_decisions = plan.eager_decisions;

  CardinalityEstimator estimator(stats);
  report.estimated_cardinality = estimator.EstimateQuery(query);
  report.lazy_cost = estimator.EstimateCost(simplified);
  report.hybrid_cost = estimator.EstimateCost(plan.query);
  double materialization = 0;
  if (enf->kind() == QueryKind::kWhen) {
    materialization =
        estimator.EstimateStateMaterialization(enf->state());
  }
  report.state_materialization = materialization;
  return report;
}

Result<ExplainReport> Explain(const QueryPtr& query, const Schema& schema,
                              const StatsCatalog& stats,
                              const MemoCache* memo) {
  ExplainReport report;
  HQL_ASSIGN_OR_RETURN(static_cast<PlanReport&>(report),
                       ExplainPlan(query, schema, stats));
  report.exec = AmbientExecContext().Snapshot();

  if (memo != nullptr) {
    MemoCache::Stats cache = memo->stats();
    report.has_memo = true;
    report.memo_hits = cache.hits;
    report.memo_misses = cache.misses;
    report.memo_evictions = cache.evictions;
    report.memo_entries = cache.entries;
    report.memo_cached_tuples = cache.cached_tuples;
    report.memo_hit_rate = cache.HitRate();
    LruStats plans = memo->plan_stats();
    report.plan_cache_hits = plans.hits;
    report.plan_cache_misses = plans.misses;
    report.plan_cache_entries = plans.entries;
  }
  return report;
}

Result<AnalyzeReport> ExplainAnalyze(const QueryPtr& query, const Database& db,
                                     const Schema& schema,
                                     const AnalyzeOptions& options) {
  AnalyzeReport report;
  StatsCatalog stats = StatsCatalog::FromDatabase(db);
  HQL_ASSIGN_OR_RETURN(report.plan, ExplainPlan(query, schema, stats));

  // Execute under a fresh context so the report holds exactly this run's
  // work; the parent context is captured first so the charges still
  // propagate to whoever is accounting for us.
  ExecContext& parent = AmbientExecContext();
  ExecContext ctx;
  ctx.set_tracing(options.tracing);
  Result<Relation> result = Status::Internal("analyze never ran");
  uint64_t wall = 0;
  {
    ExecContextScope scope(&ctx);
    auto start = std::chrono::steady_clock::now();
    result = Execute(query, db, schema, options.strategy, options.planner);
    wall = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  ExecStats run = ctx.Snapshot();
  parent.MergeFrom(run);
  HQL_RETURN_IF_ERROR(result.status());

  report.exec = std::move(run);
  report.actual_rows = result.value().size();
  report.wall_micros = wall;
  return report;
}

std::string FormatExplain(const ExplainReport& report) {
  std::string out;
  out += StrFormat(
      "shape:      arity %zu, when-depth %zu, tree %.0f nodes, dag %llu "
      "nodes\n",
      report.arity, report.when_depth, report.tree_size,
      static_cast<unsigned long long>(report.dag_size));
  out += "enf:        " + report.enf + "\n";
  out += "collapsed:  " + report.collapsed + "\n";
  out += StrFormat("lazy (%.0f nodes before simplification):\n",
                   report.lazy_tree_size);
  out += "            " + report.lazy + "\n";
  if (report.lazy_is_empty) {
    out += "            (statically empty: no evaluation needed)\n";
  }
  out += "plan:       " + report.plan + "\n";
  out += StrFormat("decisions:  %d lazy, %d eager; mod-ENF (HQL-3): %s\n",
                   report.lazy_decisions, report.eager_decisions,
                   report.has_mod_enf ? "yes" : "via precise deltas");
  out += StrFormat(
      "estimates:  |result| ~%.0f, lazy cost ~%.0f, hybrid cost ~%.0f, "
      "state materialization ~%.0f tuples\n",
      report.estimated_cardinality, report.lazy_cost, report.hybrid_cost,
      report.state_materialization);
  if (report.has_memo) {
    out += StrFormat(
        "memo:       %llu hits, %llu misses (%.1f%% hit rate), %llu "
        "evictions; %llu entries holding %llu tuples\n",
        static_cast<unsigned long long>(report.memo_hits),
        static_cast<unsigned long long>(report.memo_misses),
        report.memo_hit_rate * 100.0,
        static_cast<unsigned long long>(report.memo_evictions),
        static_cast<unsigned long long>(report.memo_entries),
        static_cast<unsigned long long>(report.memo_cached_tuples));
    out += StrFormat(
        "plans:      %llu hits, %llu misses; %llu entries\n",
        static_cast<unsigned long long>(report.plan_cache_hits),
        static_cast<unsigned long long>(report.plan_cache_misses),
        static_cast<unsigned long long>(report.plan_cache_entries));
  }
  out += FormatExecCounters(report.exec);
  return out;
}

std::string FormatExplainAnalyze(const AnalyzeReport& report) {
  const PlanReport& plan = report.plan;
  std::string out;
  out += StrFormat(
      "shape:      arity %zu, when-depth %zu, tree %.0f nodes, dag %llu "
      "nodes\n",
      plan.arity, plan.when_depth, plan.tree_size,
      static_cast<unsigned long long>(plan.dag_size));
  out += "plan:       " + plan.plan + "\n";
  out += StrFormat("decisions:  %d lazy, %d eager; mod-ENF (HQL-3): %s\n",
                   plan.lazy_decisions, plan.eager_decisions,
                   plan.has_mod_enf ? "yes" : "via precise deltas");
  out += StrFormat(
      "estimated:  |result| ~%.0f, lazy cost ~%.0f, hybrid cost ~%.0f, "
      "state materialization ~%.0f tuples\n",
      plan.estimated_cardinality, plan.lazy_cost, plan.hybrid_cost,
      plan.state_materialization);
  out += StrFormat(
      "actual:     |result| %llu rows in %.3f ms via %s\n",
      static_cast<unsigned long long>(report.actual_rows),
      static_cast<double>(report.wall_micros) / 1000.0,
      report.exec.route.empty() ? "(unrouted)" : report.exec.route.c_str());
  out += FormatExecCounters(report.exec);
  if (!report.exec.spans.empty()) {
    out += "spans:      operator          route          rows in -> out"
           "      micros\n";
    for (const OperatorSpan& span : report.exec.spans) {
      out += StrFormat("            %-16s  %-12s  %8llu -> %-8llu  %8llu\n",
                       span.op.c_str(),
                       span.route.empty() ? "-" : span.route.c_str(),
                       static_cast<unsigned long long>(span.rows_in),
                       static_cast<unsigned long long>(span.rows_out),
                       static_cast<unsigned long long>(span.micros));
    }
  }
  return out;
}

}  // namespace hql
