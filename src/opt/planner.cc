#include "opt/planner.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "ast/hypo.h"
#include "ast/metrics.h"
#include "ast/query.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "common/strings.h"
#include "eval/direct.h"
#include "eval/filter1.h"
#include "eval/filter2.h"
#include "eval/filter3.h"
#include "eval/memo.h"
#include "eval/ra_eval.h"
#include "hql/enf.h"
#include "hql/ra_rewrite.h"
#include "hql/reduce.h"
#include "hql/free_dom.h"
#include "hql/subst.h"
#include "opt/estimator.h"

namespace hql {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kDirect:
      return "direct";
    case Strategy::kLazy:
      return "lazy";
    case Strategy::kFilter1:
      return "filter1";
    case Strategy::kFilter2:
      return "filter2";
    case Strategy::kFilter3:
      return "filter3";
    case Strategy::kHybrid:
      return "hybrid";
  }
  return "?";
}

namespace {

// SimplifyMixed (hql/ra_rewrite.h) simplifies the pure-RA regions of a
// (possibly hypothetical) query; shared with the delta route's block
// preparation (eval/filter3.cc).

struct HybridWalker {
  const Schema& schema;
  const CardinalityEstimator estimator;
  const PlannerOptions& options;
  int lazy_decisions = 0;
  int eager_decisions = 0;

  HybridWalker(const Schema& s, const StatsCatalog& stats,
               const PlannerOptions& o)
      : schema(s), estimator(stats), options(o) {}

  Result<QueryPtr> Walk(const QueryPtr& q) {
    switch (q->kind()) {
      case QueryKind::kRel:
      case QueryKind::kEmpty:
      case QueryKind::kSingleton:
        return q;
      case QueryKind::kSelect: {
        HQL_ASSIGN_OR_RETURN(QueryPtr c, Walk(q->left()));
        return Query::Select(q->predicate(), std::move(c));
      }
      case QueryKind::kProject: {
        HQL_ASSIGN_OR_RETURN(QueryPtr c, Walk(q->left()));
        return Query::Project(q->columns(), std::move(c));
      }
      case QueryKind::kAggregate: {
        HQL_ASSIGN_OR_RETURN(QueryPtr c, Walk(q->left()));
        return Query::Aggregate(q->columns(), q->agg_func(), q->agg_column(),
                                std::move(c));
      }
      case QueryKind::kUnion:
      case QueryKind::kIntersect:
      case QueryKind::kProduct:
      case QueryKind::kDifference: {
        HQL_ASSIGN_OR_RETURN(QueryPtr l, Walk(q->left()));
        HQL_ASSIGN_OR_RETURN(QueryPtr r, Walk(q->right()));
        switch (q->kind()) {
          case QueryKind::kUnion:
            return Query::Union(std::move(l), std::move(r));
          case QueryKind::kIntersect:
            return Query::Intersect(std::move(l), std::move(r));
          case QueryKind::kProduct:
            return Query::Product(std::move(l), std::move(r));
          default:
            return Query::Difference(std::move(l), std::move(r));
        }
      }
      case QueryKind::kJoin: {
        HQL_ASSIGN_OR_RETURN(QueryPtr l, Walk(q->left()));
        HQL_ASSIGN_OR_RETURN(QueryPtr r, Walk(q->right()));
        return Query::Join(q->predicate(), std::move(l), std::move(r));
      }
      case QueryKind::kWhen:
        return WalkWhen(q);
    }
    return Status::Internal("unknown query kind in PlanHybrid");
  }

  Result<QueryPtr> WalkWhen(const QueryPtr& q) {
    HQL_CHECK(q->state()->kind() == HypoKind::kSubst);  // input is ENF
    HQL_ASSIGN_OR_RETURN(QueryPtr body, Walk(q->left()));
    std::vector<Binding> bindings;
    bool pure = IsPureRelAlg(body);
    for (const Binding& b : q->state()->bindings()) {
      HQL_ASSIGN_OR_RETURN(QueryPtr v, Walk(b.query));
      pure = pure && IsPureRelAlg(v);
      bindings.push_back(Binding{b.rel_name, std::move(v)});
    }
    HypoExprPtr state = HypoExpr::Subst(bindings);
    QueryPtr eager_form = Query::When(body, state);

    if (pure) {
      Substitution subst;
      for (const Binding& b : bindings) subst.Bind(b.rel_name, b.query);
      QueryPtr applied = subst.Apply(body);
      if (TreeSize(applied) <= options.max_lazy_tree_size) {
        double lazy_cost = estimator.EstimateCost(applied);
        double eager_cost =
            estimator.EstimateStateMaterialization(state) /
                std::max(1.0, options.reuse_count) +
            estimator.EstimateCost(eager_form);
        if (lazy_cost <= eager_cost) {
          ++lazy_decisions;
          return applied;
        }
      }
    }
    ++eager_decisions;
    return eager_form;
  }
};

// Sums, over every hypothetical state in `q`, the estimated tuples the
// state writes (materialization) and the current cardinality of the
// relations it writes (affected base) — the inputs to the delta-route
// decision.
void CollectStateLoad(const QueryPtr& q, const StatsCatalog& stats,
                      const CardinalityEstimator& estimator,
                      double* materialization, double* affected_base) {
  switch (q->kind()) {
    case QueryKind::kRel:
    case QueryKind::kEmpty:
    case QueryKind::kSingleton:
      return;
    case QueryKind::kSelect:
    case QueryKind::kProject:
    case QueryKind::kAggregate:
      CollectStateLoad(q->left(), stats, estimator, materialization,
                       affected_base);
      return;
    case QueryKind::kUnion:
    case QueryKind::kIntersect:
    case QueryKind::kProduct:
    case QueryKind::kJoin:
    case QueryKind::kDifference:
      CollectStateLoad(q->left(), stats, estimator, materialization,
                       affected_base);
      CollectStateLoad(q->right(), stats, estimator, materialization,
                       affected_base);
      return;
    case QueryKind::kWhen: {
      CollectStateLoad(q->left(), stats, estimator, materialization,
                       affected_base);
      // For {ins/del} chains the change is the atoms' arguments, not the
      // whole new relation value: charge the argument estimates.
      if (q->state()->kind() == HypoKind::kUpdateState) {
        std::vector<UpdatePtr> stack = {q->state()->update()};
        while (!stack.empty()) {
          UpdatePtr u = stack.back();
          stack.pop_back();
          switch (u->kind()) {
            case UpdateKind::kInsert:
            case UpdateKind::kDelete:
              *materialization += estimator.EstimateQuery(u->query());
              // For an overlay-backed relation the eager route pays for
              // consolidating base + delta, not just the current size.
              *affected_base += static_cast<double>(stats.UpperBoundOf(
                  u->rel_name(), stats.CardinalityOf(u->rel_name(), 1000)));
              break;
            case UpdateKind::kSeq:
              stack.push_back(u->first());
              stack.push_back(u->second());
              break;
            case UpdateKind::kCond:
              stack.push_back(u->then_branch());
              stack.push_back(u->else_branch());
              break;
          }
        }
      } else {
        *materialization +=
            estimator.EstimateStateMaterialization(q->state());
        for (const std::string& name : DomNames(q->state())) {
          *affected_base += static_cast<double>(
              stats.UpperBoundOf(name, stats.CardinalityOf(name, 1000)));
        }
      }
      return;
    }
  }
}

}  // namespace

Result<Plan> PlanHybrid(const QueryPtr& query, const Schema& schema,
                        const StatsCatalog& stats,
                        const PlannerOptions& options) {
  if (query == nullptr) {
    return Status::InvalidArgument("PlanHybrid: query must not be null");
  }
  HQL_ASSIGN_OR_RETURN(QueryPtr enf, ToEnf(query, schema));
  HybridWalker walker(schema, stats, options);
  HQL_ASSIGN_OR_RETURN(QueryPtr planned, walker.Walk(enf));
  if (options.simplify) {
    HQL_ASSIGN_OR_RETURN(planned, SimplifyMixed(planned, schema));
  }
  Plan plan;
  plan.query = std::move(planned);
  plan.lazy_decisions = walker.lazy_decisions;
  plan.eager_decisions = walker.eager_decisions;
  return plan;
}

namespace {

// Pure-RA evaluation on the lazy / hybrid-lazy routes, with incremental
// re-evaluation when the options enable it. The decision lattice:
//
//   cold cache ........................ full evaluation (recorded)
//   unpatchable (base replaced, leaf
//   uncovered, non-pure plan) ......... fallback counter + full evaluation
//   edit too large / estimator says
//   recompute ......................... fallback counter + full evaluation
//   propagation hits a rule gap
//   (kUnimplemented) .................. fallback counter + full evaluation
//   governor trip / cancellation ...... surfaces as the error it is
//   otherwise ......................... patch the cached result, O(|edit|)
//
// Every full evaluation runs with a recorder so the *next* edit can patch.
// Lives here rather than in eval/ because the estimator gate needs the
// opt-layer cost model (hql_opt already links hql_eval; the reverse
// dependency would cycle).
Result<Relation> EvalRaIncremental(const QueryPtr& query, const Database& db,
                                   const RelResolver& resolver, EvalMemo memo,
                                   const PlannerOptions& options) {
  const IncrementalConfig inc = options.incremental_config();
  if (!inc.enabled()) return EvalRa(query, resolver, memo);

  HQL_ASSIGN_OR_RETURN(IncrementalAttempt attempt,
                       ComputeIncrementalEdits(query, db, inc.cache));
  if (attempt.entry != nullptr) {
    bool patch = attempt.patchable;
    if (patch && attempt.edit_tuples > 0) {
      double changed = static_cast<double>(attempt.changed_relation_tuples);
      if (static_cast<double>(attempt.edit_tuples) >
          inc.max_edit_fraction * std::max(1.0, changed)) {
        patch = false;
      }
    }
    if (patch) {
      StatsCatalog stats = StatsCatalog::FromDatabase(db);
      CardinalityEstimator estimator(stats);
      double patch_cost = estimator.EstimateIncrementalCost(
          query, static_cast<double>(attempt.edit_tuples));
      if (patch_cost >= estimator.EstimateCost(query)) patch = false;
    }
    if (patch) {
      Result<RelationView> patched = ApplyIncrementalPatch(
          query, attempt, memo.state_fingerprint, inc.cache);
      if (patched.ok()) return patched->Materialize();
      if (patched.status().code() != StatusCode::kUnimplemented) {
        return patched.status();
      }
    }
    // A warm cache that could not serve this execution is the interesting
    // signal; a cold one is just the first run.
    AmbientExecContext().Add(ExecCounter::kIncrementalFallbacks);
  }

  IncrementalRecorder recorder;
  memo.recorder = &recorder;
  HQL_ASSIGN_OR_RETURN(RelationView out, EvalRaView(query, resolver, memo));
  inc.cache->Insert(query->Fingerprint(),
                    recorder.TakeEntry(out, memo.state_fingerprint));
  return out.Materialize();
}

// The hybrid strategy's decision for `query` in `db`. Delta route: if every
// state is an atomic update chain (mod-ENF) and the estimated change is a
// small fraction of the data, HQL-3's streaming operators beat both
// substitution and xsub materialization (Section 5.5). Otherwise
// PlanHybrid decides per `when` node. The rewrite nodes the planning
// charged are recorded with the decision.
Result<std::shared_ptr<const CachedPlan>> PlanHybridRoute(
    const QueryPtr& query, const Database& db, const Schema& schema,
    const PlannerOptions& options) {
  RewriteNodeTally tally;
  auto plan = std::make_shared<CachedPlan>();
  StatsCatalog stats = StatsCatalog::FromDatabase(db);
  bool delta = false;
  if (options.delta_fraction_threshold > 0 && !IsPureRelAlg(query) &&
      ToModEnf(query, schema).ok()) {
    CardinalityEstimator estimator(stats);
    double materialization = 0;
    double affected_base = 0;
    CollectStateLoad(query, stats, estimator, &materialization,
                     &affected_base);
    delta = affected_base > 0 &&
            materialization <
                options.delta_fraction_threshold * affected_base;
  }
  if (delta) {
    plan->route = CachedPlan::Route::kDelta;
  } else {
    HQL_ASSIGN_OR_RETURN(Plan planned,
                         PlanHybrid(query, schema, stats, options));
    plan->route = IsPureRelAlg(planned.query) ? CachedPlan::Route::kLazy
                                              : CachedPlan::Route::kEager;
    plan->query = std::move(planned.query);
  }
  plan->rewrite_nodes = tally.count();
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

// PlanHybridRoute behind the memo's plan entries. The key is the memo's
// (query, state) key mixed with every planner input that can change the
// decision. A hit replays the recorded rewrite-node charge, so a budget
// that would trip during planning still trips, and the fallback lattice
// sees the same error as on a cold run.
Result<std::shared_ptr<const CachedPlan>> HybridRouteFor(
    const QueryPtr& query, const Database& db, const Schema& schema,
    const PlannerOptions& options, uint64_t state_fingerprint) {
  if (options.memo == nullptr) {
    return PlanHybridRoute(query, db, schema, options);
  }
  uint64_t key = MemoKey(query->Fingerprint(), state_fingerprint);
  key = HashCombine(key, std::bit_cast<uint64_t>(options.reuse_count));
  key = HashCombine(key, std::bit_cast<uint64_t>(options.max_lazy_tree_size));
  key = HashCombine(key,
                    std::bit_cast<uint64_t>(options.delta_fraction_threshold));
  key = HashCombine(key, options.simplify ? 1 : 0);
  if (std::shared_ptr<const CachedPlan> hit = options.memo->LookupPlan(key)) {
    if (hit->rewrite_nodes > 0) {
      HQL_RETURN_IF_ERROR(GovernorChargeRewriteNodes(hit->rewrite_nodes));
    }
    return hit;
  }
  HQL_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                       PlanHybridRoute(query, db, schema, options));
  // The delta check swallows ToModEnf's errors; a trip it swallowed must
  // not leave a decision made under it behind.
  ExecGovernor* gov = CurrentGovernor();
  if (gov == nullptr || !gov->tripped()) options.memo->InsertPlan(key, plan);
  return plan;
}

// The strategy switch, run under whatever governor is ambient. Fallback and
// governor installation live in the public Execute wrapper below.
Result<Relation> ExecuteImpl(const QueryPtr& query, const Database& db,
                             const Schema& schema, Strategy strategy,
                             const PlannerOptions& options) {
  const IndexConfig icfg = options.index_config();
  const ColumnarConfig ccfg = options.columnar_config();
  // Each branch tags the ambient ExecContext (and any spans recorded below
  // it) with the execution route actually taken — the explain-analyze
  // answer to "which point of the lazy<->eager spectrum ran".
  switch (strategy) {
    case Strategy::kDirect: {
      ExecRouteScope route("direct");
      AmbientExecContext().NoteRoute("direct");
      return EvalDirect(query, db);
    }
    case Strategy::kLazy: {
      ExecRouteScope route("lazy");
      AmbientExecContext().NoteRoute("lazy");
      HQL_ASSIGN_OR_RETURN(QueryPtr reduced, Reduce(query, schema));
      if (options.simplify) {
        HQL_ASSIGN_OR_RETURN(reduced, SimplifyRa(reduced, schema));
      }
      DatabaseResolver resolver(db);
      return EvalRaIncremental(
          reduced, db, resolver,
          EvalMemo{options.memo, FingerprintState(db), icfg, ccfg}, options);
    }
    case Strategy::kFilter1: {
      ExecRouteScope route("eager");
      AmbientExecContext().NoteRoute("eager");
      HQL_ASSIGN_OR_RETURN(QueryPtr enf, ToEnf(query, schema));
      return RunFilter1(enf, db);
    }
    case Strategy::kFilter2: {
      ExecRouteScope route("eager");
      AmbientExecContext().NoteRoute("eager");
      HQL_ASSIGN_OR_RETURN(QueryPtr enf, ToEnf(query, schema));
      return RunFilter2(enf, db, schema);
    }
    case Strategy::kFilter3: {
      ExecRouteScope route("delta");
      AmbientExecContext().NoteRoute("delta");
      Filter3Options f3;
      f3.indexes = icfg;
      f3.columnar = ccfg;
      return RunFilter3(query, db, schema, f3);
    }
    case Strategy::kHybrid: {
      const uint64_t state_fingerprint = FingerprintState(db);
      HQL_ASSIGN_OR_RETURN(
          std::shared_ptr<const CachedPlan> plan,
          HybridRouteFor(query, db, schema, options, state_fingerprint));
      switch (plan->route) {
        case CachedPlan::Route::kDelta: {
          ExecRouteScope route("hybrid-delta");
          AmbientExecContext().NoteRoute("hybrid-delta");
          Filter3Options f3;
          f3.indexes = icfg;
          f3.columnar = ccfg;
          return RunFilter3(query, db, schema, f3);
        }
        case CachedPlan::Route::kLazy: {
          ExecRouteScope route("hybrid-lazy");
          AmbientExecContext().NoteRoute("hybrid-lazy");
          DatabaseResolver resolver(db);
          return EvalRaIncremental(
              plan->query, db, resolver,
              EvalMemo{options.memo, state_fingerprint, icfg, ccfg}, options);
        }
        case CachedPlan::Route::kEager: {
          ExecRouteScope route("hybrid-eager");
          AmbientExecContext().NoteRoute("hybrid-eager");
          return RunFilter2(plan->query, db, schema);
        }
      }
      return Status::Internal("unknown hybrid route");
    }
  }
  return Status::Internal("unknown strategy");
}

// Runs ExecuteImpl and, when the ambient governor tripped on the rewrite
// budget (the recoverable trip kind — an Example 2.4 blow-up caught before
// evaluation), retries along the fallback lattice lazy -> hybrid -> eager.
// The rewrite counter rewinds at each step; non-rewrite trips (deadline,
// tuple budget, cancellation) are never retried.
Result<Relation> ExecuteWithFallback(const QueryPtr& query, const Database& db,
                                     const Schema& schema, Strategy strategy,
                                     const PlannerOptions& options) {
  HQL_RETURN_IF_ERROR(GovernorCheck());  // cancel-before-start
  Result<Relation> result = ExecuteImpl(query, db, schema, strategy, options);
  ExecGovernor* gov = CurrentGovernor();
  PlannerOptions retry = options;
  while (!result.ok() && gov != nullptr && gov->rewrite_tripped() &&
         (strategy == Strategy::kLazy || strategy == Strategy::kHybrid)) {
    if (!gov->ClearRewriteTrip()) break;
    AmbientExecContext().Add(ExecCounter::kGovernorLazyFallbacks);
    if (strategy == Strategy::kLazy) {
      strategy = Strategy::kHybrid;
      // Clamp the hybrid planner's lazy expansion to the rewrite budget so
      // the retry plans eager where the reduction just blew up.
      if (options.budget.max_rewrite_nodes > 0) {
        retry.max_lazy_tree_size =
            std::min(retry.max_lazy_tree_size,
                     static_cast<double>(options.budget.max_rewrite_nodes));
      }
    } else {
      strategy = Strategy::kFilter2;
    }
    result = ExecuteImpl(query, db, schema, strategy, retry);
  }
  // A kernel trip at the plan root can leave a truncated relation behind an
  // OK status; the final check turns it into the trip error.
  if (result.ok()) HQL_RETURN_IF_ERROR(GovernorCheck());
  return result;
}

}  // namespace

Result<Relation> Execute(const QueryPtr& query, const Database& db,
                         const Schema& schema, Strategy strategy,
                         const PlannerOptions& options) {
  if (query == nullptr) {
    return Status::InvalidArgument("Execute: query must not be null");
  }
  // Install a governor when the options ask for one and none is ambient
  // (EvalAlternatives installs per-alternative governors before calling in).
  if (CurrentGovernor() == nullptr &&
      (!options.budget.unlimited() || options.cancel_token != nullptr)) {
    ExecGovernor gov(options.budget, options.cancel_token);
    GovernorScope scope(&gov);
    return ExecuteWithFallback(query, db, schema, strategy, options);
  }
  return ExecuteWithFallback(query, db, schema, strategy, options);
}

}  // namespace hql
