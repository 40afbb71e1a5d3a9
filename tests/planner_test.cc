#include "opt/planner.h"

#include <gtest/gtest.h>

#include "ast/builders.h"
#include "ast/metrics.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "eval/memo.h"
#include "opt/estimator.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

TEST(EstimatorTest, BaseCases) {
  StatsCatalog stats;
  stats.SetCardinality("R", 1000, 2);
  stats.SetCardinality("S", 100, 2);
  CardinalityEstimator est(stats);
  EXPECT_DOUBLE_EQ(est.EstimateQuery(Rel("R")), 1000.0);
  EXPECT_DOUBLE_EQ(est.EstimateQuery(Empty(2)), 0.0);
  EXPECT_DOUBLE_EQ(est.EstimateQuery(Single({Value::Int(1)})), 1.0);
  EXPECT_DOUBLE_EQ(est.EstimateQuery(U(Rel("R"), Rel("S"))), 1100.0);
  EXPECT_DOUBLE_EQ(est.EstimateQuery(X(Rel("R"), Rel("S"))), 100000.0);
  // Selection shrinks; equality shrinks more than range.
  double eq = est.EstimateQuery(Sel(Eq(Col(0), Int(1)), Rel("R")));
  double range = est.EstimateQuery(Sel(Gt(Col(0), Int(1)), Rel("R")));
  EXPECT_LT(eq, range);
  EXPECT_LT(range, 1000.0);
}

TEST(EstimatorTest, HypotheticalStatesAdjustEnvironment) {
  StatsCatalog stats;
  stats.SetCardinality("R", 1000, 2);
  stats.SetCardinality("S", 100, 2);
  CardinalityEstimator est(stats);
  // R when {ins(R, S)}: R reads as ~1100.
  double card =
      est.EstimateQuery(When(Rel("R"), Upd(Ins("R", Rel("S")))));
  EXPECT_DOUBLE_EQ(card, 1100.0);
  // Deletions shrink.
  double del_card =
      est.EstimateQuery(When(Rel("R"), Upd(Del("R", Rel("S")))));
  EXPECT_LT(del_card, 1000.0);
  // Substitution replaces outright.
  double subst_card = est.EstimateQuery(When(Rel("R"), Sub1(Rel("S"), "R")));
  EXPECT_DOUBLE_EQ(subst_card, 100.0);
}

TEST(EstimatorTest, CostChargesRepeatedWork) {
  // The C_out cost model charges an inlined binding per occurrence, which
  // is what lets the planner see the eager side's advantage under reuse.
  StatsCatalog stats;
  stats.SetCardinality("R", 1000, 2);
  stats.SetCardinality("S", 1000, 2);
  CardinalityEstimator est(stats);
  QueryPtr binding = U(Rel("S"), Rel("S"));
  QueryPtr once = binding;
  QueryPtr twice = U(binding, binding);
  EXPECT_GT(est.EstimateCost(twice), 1.5 * est.EstimateCost(once));
  // Cost dominates cardinality for deep plans: a join's cost includes its
  // children.
  QueryPtr join = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  EXPECT_GT(est.EstimateCost(join), est.EstimateQuery(join));
}

TEST(EstimatorTest, CostOfWhenIncludesStateMaterialization) {
  StatsCatalog stats;
  stats.SetCardinality("R", 1000, 2);
  stats.SetCardinality("S", 500, 2);
  CardinalityEstimator est(stats);
  QueryPtr bare = Sel(Gt(Col(0), Int(1)), Rel("R"));
  QueryPtr hypothetical =
      Query::When(bare, Upd(Ins("R", Sel(Gt(Col(0), Int(2)), Rel("S")))));
  EXPECT_GT(est.EstimateCost(hypothetical), est.EstimateCost(bare));
  // Aggregates shrink estimated cardinality.
  EXPECT_LT(est.EstimateQuery(Agg({0}, AggFunc::kCount, 1, Rel("R"))),
            est.EstimateQuery(Rel("R")));
}

TEST(EstimatorTest, ColumnarScanCostMirrorsExecutorGate) {
  StatsCatalog stats;
  stats.SetCardinality("Big", 1000000, 2);
  stats.SetCardinality("Tiny", 100, 2);
  CardinalityEstimator est(stats);
  // Per-morsel setup plus a discounted per-row charge: strictly cheaper
  // than the row scan on a large base, and cheaper with larger morsels
  // (fewer dispatches).
  double cost = est.EstimateColumnarScanCost("Big", 65536);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, est.EstimateScanCost("Big"));
  EXPECT_LT(cost, est.EstimateColumnarScanCost("Big", 1024));
  // The win gate applies the executor's min_rows threshold: a tiny base
  // never takes the columnar route even though its loop cost is lower.
  EXPECT_TRUE(est.ColumnarScanWins("Big", 4096, 65536));
  EXPECT_FALSE(est.ColumnarScanWins("Tiny", 4096, 65536));
  EXPECT_TRUE(est.ColumnarScanWins("Tiny", 1, 65536));
}

TEST(PlannerTest, AllStrategiesAgreeRandomized) {
  // The headline property: every point of the lazy<->eager spectrum
  // computes the same value.
  Rng rng(191);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    for (Strategy s : {Strategy::kLazy, Strategy::kFilter1,
                       Strategy::kFilter2, Strategy::kHybrid}) {
      auto result = Execute(q, db, schema, s);
      ASSERT_TRUE(result.ok())
          << StrategyName(s) << ": " << result.status().ToString();
      EXPECT_EQ(result.value(), reference)
          << StrategyName(s) << " on " << q->ToString();
    }
    ASSERT_OK_AND_ASSIGN(Relation f3,
                         Execute(q, db, schema, Strategy::kFilter3));
    EXPECT_EQ(f3, reference) << "filter3 on " << q->ToString();
  }
}

TEST(PlannerTest, AllStrategiesAgreeWithConditionals) {
  Rng rng(193);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  for (int trial = 0; trial < 100; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    for (Strategy s :
         {Strategy::kLazy, Strategy::kFilter1, Strategy::kFilter2,
          Strategy::kHybrid}) {
      auto result = Execute(q, db, schema, s);
      ASSERT_TRUE(result.ok())
          << StrategyName(s) << ": " << result.status().ToString();
      EXPECT_EQ(result.value(), reference) << StrategyName(s);
    }
  }
}

TEST(PlannerTest, HybridGoesLazyForCheapSubstitutions) {
  // A tiny body with one occurrence of the bound name: substitution wins.
  Schema schema = MakeSchema({{"R", 1}, {"S", 1}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1}})));
  ASSERT_OK(db.Set("S", Ints({{2}})));
  StatsCatalog stats = StatsCatalog::FromDatabase(db);
  QueryPtr q = When(Rel("R"), Upd(Ins("R", Rel("S"))));
  ASSERT_OK_AND_ASSIGN(Plan plan, PlanHybrid(q, schema, stats));
  EXPECT_EQ(plan.lazy_decisions, 1);
  EXPECT_EQ(plan.eager_decisions, 0);
  EXPECT_TRUE(IsPureRelAlg(plan.query));
}

TEST(PlannerTest, HybridGuardsAgainstBlowup) {
  // The Example 2.4 chain: the planner must refuse to substitute once the
  // rewritten tree would exceed the cap.
  BlowupSpec spec = BlowupChain(12);
  StatsCatalog stats;
  PlannerOptions options;
  options.max_lazy_tree_size = 500.0;
  ASSERT_OK_AND_ASSIGN(Plan plan,
                       PlanHybrid(spec.query, spec.schema, stats, options));
  EXPECT_GT(plan.eager_decisions, 0);
  // The planned query never exceeds the cap.
  EXPECT_LE(TreeSize(plan.query), 4.0 * 500.0);
}

TEST(PlannerTest, ReuseCountPushesTowardEager) {
  // With heavy reuse, materialization amortizes: expect at least as many
  // eager decisions as with reuse 1 on a body that repeats the bound name.
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  StatsCatalog stats;
  stats.SetCardinality("R", 10000, 2);
  stats.SetCardinality("S", 10000, 2);
  // Body uses R four times: substitution duplicates the state query.
  QueryPtr body = U(U(Rel("R"), Rel("R")),
                    U(Rel("R"), Sel(Gt(Col(0), Int(1)), Rel("R"))));
  QueryPtr q = When(body, Upd(Ins("R", Sel(Gt(Col(0), Int(2)), Rel("S")))));

  PlannerOptions once;
  once.reuse_count = 1.0;
  ASSERT_OK_AND_ASSIGN(Plan plan_once, PlanHybrid(q, schema, stats, once));

  PlannerOptions many;
  many.reuse_count = 1000.0;
  ASSERT_OK_AND_ASSIGN(Plan plan_many, PlanHybrid(q, schema, stats, many));

  EXPECT_GE(plan_many.eager_decisions, plan_once.eager_decisions);
}

TEST(PlannerTest, LazySimplifiesToEmpty) {
  // Example 2.4(b): with a difference in the chain, the lazy strategy plus
  // RA rewriting collapses the whole query to empty — no data touched.
  BlowupSpec spec = BlowupChainWithDifference(10, 5);
  Database db(spec.schema);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Execute(spec.query, db, spec.schema, Strategy::kLazy));
  EXPECT_TRUE(out.empty());
}

TEST(PlannerTest, DeltaRoutePreservesSemantics) {
  // The hybrid delta route (Section 5.5 dispatch) must never change
  // results, only the engine: compare against a hybrid with the route
  // disabled on random update-chain queries.
  Rng rng(197);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_compose = false;
  PlannerOptions no_delta;
  no_delta.delta_fraction_threshold = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    Database db = RandomDatabase(&rng, schema, 8, 8);
    QueryPtr q = Query::When(RandomQuery(&rng, schema, 2, options),
                             Upd(RandomUpdate(&rng, schema, options)));
    ASSERT_OK_AND_ASSIGN(Relation with_route,
                         Execute(q, db, schema, Strategy::kHybrid));
    ASSERT_OK_AND_ASSIGN(
        Relation without_route,
        Execute(q, db, schema, Strategy::kHybrid, no_delta));
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    EXPECT_EQ(with_route, reference) << q->ToString();
    EXPECT_EQ(without_route, reference) << q->ToString();
  }
}

// ---------------------------------------------------------------------------
// Plan entries on the memo: the hybrid route's decision, cached per
// (query, state, planner inputs).

struct Traced {
  Result<Relation> result = Status::Internal("never ran");
  ExecStats stats;
};

Traced ExecuteHybridTraced(const QueryPtr& q, const Database& db,
                           const PlannerOptions& options) {
  ExecContext ctx;
  Traced out;
  {
    ExecContextScope scope(&ctx);
    out.result = Execute(q, db, db.schema(), Strategy::kHybrid, options);
  }
  out.stats = ctx.Snapshot();
  return out;
}

Database PlanCacheDb() {
  Database db(MakeSchema({{"R", 2}, {"S", 2}}));
  HQL_CHECK(db.Set("R", Ints({{1, 10}, {2, 20}, {3, 30}})).ok());
  HQL_CHECK(db.Set("S", Ints({{4, 40}})).ok());
  return db;
}

// A cheap substitution: the hybrid route plans it lazy, and evaluation
// charges no rewrite nodes of its own.
QueryPtr PlanCacheQuery() {
  return When(Sel(Gt(Col(0), Int(1)), Rel("R")), Upd(Ins("R", Rel("S"))));
}

TEST(PlanCacheTest, WarmHitIsBitIdenticalToCold) {
  Rng rng(1997);
  Schema schema = PropertySchema();
  AstGenOptions gen;
  gen.max_depth = 3;
  MemoCache memo;
  PlannerOptions options;
  options.memo = &memo;
  for (int trial = 0; trial < 100; ++trial) {
    Database db = RandomDatabase(&rng, schema, 8, 8);
    QueryPtr q = Query::When(RandomQuery(&rng, schema, 2, gen),
                             RandomHypo(&rng, schema, gen));
    // A plan is admitted on its key's second miss and served from the
    // third run on.
    Traced cold = ExecuteHybridTraced(q, db, options);
    Traced admit = ExecuteHybridTraced(q, db, options);
    Traced warm = ExecuteHybridTraced(q, db, options);
    ASSERT_OK(cold.result.status());
    ASSERT_OK(warm.result.status());
    EXPECT_EQ(cold.stats.plan_cache_misses, 1u) << q->ToString();
    EXPECT_EQ(admit.stats.plan_cache_misses, 1u) << q->ToString();
    EXPECT_EQ(warm.stats.plan_cache_hits, 1u) << q->ToString();
    EXPECT_EQ(warm.stats.plan_cache_misses, 0u) << q->ToString();
    EXPECT_EQ(warm.stats.route, cold.stats.route) << q->ToString();
    EXPECT_EQ(warm.result.value(), cold.result.value()) << q->ToString();
    EXPECT_EQ(warm.result.value().Hash(), cold.result.value().Hash());
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    EXPECT_EQ(warm.result.value(), reference) << q->ToString();
  }
}

TEST(PlanCacheTest, StateAndEveryKeyedInputMiss) {
  Database db = PlanCacheDb();
  QueryPtr q = PlanCacheQuery();
  MemoCache memo;
  PlannerOptions options;
  options.memo = &memo;
  ExecuteHybridTraced(q, db, options);
  EXPECT_EQ(memo.plan_stats().entries, 0u);  // not yet admitted
  ExecuteHybridTraced(q, db, options);
  EXPECT_EQ(memo.plan_stats().entries, 1u);
  EXPECT_EQ(ExecuteHybridTraced(q, db, options).stats.plan_cache_hits, 1u);

  auto misses = [&](const Database& d, const PlannerOptions& o) {
    ExecStats stats = ExecuteHybridTraced(q, d, o).stats;
    return stats.plan_cache_misses == 1 && stats.plan_cache_hits == 0;
  };
  PlannerOptions reuse = options;
  reuse.reuse_count = 4.0;
  EXPECT_TRUE(misses(db, reuse));
  PlannerOptions tree = options;
  tree.max_lazy_tree_size = 50.0;
  EXPECT_TRUE(misses(db, tree));
  PlannerOptions delta = options;
  delta.delta_fraction_threshold = 0.5;
  EXPECT_TRUE(misses(db, delta));
  PlannerOptions raw = options;
  raw.simplify = false;
  EXPECT_TRUE(misses(db, raw));
  Database edited = db;
  ASSERT_OK(edited.Set("S", Ints({{5, 50}})));
  EXPECT_TRUE(misses(edited, options));
  // Options the plan does not depend on share the entry.
  PlannerOptions columnar = options;
  columnar.columnar_mode = ColumnarMode::kAuto;
  EXPECT_EQ(ExecuteHybridTraced(q, db, columnar).stats.plan_cache_hits, 1u);
}

TEST(PlanCacheTest, MemoOffNeverConsultsPlanEntries) {
  Database db = PlanCacheDb();
  QueryPtr q = PlanCacheQuery();
  for (int i = 0; i < 3; ++i) {
    Traced run = ExecuteHybridTraced(q, db, PlannerOptions());
    ASSERT_OK(run.result.status());
    EXPECT_EQ(run.stats.plan_cache_hits, 0u);
    EXPECT_EQ(run.stats.plan_cache_misses, 0u);
  }
  // A zero-capacity memo keeps no plans either.
  MemoCache off(0);
  PlannerOptions options;
  options.memo = &off;
  ExecuteHybridTraced(q, db, options);
  ExecuteHybridTraced(q, db, options);
  EXPECT_EQ(ExecuteHybridTraced(q, db, options).stats.plan_cache_hits, 0u);
  EXPECT_EQ(off.plan_stats().entries, 0u);
}

// A plan cached without a budget, then served under a rewrite budget below
// the charge it recorded, must fail, fall back and answer exactly as a
// cold planning under that budget does.
TEST(PlanCacheTest, HitReplaysTheRecordedRewriteCharge) {
  Database db = PlanCacheDb();
  QueryPtr q = PlanCacheQuery();
  uint64_t charge = 0;
  {
    RewriteNodeTally tally;
    ASSERT_OK(Execute(q, db, db.schema(), Strategy::kHybrid).status());
    charge = tally.count();
  }
  ASSERT_GE(charge, 2u);
  for (uint64_t budget : {charge - 1, charge}) {
    SCOPED_TRACE(budget);
    PlannerOptions budgeted;
    budgeted.budget.max_rewrite_nodes = budget;
    MemoCache fresh;
    budgeted.memo = &fresh;
    Traced cold = ExecuteHybridTraced(q, db, budgeted);
    ExecuteHybridTraced(q, db, budgeted);  // would admit an untripped plan

    MemoCache primed;
    PlannerOptions unbudgeted;
    unbudgeted.memo = &primed;
    for (int i = 0; i < 2; ++i) {
      ASSERT_OK(ExecuteHybridTraced(q, db, unbudgeted).result.status());
    }
    budgeted.memo = &primed;
    Traced warm = ExecuteHybridTraced(q, db, budgeted);

    EXPECT_EQ(warm.stats.plan_cache_hits, 1u);
    EXPECT_EQ(warm.result.status().code(), cold.result.status().code());
    EXPECT_EQ(warm.result.status().message(), cold.result.status().message());
    EXPECT_EQ(warm.stats.governor_rewrite_trips,
              cold.stats.governor_rewrite_trips);
    EXPECT_EQ(warm.stats.governor_lazy_fallbacks,
              cold.stats.governor_lazy_fallbacks);
    EXPECT_EQ(warm.stats.route, cold.stats.route);
    if (cold.result.ok() && warm.result.ok()) {
      EXPECT_EQ(warm.result.value(), cold.result.value());
    }
    if (budget < charge) {
      // The cold plannings tripped, so they left no entry behind.
      EXPECT_GE(cold.stats.governor_rewrite_trips, 1u);
      EXPECT_EQ(fresh.plan_stats().entries, 0u);
    } else {
      EXPECT_EQ(cold.stats.governor_rewrite_trips, 0u);
      EXPECT_EQ(fresh.plan_stats().entries, 1u);
    }
  }
}

TEST(PlannerTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kDirect), "direct");
  EXPECT_STREQ(StrategyName(Strategy::kLazy), "lazy");
  EXPECT_STREQ(StrategyName(Strategy::kFilter1), "filter1");
  EXPECT_STREQ(StrategyName(Strategy::kFilter2), "filter2");
  EXPECT_STREQ(StrategyName(Strategy::kFilter3), "filter3");
  EXPECT_STREQ(StrategyName(Strategy::kHybrid), "hybrid");
}

}  // namespace
}  // namespace hql
