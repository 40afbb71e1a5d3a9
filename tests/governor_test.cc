// The execution governor: budget edge cases (exact tuple budgets, deadlines
// expiring mid-join, rewrite blow-up trips and the lazy -> hybrid -> eager
// fallback lattice), cooperative cancellation, and per-alternative isolation
// in EvalAlternatives.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ast/builders.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "common/rng.h"
#include "opt/planner.h"
#include "opt/session.h"
#include "storage/index.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using hql::testing::Ints;
using hql::testing::MakeSchema;

// ---------------------------------------------------------------------------
// ExecGovernor unit tests.
// ---------------------------------------------------------------------------

TEST(ExecGovernorTest, UnlimitedGovernorNeverTrips) {
  ExecGovernor gov;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(gov.ChargeTuples(17));
    EXPECT_TRUE(gov.Tick(1));
    EXPECT_TRUE(gov.ChargeRewriteNodes(5));
  }
  EXPECT_OK(gov.Check());
  EXPECT_FALSE(gov.tripped());
}

TEST(ExecGovernorTest, TupleBudgetExactBoundary) {
  ExecBudget budget;
  budget.max_tuples = 10;
  ExecGovernor gov(budget);
  // Charging exactly the budget succeeds...
  EXPECT_TRUE(gov.ChargeTuples(4));
  EXPECT_TRUE(gov.ChargeTuples(6));
  EXPECT_OK(gov.Check());
  // ...one more tuple trips with kResourceExhausted.
  EXPECT_FALSE(gov.ChargeTuples(1));
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.status().code(), StatusCode::kResourceExhausted);
  // Once tripped, everything keeps failing (loops break out).
  EXPECT_FALSE(gov.ChargeTuples(1));
  EXPECT_FALSE(gov.Tick(1));
}

TEST(ExecGovernorTest, CancelTokenObservedWithinOneCheckInterval) {
  ExecBudget budget;
  budget.check_interval = 16;
  auto token = std::make_shared<CancelToken>();
  ExecGovernor gov(budget, token);
  EXPECT_TRUE(gov.Tick(1));
  token->Cancel();
  // Within one check interval the tick path must observe the token.
  bool observed = false;
  for (int i = 0; i < 16; ++i) {
    if (!gov.Tick(1)) {
      observed = true;
      break;
    }
  }
  EXPECT_TRUE(observed);
  EXPECT_EQ(gov.status().code(), StatusCode::kCancelled);
  // Check() observes it regardless of cadence.
  ExecGovernor gov2(ExecBudget{}, token);
  EXPECT_EQ(gov2.Check().code(), StatusCode::kCancelled);
}

TEST(ExecGovernorTest, DeadlineTrips) {
  ExecBudget budget;
  budget.deadline_ms = 1;
  ExecGovernor gov(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status st = gov.Check();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("deadline"), std::string::npos);

  // A deadline past the clock's range saturates rather than overflowing
  // into the past.
  budget.deadline_ms = std::numeric_limits<int64_t>::max();
  ExecGovernor far(budget);
  EXPECT_OK(far.Check());
}

TEST(ExecGovernorTest, ClearRewriteTripOnlyClearsRewriteTrips) {
  ExecBudget budget;
  budget.max_rewrite_nodes = 100;
  ExecGovernor gov(budget);
  EXPECT_TRUE(gov.ChargeRewriteNodes(100));  // exactly the budget is fine
  EXPECT_FALSE(gov.ChargeRewriteNodes(1));   // one more trips
  EXPECT_TRUE(gov.tripped());
  EXPECT_TRUE(gov.rewrite_tripped());
  // Clearing rewinds the counter so a fallback's own rewrites start fresh.
  EXPECT_TRUE(gov.ClearRewriteTrip());
  EXPECT_FALSE(gov.tripped());
  EXPECT_EQ(gov.rewrite_nodes_charged(), 0u);
  EXPECT_TRUE(gov.ChargeRewriteNodes(50));
  // A non-rewrite trip is not clearable.
  gov.Trip(StatusCode::kCancelled, "test cancel");
  EXPECT_FALSE(gov.ClearRewriteTrip());
  EXPECT_EQ(gov.status().code(), StatusCode::kCancelled);
}

TEST(ExecGovernorTest, AllowIndexBuildCapsByBaseRows) {
  ExecBudget budget;
  budget.max_index_build_rows = 100;
  ExecGovernor gov(budget);
  EXPECT_TRUE(gov.AllowIndexBuild(100));
  EXPECT_FALSE(gov.AllowIndexBuild(101));
  ExecGovernor unlimited;
  EXPECT_TRUE(unlimited.AllowIndexBuild(1u << 30));
  gov.Trip(StatusCode::kCancelled, "stop");
  EXPECT_FALSE(gov.AllowIndexBuild(1));  // tripped governors build nothing
}

TEST(ExecGovernorTest, ScopesNestAndShield) {
  EXPECT_EQ(CurrentGovernor(), nullptr);
  ExecGovernor outer;
  {
    GovernorScope outer_scope(&outer);
    EXPECT_EQ(CurrentGovernor(), &outer);
    ExecGovernor inner;
    {
      GovernorScope inner_scope(&inner);
      EXPECT_EQ(CurrentGovernor(), &inner);
      {
        GovernorScope shield(nullptr);  // shields an inner region
        EXPECT_EQ(CurrentGovernor(), nullptr);
        EXPECT_OK(GovernorCheck());
      }
      EXPECT_EQ(CurrentGovernor(), &inner);
    }
    EXPECT_EQ(CurrentGovernor(), &outer);
  }
  EXPECT_EQ(CurrentGovernor(), nullptr);
}

// ---------------------------------------------------------------------------
// Governed Execute: budget edges end to end.
// ---------------------------------------------------------------------------

Database SmallDb(const Schema& schema) {
  Database db(schema);
  HQL_CHECK(db.Set("R", Ints({{0, 10},
                              {1, 11},
                              {2, 12},
                              {3, 13},
                              {4, 14},
                              {5, 15},
                              {6, 16},
                              {7, 17}}))
                .ok());
  return db;
}

TEST(GovernedExecuteTest, TupleBudgetExactlyResultSizeSucceeds) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db = SmallDb(schema);
  QueryPtr q = Sel(Ge(Col(0), Int(0)), Rel("R"));  // emits all 8 rows
  ASSERT_OK_AND_ASSIGN(Relation reference,
                       Execute(q, db, schema, Strategy::kDirect));
  ASSERT_EQ(reference.size(), 8u);

  PlannerOptions options;
  options.budget.max_tuples = 8;  // exactly the operator output: must pass
  ASSERT_OK_AND_ASSIGN(
      Relation out, Execute(q, db, schema, Strategy::kDirect, options));
  EXPECT_EQ(out, reference);

  ExecContext ctx;
  ExecContextScope scope(&ctx);
  options.budget.max_tuples = 7;  // one short: must trip, not truncate
  auto result = Execute(q, db, schema, Strategy::kDirect, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ctx.Snapshot().governor_tuple_trips, 1u);
}

TEST(GovernedExecuteTest, DeadlineExpiresMidJoin) {
  Rng rng(23);
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 2000, 2, 100000)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 2000, 2, 100000)));
  // A 2000 x 2000 product: four million output tuples, far past any 1 ms
  // deadline. The governor must stop it cooperatively mid-kernel.
  QueryPtr q = X(Rel("R"), Rel("S"));
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  PlannerOptions options;
  options.budget.deadline_ms = 1;
  auto result = Execute(q, db, schema, Strategy::kDirect, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
  EXPECT_GE(ctx.Snapshot().governor_deadline_trips, 1u);
}

// The product kernel charges every output tuple: R x S with 500 rows each
// (250,000 output tuples) trips a 1,000-tuple budget under every strategy,
// and a budget of exactly |R| * |S| passes.
TEST(GovernedExecuteTest, ProductChargesEveryOutputTuple) {
  Rng rng(29);
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 500, 2, 100000)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 500, 2, 100000)));
  const uint64_t product_size =
      static_cast<uint64_t>(db.GetRef("R").size()) * db.GetRef("S").size();
  ASSERT_EQ(product_size, 250000u);
  QueryPtr q = X(Rel("R"), Rel("S"));
  for (Strategy strategy :
       {Strategy::kDirect, Strategy::kLazy, Strategy::kFilter1,
        Strategy::kFilter2, Strategy::kFilter3, Strategy::kHybrid}) {
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    PlannerOptions options;
    options.budget.max_tuples = 1000;
    auto tripped = Execute(q, db, schema, strategy, options);
    ASSERT_FALSE(tripped.ok()) << StrategyName(strategy);
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
        << StrategyName(strategy);
    EXPECT_GE(ctx.Snapshot().governor_tuple_trips, 1u)
        << StrategyName(strategy);

    options.budget.max_tuples = product_size;
    ASSERT_OK_AND_ASSIGN(Relation out,
                         Execute(q, db, schema, strategy, options));
    EXPECT_EQ(out.size(), product_size) << StrategyName(strategy);
  }
}

TEST(GovernedExecuteTest, CancelBeforeStartReturnsImmediately) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db = SmallDb(schema);
  QueryPtr q = Sel(Ge(Col(0), Int(0)), Rel("R"));
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  PlannerOptions options;
  options.cancel_token = std::make_shared<CancelToken>();
  options.cancel_token->Cancel();
  auto result = Execute(q, db, schema, Strategy::kHybrid, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GE(ctx.Snapshot().governor_cancellations, 1u);
}

// Example 2.4's blow-up chain: the lazy route's rewrite trips the node
// budget; Execute must degrade along lazy -> hybrid -> eager and still
// return the exact eager result.
TEST(GovernedExecuteTest, RewriteBudgetTripsLazyAndFallsBack) {
  const int n = 8;
  BlowupSpec spec = BlowupChain(n);
  Database db(spec.schema);
  for (int i = 0; i <= n; ++i) {
    std::string name = "R" + std::to_string(i);
    size_t arity = spec.schema.ArityOf(name).value();
    Tuple t;
    for (size_t c = 0; c < arity; ++c) t.push_back(Value::Int(1));
    ASSERT_OK(db.Set(name, Relation::FromTuples(arity, {t})));
  }
  // The eager reference (HQL-2) and the unbudgeted lazy route agree.
  ASSERT_OK_AND_ASSIGN(Relation reference,
                       Execute(spec.query, db, spec.schema,
                               Strategy::kFilter2));
  ASSERT_EQ(reference.size(), 1u);

  ExecContext ctx;
  ExecContextScope scope(&ctx);
  PlannerOptions options;
  options.budget.max_rewrite_nodes = 200;  // far below the ~2^8 lazy tree
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Execute(spec.query, db, spec.schema, Strategy::kLazy,
                               options));
  EXPECT_EQ(out, reference);  // bit-identical to the eager route
  ExecStats stats = ctx.Snapshot();
  EXPECT_GE(stats.governor_rewrite_trips, 1u);
  EXPECT_GE(stats.governor_lazy_fallbacks, 1u);
  EXPECT_EQ(stats.governor_tuple_trips, 0u);
  EXPECT_EQ(stats.governor_deadline_trips, 0u);
}

// Without any budget the same chain still evaluates lazily (no fallback) —
// the guard only engages when asked to.
TEST(GovernedExecuteTest, NoBudgetMeansNoFallback) {
  const int n = 6;
  BlowupSpec spec = BlowupChain(n);
  Database db(spec.schema);
  for (int i = 0; i <= n; ++i) {
    std::string name = "R" + std::to_string(i);
    size_t arity = spec.schema.ArityOf(name).value();
    Tuple t;
    for (size_t c = 0; c < arity; ++c) t.push_back(Value::Int(1));
    ASSERT_OK(db.Set(name, Relation::FromTuples(arity, {t})));
  }
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(Relation lazy,
                       Execute(spec.query, db, spec.schema, Strategy::kLazy));
  ASSERT_OK_AND_ASSIGN(Relation eager,
                       Execute(spec.query, db, spec.schema,
                               Strategy::kFilter2));
  EXPECT_EQ(lazy, eager);
  EXPECT_EQ(ctx.Snapshot().governor_lazy_fallbacks, 0u);
}

TEST(GovernedExecuteTest, IndexBuildOverBudgetFallsBackToScans) {
  Rng rng(29);
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 500, 2, 100)));
  QueryPtr q = Sel(Eq(Col(0), Int(7)), Rel("R"));
  ASSERT_OK_AND_ASSIGN(Relation reference,
                       Execute(q, db, schema, Strategy::kDirect));

  IndexAdvisor advisor(/*build_threshold=*/1);
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  PlannerOptions options;
  options.index_mode = IndexMode::kAdvisor;
  options.index_advisor = &advisor;
  options.index_min_rows = 1;
  options.budget.max_index_build_rows = 100;  // R has 500 rows: degrade
  ASSERT_OK_AND_ASSIGN(
      Relation out, Execute(q, db, schema, Strategy::kLazy, options));
  EXPECT_EQ(out, reference);
  EXPECT_GE(ctx.Snapshot().governor_index_fallbacks, 1u);
}

// ---------------------------------------------------------------------------
// EvalAlternatives under governance.
// ---------------------------------------------------------------------------

TEST(GovernedAlternativesTest, BudgetTripsAreIsolatedPerAlternative) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db = SmallDb(schema);
  QueryPtr q = Sel(Ge(Col(0), Int(0)), Rel("R"));  // 8 output tuples
  std::vector<HypoExprPtr> states = {nullptr, nullptr, nullptr};

  for (size_t threads : {size_t{1}, size_t{4}}) {
    AlternativesOptions options;
    options.strategy = Strategy::kDirect;
    options.num_threads = threads;
    options.planner.budget.max_tuples = 2;  // every alternative trips
    std::vector<Result<Relation>> partial =
        EvalAlternativesPartial(q, states, db, schema, options);
    ASSERT_EQ(partial.size(), 3u);
    for (const Result<Relation>& r : partial) {
      ASSERT_FALSE(r.ok());
      // A budget trip is this alternative's own outcome — it must never
      // cascade into a sibling's "cancelled before it ran".
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << "threads=" << threads << ": " << r.status().ToString();
    }
    // The aggregate call surfaces the trip, not a cancellation.
    auto all = EvalAlternatives(q, states, db, schema, options);
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(GovernedAlternativesTest, CallerTokenCancelsWholeFamily) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db = SmallDb(schema);
  QueryPtr q = Sel(Ge(Col(0), Int(0)), Rel("R"));
  std::vector<HypoExprPtr> states = {nullptr, nullptr};

  AlternativesOptions options;
  options.strategy = Strategy::kDirect;
  options.num_threads = 2;
  options.planner.cancel_token = std::make_shared<CancelToken>();
  options.planner.cancel_token->Cancel();
  std::vector<Result<Relation>> partial =
      EvalAlternativesPartial(q, states, db, schema, options);
  ASSERT_EQ(partial.size(), 2u);
  for (const Result<Relation>& r : partial) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  auto all = EvalAlternatives(q, states, db, schema, options);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kCancelled);
}

TEST(GovernedAlternativesTest, UngovernedFamilyStillAgreesWithSerialLoop) {
  Rng rng(31);
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 64, 2, 40)));
  QueryPtr q = Sel(Ge(Col(0), Int(10)), Rel("R"));
  std::vector<HypoExprPtr> states;
  states.push_back(nullptr);
  states.push_back(Upd(Del("R", Sel(Lt(Col(0), Int(20)), Rel("R")))));
  states.push_back(Upd(Ins("R", Single(hql::testing::IntRow({99, 99})))));

  AlternativesOptions options;
  options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(std::vector<Relation> fanned,
                       EvalAlternatives(q, states, db, schema, options));
  ASSERT_EQ(fanned.size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    QueryPtr alt = states[i] == nullptr ? q : When(q, states[i]);
    ASSERT_OK_AND_ASSIGN(Relation serial,
                         Execute(alt, db, schema, Strategy::kHybrid));
    EXPECT_EQ(fanned[i], serial) << "alternative " << i;
  }
}

// Null queries reach every entry point as a clean InvalidArgument, never an
// abort (the robustness satellite for caller-reachable HQL_CHECKs).
TEST(NullQueryTest, EntryPointsReturnInvalidArgument) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db = SmallDb(schema);
  QueryPtr null_query;
  auto exec = Execute(null_query, db, schema, Strategy::kHybrid);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);

  std::vector<HypoExprPtr> states = {nullptr};
  auto alts = EvalAlternatives(null_query, states, db, schema);
  ASSERT_FALSE(alts.ok());
  EXPECT_EQ(alts.status().code(), StatusCode::kInvalidArgument);

  std::vector<Result<Relation>> partial =
      EvalAlternativesPartial(null_query, states, db, schema);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0].status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hql
