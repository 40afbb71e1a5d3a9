// Incremental re-evaluation (eval/incremental.h): delta-of-delta extraction
// between canonical overlays, and the end-to-end property that patching a
// cached result under a chain of random scenario edits is bit-identical to
// evaluating from scratch — for every strategy, including edits that cross
// the overlay consolidation boundary (where the shared base is replaced and
// the route must fall back to a full re-evaluation).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/builders.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "eval/incremental.h"
#include "eval/memo.h"
#include "opt/planner.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using hql::testing::IntRow;
using hql::testing::Ints;

constexpr Strategy kAllStrategies[] = {
    Strategy::kDirect,  Strategy::kLazy,    Strategy::kFilter1,
    Strategy::kFilter2, Strategy::kFilter3, Strategy::kHybrid,
};

// ---------------------------------------------------------------------------
// OverlayEditBetween: the delta-of-delta primitive.
// ---------------------------------------------------------------------------

TEST(OverlayEditBetweenTest, SharedBaseYieldsCanonicalEdit) {
  // Big enough that small overlays stay under the consolidation fraction —
  // consolidation would (correctly) sever base sharing.
  std::vector<Tuple> rows;
  for (int64_t i = 1; i <= 40; ++i) rows.push_back(IntRow({i, i}));
  Relation base = Relation::FromTuples(2, std::move(rows));
  Relation from = base.ApplyDelta({IntRow({90, 90})}, {IntRow({1, 1})});
  Relation to =
      base.ApplyDelta({IntRow({90, 90}), IntRow({80, 80})}, {IntRow({2, 2})});

  std::optional<RelationEdit> edit = OverlayEditBetween(from, to);
  ASSERT_TRUE(edit.has_value());
  // Relative to `from`'s content: {1,1} comes back, {80,80} is new, {2,2}
  // goes away.
  EXPECT_EQ(edit->adds,
            (std::vector<Tuple>{IntRow({1, 1}), IntRow({80, 80})}));
  EXPECT_EQ(edit->dels, (std::vector<Tuple>{IntRow({2, 2})}));
  // Canonical: applying the edit to `from` reproduces `to`'s content.
  EXPECT_EQ(from.ApplyDelta(edit->adds, edit->dels), to);
}

TEST(OverlayEditBetweenTest, IdenticalViewsYieldEmptyEdit) {
  Relation base = Ints({{1, 1}, {2, 2}});
  Relation v = Relation::Overlay(base, {IntRow({5, 5})}, {});
  std::optional<RelationEdit> edit = OverlayEditBetween(v, v);
  ASSERT_TRUE(edit.has_value());
  EXPECT_TRUE(edit->empty());
}

TEST(OverlayEditBetweenTest, DifferentBasesAreNotComparable) {
  Relation a = Ints({{1, 1}, {2, 2}});
  Relation b = Ints({{1, 1}, {2, 2}});  // equal content, distinct payload
  EXPECT_FALSE(OverlayEditBetween(a, b).has_value());
}

// ---------------------------------------------------------------------------
// End-to-end property: random edit chains.
// ---------------------------------------------------------------------------

Database PropertyDb(uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  HQL_CHECK(schema.AddRelation("R", 2).ok());
  HQL_CHECK(schema.AddRelation("S", 2).ok());
  Database db(schema);
  HQL_CHECK(db.Set("R", GenRelation(&rng, 300, 2, 120)).ok());
  HQL_CHECK(db.Set("S", GenRelation(&rng, 300, 2, 120)).ok());
  return db;
}

// A hypothetical query exercising every operator the delta propagator
// implements: select, project, join, union, difference, intersection.
QueryPtr PropertyQuery() {
  QueryPtr join = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  QueryPtr left = Proj({0, 3}, Sel(Ge(Col(1), Int(10)), join));
  QueryPtr right = N(Rel("R"), Diff(Rel("R"), Sel(Lt(Col(0), Int(30)),
                                                  Rel("R"))));
  HypoExprPtr state =
      Upd(Seq(Del("S", Sel(Lt(Col(1), Int(15)), Rel("S"))),
              Ins("S", Proj({0, 1}, Rel("R")))));
  return When(U(left, right), state);
}

// One random small scenario edit; every ~6th step is a bulk delete large
// enough to push the overlay past the consolidation fraction, so the chain
// repeatedly crosses the base-replacement boundary.
Result<Database> RandomEdit(Rng* rng, const Database& db, int step) {
  const char* rel = (rng->Next() % 2 == 0) ? "R" : "S";
  if (step % 6 == 5) {
    int64_t cut = 30 + static_cast<int64_t>(rng->Next() % 60);
    return ExecUpdate(Del(rel, Sel(Lt(Col(0), Int(cut)), Rel(rel))), db);
  }
  switch (rng->Next() % 3) {
    case 0: {
      int64_t a = static_cast<int64_t>(rng->Next() % 120);
      int64_t b = static_cast<int64_t>(rng->Next() % 120);
      return ExecUpdate(Ins(rel, Single(IntRow({a, b}))), db);
    }
    case 1: {
      int64_t v = static_cast<int64_t>(rng->Next() % 120);
      return ExecUpdate(Del(rel, Sel(Eq(Col(0), Int(v)), Rel(rel))), db);
    }
    default: {
      int64_t a = static_cast<int64_t>(rng->Next() % 120);
      int64_t b = static_cast<int64_t>(rng->Next() % 120);
      return ExecUpdate(
          Seq(Ins(rel, Single(IntRow({a, b}))), Ins(rel, Single(IntRow({b, a})))),
          db);
    }
  }
}

TEST(IncrementalPropertyTest, EditChainPatchesBitIdenticallyAllStrategies) {
  Rng rng(20260808);
  Database db = PropertyDb(77);
  QueryPtr query = PropertyQuery();

  // One persistent incremental cache per strategy, shared across the whole
  // chain — exactly the re-asked-query-family usage pattern.
  std::vector<std::unique_ptr<IncrementalCache>> caches;
  for (size_t i = 0; i < std::size(kAllStrategies); ++i) {
    caches.push_back(std::make_unique<IncrementalCache>());
  }

  ExecContext ctx;
  ExecContextScope scope(&ctx);

  constexpr int kSteps = 24;
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_OK_AND_ASSIGN(db, RandomEdit(&rng, db, step));

    ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));
    for (size_t si = 0; si < std::size(kAllStrategies); ++si) {
      Strategy strategy = kAllStrategies[si];
      PlannerOptions options;
      options.incremental_mode = IncrementalMode::kAuto;
      options.incremental_cache = caches[si].get();
      ASSERT_OK_AND_ASSIGN(Relation got,
                           Execute(query, db, db.schema(), strategy, options));
      EXPECT_EQ(got, reference)
          << "step " << step << " strategy " << StrategyName(strategy);
    }
  }

  // The chain must actually have exercised the patch route (and, via the
  // bulk deletes, the consolidation fallback) — otherwise this test proves
  // nothing about incremental execution.
  ExecStats stats = ctx.Snapshot();
  EXPECT_GT(stats.incremental_results_patched, 0u);
  EXPECT_GT(stats.incremental_edits_propagated, 0u);
  EXPECT_GT(stats.incremental_fallbacks, 0u);
}

// Deterministic single-edit patch: a warm cache plus a one-tuple insert
// must take the patch route on the lazy strategy and report it in the
// ExecStats counters.
TEST(IncrementalPropertyTest, SingleTupleEditPatchesOnLazy) {
  Database db = PropertyDb(42);
  QueryPtr query = PropertyQuery();
  IncrementalCache cache;

  PlannerOptions options;
  options.incremental_mode = IncrementalMode::kAuto;
  options.incremental_cache = &cache;

  // Cold: records the execution.
  ASSERT_OK(Execute(query, db, db.schema(), Strategy::kLazy, options)
                .status());
  ASSERT_OK_AND_ASSIGN(
      db, ExecUpdate(Ins("R", Single(IntRow({3, 99}))), db));

  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(Relation got, Execute(query, db, db.schema(),
                                             Strategy::kLazy, options));
  ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));
  EXPECT_EQ(got, reference);

  ExecStats stats = ctx.Snapshot();
  EXPECT_EQ(stats.incremental_results_patched, 1u);
  EXPECT_GT(stats.incremental_edits_propagated, 0u);
  EXPECT_EQ(stats.incremental_fallbacks, 0u);
}

// A consolidated copy severs base sharing: the warm entry is found but not
// patchable, the execution falls back to a full re-evaluation (counted),
// and the result is still bit-identical.
TEST(IncrementalPropertyTest, ConsolidationFallsBackCleanly) {
  Database db = PropertyDb(43);
  QueryPtr query = PropertyQuery();
  IncrementalCache cache;

  PlannerOptions options;
  options.incremental_mode = IncrementalMode::kAuto;
  options.incremental_cache = &cache;

  ASSERT_OK(Execute(query, db, db.schema(), Strategy::kLazy, options)
                .status());

  Database severed = db.Consolidated();
  ASSERT_OK_AND_ASSIGN(
      severed, ExecUpdate(Ins("R", Single(IntRow({3, 99}))), severed));

  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Relation got,
      Execute(query, severed, severed.schema(), Strategy::kLazy, options));
  ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, severed));
  EXPECT_EQ(got, reference);

  ExecStats stats = ctx.Snapshot();
  EXPECT_EQ(stats.incremental_results_patched, 0u);
  EXPECT_EQ(stats.incremental_fallbacks, 1u);
}

// incremental_mode off (the default) must not touch the cache at all.
TEST(IncrementalPropertyTest, OffModeRecordsNothing) {
  Database db = PropertyDb(44);
  QueryPtr query = PropertyQuery();
  IncrementalCache cache;

  PlannerOptions options;
  options.incremental_cache = &cache;  // mode stays kOff
  ASSERT_OK(Execute(query, db, db.schema(), Strategy::kLazy, options)
                .status());
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Delta-route product rewrite (hybrid-delta gap regression).
// ---------------------------------------------------------------------------
// Aggregate patching (sum/count group-wise; min/max recompute-only).
// ---------------------------------------------------------------------------

// A one-tuple edit against a warm sum-aggregate entry patches group-wise:
// only the touched group's row changes, the counters report a patch, and
// the result is bit-identical to a from-scratch direct evaluation.
TEST(IncrementalAggregateTest, SumAndCountPatchGroupWise) {
  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount}) {
    Database db = PropertyDb(46);
    QueryPtr query =
        Agg({0}, func, 1, Sel(Ge(Col(1), Int(5)), Rel("R")));
    IncrementalCache cache;

    PlannerOptions options;
    options.incremental_mode = IncrementalMode::kAuto;
    options.incremental_cache = &cache;

    ASSERT_OK(Execute(query, db, db.schema(), Strategy::kLazy, options)
                  .status());
    // One insert into group 3 and one targeted delete: both land in the
    // affected-key re-accumulation.
    ASSERT_OK_AND_ASSIGN(
        db, ExecUpdate(Seq(Ins("R", Single(IntRow({3, 99}))),
                           Del("R", Sel(Eq(Col(0), Int(7)), Rel("R")))),
                       db));

    ExecContext ctx;
    ExecContextScope scope(&ctx);
    ASSERT_OK_AND_ASSIGN(Relation got, Execute(query, db, db.schema(),
                                               Strategy::kLazy, options));
    ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));
    EXPECT_EQ(got, reference) << AggFuncName(func);

    ExecStats stats = ctx.Snapshot();
    EXPECT_EQ(stats.incremental_results_patched, 1u) << AggFuncName(func);
    EXPECT_GT(stats.incremental_edits_propagated, 0u) << AggFuncName(func);
    EXPECT_EQ(stats.incremental_fallbacks, 0u) << AggFuncName(func);
  }
}

// Min/max stay recompute-only: a deletion can remove the group's extremum,
// and the recording keeps no per-group evidence of the runner-up. The warm
// entry must fall back (counted) and still answer bit-identically.
TEST(IncrementalAggregateTest, MinMaxFallBackToRecompute) {
  for (AggFunc func : {AggFunc::kMin, AggFunc::kMax}) {
    Database db = PropertyDb(47);
    QueryPtr query = Agg({0}, func, 1, Rel("R"));
    IncrementalCache cache;

    PlannerOptions options;
    options.incremental_mode = IncrementalMode::kAuto;
    options.incremental_cache = &cache;

    ASSERT_OK(Execute(query, db, db.schema(), Strategy::kLazy, options)
                  .status());
    ASSERT_OK_AND_ASSIGN(
        db, ExecUpdate(Del("R", Sel(Eq(Col(0), Int(7)), Rel("R"))), db));

    ExecContext ctx;
    ExecContextScope scope(&ctx);
    ASSERT_OK_AND_ASSIGN(Relation got, Execute(query, db, db.schema(),
                                               Strategy::kLazy, options));
    ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));
    EXPECT_EQ(got, reference) << AggFuncName(func);

    ExecStats stats = ctx.Snapshot();
    EXPECT_EQ(stats.incremental_results_patched, 0u) << AggFuncName(func);
    EXPECT_EQ(stats.incremental_fallbacks, 1u) << AggFuncName(func);
  }
}

// Random edit chain against a sum-aggregate-over-join plan: the group-wise
// patch rule must stay bit-identical to direct evaluation across inserts,
// deletes and consolidation boundaries on every strategy.
TEST(IncrementalAggregateTest, EditChainPatchesAggregates) {
  Rng rng(20260809);
  Database db = PropertyDb(48);
  QueryPtr query = Agg(
      {0}, AggFunc::kSum, 3,
      Sel(Ge(Col(1), Int(10)), Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"))));

  std::vector<std::unique_ptr<IncrementalCache>> caches;
  for (size_t i = 0; i < std::size(kAllStrategies); ++i) {
    caches.push_back(std::make_unique<IncrementalCache>());
  }

  ExecContext ctx;
  ExecContextScope scope(&ctx);
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_OK_AND_ASSIGN(db, RandomEdit(&rng, db, step));
    ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));
    for (size_t si = 0; si < std::size(kAllStrategies); ++si) {
      Strategy strategy = kAllStrategies[si];
      PlannerOptions options;
      options.incremental_mode = IncrementalMode::kAuto;
      options.incremental_cache = caches[si].get();
      ASSERT_OK_AND_ASSIGN(Relation got,
                           Execute(query, db, db.schema(), strategy, options));
      EXPECT_EQ(got, reference)
          << "step " << step << " strategy " << StrategyName(strategy);
    }
  }
  EXPECT_GT(ctx.Snapshot().incremental_results_patched, 0u);
}

// ---------------------------------------------------------------------------

// sigma[$0 = $2](R x S) when {...} on the delta route must run as a join:
// the block preparation in RunFilter3 now simplifies pure regions before
// collapsing, so the join-when kernel fires and no operator ever sees the
// cross product's |R| x |S| rows.
TEST(Filter3SimplifyTest, DeltaRouteRunsProductPredicateAsJoin) {
  Database db = PropertyDb(45);
  QueryPtr query =
      When(Sel(Eq(Col(0), Col(2)), X(Rel("R"), Rel("S"))),
           Upd(Del("R", Sel(Lt(Col(0), Int(20)), Rel("R")))));

  ASSERT_OK_AND_ASSIGN(Relation reference, EvalDirect(query, db));

  ExecContext ctx;
  ctx.set_tracing(true);
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Relation got,
      Execute(query, db, db.schema(), Strategy::kFilter3, PlannerOptions()));
  EXPECT_EQ(got, reference);

  ExecStats stats = ctx.Snapshot();
  const uint64_t product_rows =
      static_cast<uint64_t>(db.GetRef("R").size()) *
      static_cast<uint64_t>(db.GetRef("S").size());
  bool join_when_fired = false;
  for (const OperatorSpan& span : stats.spans) {
    if (span.op == "join-when") join_when_fired = true;
    EXPECT_LT(span.rows_in, product_rows)
        << span.op << " saw the materialized cross product";
  }
  EXPECT_TRUE(join_when_fired)
      << "select-over-product was not clustered into a join on the delta "
         "route";
}

}  // namespace
}  // namespace hql
