// Vectorized aggregation tests: engagement gates of TryColumnarAggregate,
// bit-identical agreement of the typed/generic/global kernels with the row
// aggregate (eval/ra_eval.h) across flat bases and overlays, the new
// columnar-aggregate counters, the columnar routing of *-when leaves whose
// delta canonicalizes to nothing, and a randomized property sweep over all
// aggregate functions, key widths and morsel boundaries. The whole file
// runs identically under the forced-scalar build (HQL_NO_SIMD) — nothing
// here may depend on which SIMD tier eval/simd.h selected.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "ast/builders.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "eval/delta.h"
#include "eval/delta_ops.h"
#include "eval/ra_eval.h"
#include "eval/simd.h"
#include "eval/vector_exec.h"
#include "opt/planner.h"
#include "storage/relation.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using hql::testing::IntRow;
using hql::testing::Ints;
using hql::testing::MakeSchema;

constexpr AggFunc kAllFuncs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                                 AggFunc::kMax};

ColumnarConfig TestConfig(size_t morsel_rows = 8, size_t threads = 1) {
  ColumnarConfig config;
  config.mode = ColumnarMode::kAuto;
  config.min_rows = 1;
  config.morsel_rows = morsel_rows;
  config.threads = threads;
  return config;
}

Relation MixedRelation() {
  // Column 0: int keys. Column 1: all double. Column 2: mixed types.
  std::vector<Tuple> rows;
  rows.push_back({Value::Int(1), Value::Double(1.5), Value::Str("a")});
  rows.push_back({Value::Int(1), Value::Double(-2.0), Value::Int(7)});
  rows.push_back({Value::Int(2), Value::Double(0.25), Value::Str("b")});
  rows.push_back({Value::Int(2), Value::Double(4.25), Value::Nul()});
  rows.push_back({Value::Int(3), Value::Double(0.0), Value::Bool(true)});
  return Relation::FromTuples(3, std::move(rows));
}

// ---------------------------------------------------------------------------
// Engagement gates.
// ---------------------------------------------------------------------------

TEST(ColumnarAggregateTest, GatesMirrorTheFilterKernel) {
  Rng rng(307);
  Relation rel = GenRelation(&rng, 100, 2, 10);
  const Relation& view = rel;

  ColumnarConfig off;  // mode kOff
  EXPECT_FALSE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 1, off).has_value());

  ColumnarConfig small = TestConfig();
  small.min_rows = 1000;  // base too small
  EXPECT_FALSE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 1, small).has_value());

  // Out-of-range columns are the row kernels' problem.
  EXPECT_FALSE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 9, TestConfig())
          .has_value());
  EXPECT_FALSE(
      TryColumnarAggregate(view, {9}, AggFunc::kSum, 1, TestConfig())
          .has_value());

  // An overlay past max_delta_fraction falls back.
  Relation heavy = Relation::Overlay(
      rel,
      {IntRow({200, 1}), IntRow({201, 1})}, {});
  ColumnarConfig strict = TestConfig();
  strict.max_delta_fraction = 0.001;
  EXPECT_FALSE(
      TryColumnarAggregate(heavy, {0}, AggFunc::kSum, 1, strict).has_value());

  EXPECT_TRUE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 1, TestConfig())
          .has_value());
}

TEST(ColumnarAggregateTest, ExactnessGatesOnSumAndMinMax) {
  Relation rel = MixedRelation();
  const Relation& view = rel;
  ColumnarConfig config = TestConfig(2);

  // Sum over a double or mixed column is order-sensitive: row kernel only.
  EXPECT_FALSE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 1, config).has_value());
  EXPECT_FALSE(
      TryColumnarAggregate(view, {0}, AggFunc::kSum, 2, config).has_value());

  // Min/max engage on every encoding for a flat input...
  for (AggFunc func : {AggFunc::kMin, AggFunc::kMax}) {
    for (size_t col : {size_t{0}, size_t{1}, size_t{2}}) {
      auto got = TryColumnarAggregate(view, {0}, func, col, config);
      ASSERT_TRUE(got.has_value()) << AggFuncName(func) << " col " << col;
      EXPECT_EQ(*got, AggregateRelation(view, {0}, func, col))
          << AggFuncName(func) << " col " << col;
    }
  }

  // ...but a sum add that is not an int, and any min/max add hitting the
  // boxed-Value mode or an off-family typed mode, veto vectorization.
  Relation with_double_add = Relation::Overlay(
      Ints({{1, 2}, {3, 4}, {5, 6}}),
      {{Value::Int(9), Value::Double(2.5)}}, {});
  EXPECT_FALSE(TryColumnarAggregate(with_double_add, {0}, AggFunc::kSum, 1,
                                    config)
                   .has_value());
  EXPECT_FALSE(TryColumnarAggregate(with_double_add, {0}, AggFunc::kMin, 1,
                                    config)
                   .has_value());
  Relation mixed_add = Relation::Overlay(
      MixedRelation(),
      {{Value::Int(9), Value::Double(2.5), Value::Int(1)}}, {});
  EXPECT_FALSE(
      TryColumnarAggregate(mixed_add, {0}, AggFunc::kMax, 2, config)
          .has_value());
  // The row kernel still answers those shapes through the routed entry.
  EXPECT_EQ(VectorizedAggregate(mixed_add, {0}, AggFunc::kMax, 2, config),
            AggregateRelation(mixed_add, {0}, AggFunc::kMax, 2));
}

// ---------------------------------------------------------------------------
// Kernel agreement on crafted shapes.
// ---------------------------------------------------------------------------

TEST(ColumnarAggregateTest, TypedKeysMatchRowKernelPerFunction) {
  Rng rng(311);
  Relation rel = GenRelation(&rng, 300, 3, 12, 50);
  const Relation& view = rel;
  for (AggFunc func : kAllFuncs) {
    // One- and two-column int keys take the flat packed-key table.
    for (const std::vector<size_t>& cols :
         {std::vector<size_t>{0}, std::vector<size_t>{0, 1}}) {
      auto got = TryColumnarAggregate(view, cols, func, 2, TestConfig(64));
      ASSERT_TRUE(got.has_value()) << AggFuncName(func);
      EXPECT_EQ(*got, AggregateRelation(view, cols, func, 2))
          << AggFuncName(func) << " keys " << cols.size();
    }
  }
}

TEST(ColumnarAggregateTest, GenericKeysAndWideKeysMatchRowKernel) {
  Relation rel = MixedRelation();
  const Relation& view = rel;
  // A generic-encoded key column forces the tuple-keyed fallback table.
  for (AggFunc func : {AggFunc::kCount, AggFunc::kMin, AggFunc::kMax}) {
    auto got = TryColumnarAggregate(view, {2}, func, 1, TestConfig(2));
    ASSERT_TRUE(got.has_value()) << AggFuncName(func);
    EXPECT_EQ(*got, AggregateRelation(view, {2}, func, 1)) << AggFuncName(func);
  }

  // Keys wider than the packed-key limit also go generic.
  Rng rng(313);
  Relation wide = GenRelation(&rng, 200, 6, 4, 3);
  const Relation& wview = wide;
  std::vector<size_t> cols = {0, 1, 2, 3, 4};
  auto got = TryColumnarAggregate(wview, cols, AggFunc::kSum, 5, TestConfig(32));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, AggregateRelation(wview, cols, AggFunc::kSum, 5));
}

TEST(ColumnarAggregateTest, GlobalAggregateUsesSegmentReduction) {
  Rng rng(317);
  Relation rel = GenRelation(&rng, 500, 2, 40);
  const Relation& shared = rel;
  Relation dels = SampleFraction(&rng, shared, 0.06);
  Relation adds = GenRelation(&rng, 12, 2, 40);
  for (const Relation& view :
       {shared, Relation::Overlay(shared, adds.tuples(), dels.tuples())}) {
    for (AggFunc func : kAllFuncs) {
      auto got = TryColumnarAggregate(view, {}, func, 1, TestConfig(64));
      ASSERT_TRUE(got.has_value()) << AggFuncName(func);
      EXPECT_EQ(*got, AggregateRelation(view, {}, func, 1))
          << AggFuncName(func);
    }
  }
}

TEST(ColumnarAggregateTest, EmptyAfterDeletionsMatchesRowKernel) {
  Relation rel = Ints({{1, 2}, {3, 4}});
  Relation view = Relation::Overlay(
      rel, {}, {IntRow({1, 2}), IntRow({3, 4})});
  // Deleting the whole base is a delta fraction of 1.0; lift the gate so
  // the empty-output path itself is what gets exercised.
  ColumnarConfig config = TestConfig();
  config.max_delta_fraction = 1.0;
  for (AggFunc func : kAllFuncs) {
    auto got = TryColumnarAggregate(view, {0}, func, 1, config);
    ASSERT_TRUE(got.has_value()) << AggFuncName(func);
    EXPECT_EQ(got->size(), 0u) << AggFuncName(func);
    EXPECT_EQ(*got, AggregateRelation(view, {0}, func, 1)) << AggFuncName(func);
  }
}

TEST(ColumnarAggregateTest, CountersChargeTheAggregatePath) {
  Rng rng(331);
  Relation rel = GenRelation(&rng, 200, 2, 10);
  const Relation& view = rel;
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation out = VectorizedAggregate(view, {0}, AggFunc::kSum, 1,
                                     TestConfig(64));
  EXPECT_EQ(out, AggregateRelation(view, {0}, AggFunc::kSum, 1));
  ExecStats stats = ctx.Snapshot();
  EXPECT_EQ(stats.columnar_agg_rows_vectorized, 200u);
  EXPECT_EQ(stats.columnar_agg_groups, out.size());
  EXPECT_EQ(stats.columnar_morsels_dispatched, 4u);  // ceil(200 / 64)
  EXPECT_EQ(stats.columnar_rows_fallback, 0u);

  // A vetoed shape (double sum) charges the fallback counter instead.
  Relation doubles(2);
  {
    std::vector<Tuple> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back({Value::Int(i), Value::Double(i + 0.5)});
    }
    doubles = Relation::FromTuples(2, std::move(rows));
  }
  const Relation& dview = doubles;
  VectorizedAggregate(dview, {0}, AggFunc::kSum, 1, TestConfig(64));
  EXPECT_EQ(ctx.Snapshot().columnar_rows_fallback, 50u);
}

// ---------------------------------------------------------------------------
// Columnar-aware *-when routing (EvalFilterD leaves).
// ---------------------------------------------------------------------------

TEST(ColumnarWhenTest, DeltaLeavesRouteThroughTheColumnarScan) {
  Rng rng(337);
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 400, 2, 60)));

  DeltaValue delta;
  delta.Bind("R", DeltaPair(Ints({{1, 1}}), Ints({{2000, 7}})));

  QueryPtr q = Sel(Ge(Col(0), Int(10)), Rel("R"));
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Relation columnar,
      EvalFilterD(q, db, delta, nullptr, IndexConfig(), TestConfig(64)));
  ASSERT_OK_AND_ASSIGN(Relation row, EvalFilterD(q, db, delta));
  EXPECT_EQ(columnar, row);
  ExecStats stats = ctx.Snapshot();
  EXPECT_GT(stats.columnar_rows_vectorized, 0u);
  EXPECT_EQ(stats.columnar_when_routed, 1u);
}

// Regression: a delta that canonicalizes to nothing against the base (a
// deletion of an absent tuple, an insertion of a present one) used to force
// the row-streaming select-when; it must take the flat columnar fast path.
TEST(ColumnarWhenTest, EmptyAfterCanonicalizationTakesTheFlatFastPath) {
  Rng rng(347);
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  Relation base = GenRelation(&rng, 300, 2, 50);
  Tuple present = base.tuples()[0];
  ASSERT_OK(db.Set("R", std::move(base)));

  DeltaValue noop;
  noop.Bind("R", DeltaPair(/*d=*/Ints({{100000, 100000}}),
                           /*i=*/Relation::FromSortedUnique(2, {present})));

  QueryPtr q = Sel(Ge(Col(0), Int(5)), Rel("R"));
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Relation got,
      EvalFilterD(q, db, noop, nullptr, IndexConfig(), TestConfig(64)));
  ASSERT_OK_AND_ASSIGN(Relation want, EvalFilterD(q, db, DeltaValue()));
  EXPECT_EQ(got, want);
  ExecStats stats = ctx.Snapshot();
  EXPECT_GT(stats.columnar_rows_vectorized, 0u);
  EXPECT_EQ(stats.columnar_rows_fallback, 0u);
}

TEST(ColumnarWhenTest, JoinDeltaLeavesRouteThroughTheColumnarJoin) {
  Rng rng(349);
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 300, 2, 40)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 200, 2, 40)));

  DeltaValue delta;
  delta.Bind("R", DeltaPair(Ints({{0, 0}}), Ints({{5000, 3}})));

  QueryPtr q = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ASSERT_OK_AND_ASSIGN(
      Relation columnar,
      EvalFilterD(q, db, delta, nullptr, IndexConfig(), TestConfig(64)));
  ASSERT_OK_AND_ASSIGN(Relation row, EvalFilterD(q, db, delta));
  EXPECT_EQ(columnar, row);
  EXPECT_EQ(ctx.Snapshot().columnar_when_routed, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end strategy sweep through an aggregate-over-when plan.
// ---------------------------------------------------------------------------

TEST(ColumnarAggregateTest, StrategiesAgreeOnAggregateOverWhen) {
  Rng rng(353);
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 300, 2, 30)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 100, 2, 30)));

  HypoExprPtr state = Upd(Seq(Del("R", Sel(Lt(Col(0), Int(5)), Rel("R"))),
                              Ins("R", Rel("S"))));
  for (AggFunc func : kAllFuncs) {
    QueryPtr q =
        When(Agg({0}, func, 1, Sel(Ge(Col(0), Int(2)), Rel("R"))), state);
    PlannerOptions row_opts;
    ASSERT_OK_AND_ASSIGN(
        Relation want,
        Execute(q, db, schema, Strategy::kDirect, row_opts));
    for (Strategy s : {Strategy::kDirect, Strategy::kLazy, Strategy::kFilter1,
                       Strategy::kFilter2, Strategy::kFilter3,
                       Strategy::kHybrid}) {
      PlannerOptions options;
      options.columnar_mode = ColumnarMode::kAuto;
      options.columnar_min_rows = 1;
      options.columnar_morsel_rows = 64;
      options.columnar_threads = 1;
      ASSERT_OK_AND_ASSIGN(Relation got,
                           Execute(q, db, schema, s, options));
      EXPECT_EQ(got, want) << StrategyName(s) << "/" << AggFuncName(func);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized property sweep.
// ---------------------------------------------------------------------------

TEST(ColumnarAggregatePropertyTest, VectorizedEqualsRowKernel) {
  Rng rng(359);
  for (int trial = 0; trial < 80; ++trial) {
    size_t arity = 2 + static_cast<size_t>(rng.Uniform(0, 3));
    size_t rows = 1 + static_cast<size_t>(rng.Uniform(0, 400));
    Relation base = GenRelation(&rng, rows, arity, 8, 12);
    const Relation& shared = base;
    Relation view = shared;
    if (rng.Uniform(0, 2) == 0) {
      Relation dels = SampleFraction(&rng, shared, 0.08);
      Relation adds = GenRelation(&rng, rng.Uniform(0, 12), arity, 8, 12);
      view = Relation::Overlay(shared, adds.tuples(), dels.tuples());
    }
    ColumnarConfig config = TestConfig(
        /*morsel_rows=*/1 + static_cast<size_t>(rng.Uniform(0, 100)),
        /*threads=*/1 + static_cast<size_t>(rng.Uniform(0, 3)));

    // Random key set (possibly empty = global), random agg column.
    std::vector<size_t> cols;
    for (size_t c = 0; c < arity; ++c) {
      if (rng.Uniform(0, 3) == 0) cols.push_back(c);
    }
    size_t agg_col = static_cast<size_t>(rng.Uniform(0, arity - 1));
    AggFunc func = kAllFuncs[rng.Uniform(0, 3)];

    Relation vectorized =
        VectorizedAggregate(view, cols, func, agg_col, config);
    EXPECT_EQ(vectorized, AggregateRelation(view, cols, func, agg_col))
        << "trial " << trial << " " << AggFuncName(func) << " keys "
        << cols.size() << " agg $" << agg_col << " simd " << SimdIsaName();
  }
}

}  // namespace
}  // namespace hql
