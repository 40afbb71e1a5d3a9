// Per-execution observability: ExecContext scoping, charge routing, the
// deterministic family rollup, JSON round-tripping, and — the property the
// whole redesign exists for — two concurrent families each reporting
// exactly their own work (run under TSan in CI).

#include "common/exec_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>
#include <vector>

#include "ast/builders.h"
#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "opt/explain.h"
#include "opt/session.h"
#include "storage/view.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

TEST(ExecContextTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentExecContext(), nullptr);
  ExecContext outer;
  {
    ExecContextScope outer_scope(&outer);
    EXPECT_EQ(CurrentExecContext(), &outer);
    ExecContext inner;
    {
      ExecContextScope inner_scope(&inner);
      EXPECT_EQ(CurrentExecContext(), &inner);
      // nullptr shields: charges fall through to the process default.
      ExecContextScope shield(nullptr);
      EXPECT_EQ(CurrentExecContext(), nullptr);
      EXPECT_EQ(&AmbientExecContext(), &ProcessDefaultExecContext());
    }
    EXPECT_EQ(CurrentExecContext(), &outer);
  }
  EXPECT_EQ(CurrentExecContext(), nullptr);
}

TEST(ExecContextTest, ChargesLandOnInstalledContextNotProcessDefault) {
  ExecStats before = ProcessDefaultExecContext().Snapshot();
  ExecContext ctx;
  {
    ExecContextScope scope(&ctx);
    AmbientExecContext().Add(ExecCounter::kViewsCreated);
    AmbientExecContext().Add(ExecCounter::kViewTuplesShared, 7);
    AmbientExecContext().Add(ExecCounter::kIndexProbes);
    AmbientExecContext().Add(ExecCounter::kMemoHits);
    AmbientExecContext().Add(ExecCounter::kGovernorDeadlineTrips);
  }
  ExecStats got = ctx.Snapshot();
  EXPECT_EQ(got.views_created, 1u);
  EXPECT_EQ(got.view_tuples_shared, 7u);
  EXPECT_EQ(got.index_probes, 1u);
  EXPECT_EQ(got.memo_hits, 1u);
  EXPECT_EQ(got.governor_deadline_trips, 1u);

  ExecStats after = ProcessDefaultExecContext().Snapshot();
  EXPECT_EQ(after.views_created, before.views_created);
  EXPECT_EQ(after.index_probes, before.index_probes);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
}

TEST(ExecContextTest, ViewLayerChargesAmbientContext) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation base = Ints({{1, 2}, {3, 4}, {5, 6}});
  RelationView view(std::make_shared<Relation>(base));
  EXPECT_EQ(view.size(), 3u);
  ExecStats stats = ctx.Snapshot();
  EXPECT_GE(stats.views_created, 1u);
  EXPECT_GE(stats.view_tuples_shared, 3u);
}

TEST(ExecContextTest, MergeFromAddsCountersMaxesHighWatersKeepsFirstRoute) {
  // Every counter merges by its listed kind: one side is larger for half
  // the counters, the other side for the rest, so kMax cannot pass by
  // always picking one side.
  ExecStats a;
  ExecStats b;
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    ExecCounter c = kExecCounters[i].counter;
    a[c] = i % 2 == 0 ? 100 + i : 10 + i;
    b[c] = i % 2 == 0 ? 20 + i : 200 + i;
  }
  a.route = "lazy";
  a.spans.push_back({"select", "lazy", 5, 3, 11});
  b.route = "eager";
  b.spans.push_back({"join", "eager", 9, 2, 13});

  ExecStats merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  // The live context merges the same way.
  ExecContext ctx;
  ctx.MergeFrom(a);
  ctx.MergeFrom(b);
  ExecStats live = ctx.Snapshot();
  for (const ExecCounterInfo& c : kExecCounters) {
    uint64_t want = c.merge == ExecMerge::kSum
                        ? a[c.counter] + b[c.counter]
                        : std::max(a[c.counter], b[c.counter]);
    EXPECT_EQ(merged[c.counter], want) << c.key;
    EXPECT_EQ(live[c.counter], want) << c.key;
  }
  // Both merge kinds are exercised.
  EXPECT_TRUE(std::any_of(
      std::begin(kExecCounters), std::end(kExecCounters),
      [](const ExecCounterInfo& c) { return c.merge == ExecMerge::kMax; }));
  EXPECT_EQ(merged.route, "lazy");  // first non-empty route wins
  EXPECT_EQ(live.route, "lazy");
  ASSERT_EQ(merged.spans.size(), 2u);
  EXPECT_EQ(merged.spans[0].op, "select");
  EXPECT_EQ(merged.spans[1].op, "join");
  EXPECT_EQ(live.spans.size(), 2u);

  // Same inputs, same order: identical rollup.
  ExecStats again;
  again.MergeFrom(a);
  again.MergeFrom(b);
  EXPECT_EQ(again.ToJson(), merged.ToJson());
}

TEST(ExecContextTest, ToJsonParsesBackWithAllCounters) {
  // Every counter gets a distinct power of two (exact as a JSON double).
  ExecStats stats;
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    stats[kExecCounters[i].counter] = uint64_t{1} << (2 * i);
  }
  stats.route = "hybrid-delta";
  stats.spans.push_back({"select-when", "delta", 100, 42, 17});
  stats.spans.push_back({"a\"b\\c\n\t\x01", "", 0, 0, 0});

  // The hql-exec-stats/v1 document is pinned byte for byte: key order,
  // integer rendering and string escaping.
  EXPECT_EQ(
      stats.ToJson(),
      "{\"schema\":\"hql-exec-stats/v1\",\"memo_hits\":1,\"memo_misses\":4"
      ",\"plan_cache_hits\":16,\"plan_cache_misses\":64,\"views_created\":256"
      ",\"view_consolidations\":1024,\"view_tuples_shared\":4096"
      ",\"view_tuples_copied\":16384,\"indexes_built\":65536"
      ",\"indexes_shared\":262144,\"index_probes\":1048576"
      ",\"index_tuples_skipped\":4194304,\"governor_deadline_trips\":16777216"
      ",\"governor_tuple_trips\":67108864"
      ",\"governor_rewrite_trips\":268435456"
      ",\"governor_cancellations\":1073741824"
      ",\"governor_lazy_fallbacks\":4294967296"
      ",\"governor_index_fallbacks\":17179869184"
      ",\"governor_max_tuples_charged\":68719476736"
      ",\"governor_max_rewrite_nodes_charged\":274877906944"
      ",\"columnar_batches_built\":1099511627776"
      ",\"columnar_batches_reused\":4398046511104"
      ",\"columnar_morsels_dispatched\":17592186044416"
      ",\"columnar_rows_vectorized\":70368744177664"
      ",\"columnar_rows_fallback\":281474976710656"
      ",\"columnar_agg_rows_vectorized\":1125899906842624"
      ",\"columnar_agg_groups\":4503599627370496"
      ",\"columnar_when_routed\":18014398509481984"
      ",\"incremental_results_patched\":72057594037927936"
      ",\"incremental_edits_propagated\":288230376151711744"
      ",\"incremental_fallbacks\":1152921504606846976"
      ",\"route\":\"hybrid-delta\",\"spans\":[{\"op\":\"select-when\""
      ",\"route\":\"delta\",\"rows_in\":100,\"rows_out\":42,\"micros\":17}"
      ",{\"op\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"route\":\"\""
      ",\"rows_in\":0,\"rows_out\":0,\"micros\":0}]}");

  ASSERT_OK_AND_ASSIGN(JsonPtr root, ParseJson(stats.ToJson()));
  ASSERT_TRUE(root->is_object());
  EXPECT_EQ(root->Get("schema")->string_value(), "hql-exec-stats/v1");
  // Exactly the listed counters plus schema, route and spans.
  EXPECT_EQ(root->fields().size(), kNumExecCounters + 3);
  for (const ExecCounterInfo& c : kExecCounters) {
    ASSERT_NE(root->Get(c.key), nullptr) << c.key;
    EXPECT_EQ(root->Get(c.key)->number(),
              static_cast<double>(stats[c.counter]))
        << c.key;
  }
  EXPECT_EQ(root->Get("route")->string_value(), "hybrid-delta");
  const auto& spans = root->Get("spans")->items();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->Get("op")->string_value(), "select-when");
  EXPECT_EQ(spans[0]->Get("route")->string_value(), "delta");
  EXPECT_EQ(spans[0]->Get("rows_in")->number(), 100.0);
  EXPECT_EQ(spans[0]->Get("rows_out")->number(), 42.0);
  EXPECT_EQ(spans[1]->Get("op")->string_value(), "a\"b\\c\n\t\x01");
}

TEST(ExecContextTest, TraceSpanRecordsOnlyWhenTracingIsOn) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  {
    TraceSpan span("select", 10);
    EXPECT_FALSE(span.active());
    span.set_rows_out(4);
  }
  EXPECT_TRUE(ctx.Snapshot().spans.empty());

  ctx.set_tracing(true);
  {
    ExecRouteScope route("lazy");
    TraceSpan span("select", 10);
    EXPECT_TRUE(span.active());
    span.set_rows_out(4);
  }
  ExecStats stats = ctx.Snapshot();
  ASSERT_EQ(stats.spans.size(), 1u);
  EXPECT_EQ(stats.spans[0].op, "select");
  EXPECT_EQ(stats.spans[0].route, "lazy");
  EXPECT_EQ(stats.spans[0].rows_in, 10u);
  EXPECT_EQ(stats.spans[0].rows_out, 4u);
}

TEST(ExecContextTest, ResetZeroesEveryCounterTheRouteAndTheSpans) {
  ExecContext ctx;
  ctx.set_tracing(true);
  for (const ExecCounterInfo& c : kExecCounters) {
    if (c.merge == ExecMerge::kSum) {
      ctx.Add(c.counter, 3);
    } else {
      ctx.RaiseHighWater(c.counter, 3);
    }
  }
  ctx.NoteRoute("lazy");
  {
    ExecContextScope scope(&ctx);
    TraceSpan span("select", 1);
  }
  ExecStats before = ctx.Snapshot();
  for (const ExecCounterInfo& c : kExecCounters) {
    EXPECT_EQ(before[c.counter], 3u) << c.key;
  }
  EXPECT_EQ(before.route, "lazy");
  EXPECT_EQ(before.spans.size(), 1u);

  ctx.Reset();
  ExecStats after = ctx.Snapshot();
  for (const ExecCounterInfo& c : kExecCounters) {
    EXPECT_EQ(after[c.counter], 0u) << c.key;
  }
  EXPECT_TRUE(after.route.empty());
  EXPECT_TRUE(after.spans.empty());
  EXPECT_TRUE(ctx.tracing());  // tracing is configuration, not a counter
}

// ---------------------------------------------------------------------------
// Family-level accounting.

class FamilyStatsTest : public ::testing::Test {
 protected:
  // A deterministic E9-style family: `alts` leaf deletions over R.
  std::vector<HypoExprPtr> FamilyStates(int alts, int64_t offset) {
    std::vector<HypoExprPtr> states;
    for (int i = 0; i < alts; ++i) {
      int64_t lo = offset + i * 10;
      states.push_back(Upd(Del(
          "R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + 10))),
                   Rel("R")))));
    }
    return states;
  }

  Database MakeDb(uint64_t seed, size_t rows) {
    Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
    Rng rng(seed);
    Database db(schema);
    HQL_CHECK(db.Set("R", GenRelation(&rng, rows, 2, 200)).ok());
    HQL_CHECK(db.Set("S", GenRelation(&rng, rows, 2, 200)).ok());
    return db;
  }

  QueryPtr FamilyQuery() { return Sel(Ge(Col(0), Int(100)), Rel("R")); }
};

TEST_F(FamilyStatsTest, SlotAndFamilyStatsAreDeterministicAcrossThreadCounts) {
  Database db = MakeDb(11, 400);
  std::vector<HypoExprPtr> states = FamilyStates(6, 0);
  QueryPtr query = FamilyQuery();

  auto run = [&](size_t threads, std::vector<ExecStats>* slots,
                 ExecStats* family) {
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = threads;
    options.slot_stats = slots;
    options.family_stats = family;
    std::vector<Result<Relation>> out =
        EvalAlternativesPartial(query, states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
  };

  std::vector<ExecStats> serial_slots, pooled_slots;
  ExecStats serial_family, pooled_family;
  run(1, &serial_slots, &serial_family);
  run(4, &pooled_slots, &pooled_family);

  ASSERT_EQ(serial_slots.size(), states.size());
  ASSERT_EQ(pooled_slots.size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(serial_slots[i].views_created, pooled_slots[i].views_created)
        << "slot " << i;
    EXPECT_EQ(serial_slots[i].view_tuples_shared,
              pooled_slots[i].view_tuples_shared)
        << "slot " << i;
  }
  EXPECT_EQ(serial_family.views_created, pooled_family.views_created);
  EXPECT_EQ(serial_family.view_tuples_shared,
            pooled_family.view_tuples_shared);
}

TEST_F(FamilyStatsTest, FamilyRollupMergesIntoCallersAmbientContext) {
  Database db = MakeDb(13, 200);
  std::vector<HypoExprPtr> states = FamilyStates(3, 0);

  ExecContext ctx;
  ExecStats family;
  {
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = 2;
    options.family_stats = &family;
    std::vector<Result<Relation>> out = EvalAlternativesPartial(
        FamilyQuery(), states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
  }
  EXPECT_GT(family.views_created, 0u);
  ExecStats ambient = ctx.Snapshot();
  EXPECT_GE(ambient.views_created, family.views_created);
  EXPECT_GE(ambient.view_tuples_shared, family.view_tuples_shared);
}

// The tentpole property: two families running concurrently on separate
// threads, each under its own caller-installed ExecContext, report exactly
// the stats of their own (disjoint) workload — verified by comparing
// against the same workloads run serially. Under TSan this also proves the
// charge paths race-free.
TEST_F(FamilyStatsTest, ConcurrentFamiliesAreIsolated) {
  Database small_db = MakeDb(17, 120);
  Database big_db = MakeDb(19, 900);
  QueryPtr query = FamilyQuery();
  std::vector<HypoExprPtr> small_states = FamilyStates(3, 0);
  std::vector<HypoExprPtr> big_states = FamilyStates(8, 40);

  auto run_family = [&](const Database& db,
                        const std::vector<HypoExprPtr>& states) {
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = 2;
    std::vector<Result<Relation>> out =
        EvalAlternativesPartial(query, states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
    return ctx.Snapshot();
  };

  // Serial baselines.
  ExecStats small_base = run_family(small_db, small_states);
  ExecStats big_base = run_family(big_db, big_states);
  // Disjoint workloads really differ — otherwise isolation is vacuous.
  ASSERT_NE(small_base.view_tuples_shared, big_base.view_tuples_shared);

  // The same two workloads, concurrently.
  ExecStats small_run, big_run;
  std::thread small_thread(
      [&] { small_run = run_family(small_db, small_states); });
  std::thread big_thread([&] { big_run = run_family(big_db, big_states); });
  small_thread.join();
  big_thread.join();

  EXPECT_EQ(small_run.views_created, small_base.views_created);
  EXPECT_EQ(small_run.view_tuples_shared, small_base.view_tuples_shared);
  EXPECT_EQ(small_run.view_tuples_copied, small_base.view_tuples_copied);
  EXPECT_EQ(big_run.views_created, big_base.views_created);
  EXPECT_EQ(big_run.view_tuples_shared, big_base.view_tuples_shared);
  EXPECT_EQ(big_run.view_tuples_copied, big_base.view_tuples_copied);
}

}  // namespace
}  // namespace hql
