#include "eval/memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "ast/builders.h"
#include "ast/query.h"
#include "common/thread_pool.h"
#include "eval/direct.h"
#include "eval/materialize.h"
#include "eval/ra_eval.h"
#include "opt/planner.h"
#include "tests/test_util.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

std::shared_ptr<const Relation> Cached(Relation r) {
  return std::make_shared<const Relation>(std::move(r));
}

TEST(MemoCacheTest, LookupMissThenHit) {
  MemoCache cache;
  EXPECT_EQ(cache.Lookup(42), nullptr);
  cache.Insert(42, Cached(Ints({{1, 2}})));
  std::shared_ptr<const Relation> hit = cache.Lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Ints({{1, 2}}));

  MemoCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.cached_tuples, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(MemoCacheTest, InsertOverwritesExistingKey) {
  MemoCache cache;
  cache.Insert(7, Cached(Ints({{1, 1}})));
  cache.Insert(7, Cached(Ints({{2, 2}, {3, 3}})));
  std::shared_ptr<const Relation> hit = cache.Lookup(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Ints({{2, 2}, {3, 3}}));
  MemoCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.cached_tuples, 2u);
}

TEST(MemoCacheTest, EvictsLeastRecentlyUsed) {
  MemoCache cache(/*capacity=*/2);
  cache.Insert(1, Cached(Ints({{1, 1}})));
  cache.Insert(2, Cached(Ints({{2, 2}})));
  // Touch 1 so that 2 becomes the LRU entry.
  ASSERT_NE(cache.Lookup(1), nullptr);
  cache.Insert(3, Cached(Ints({{3, 3}})));

  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(MemoCacheTest, ZeroCapacityDisablesCaching) {
  MemoCache cache(/*capacity=*/0);
  cache.Insert(1, Cached(Ints({{1, 1}})));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(MemoCacheTest, ClearDropsEntriesButKeepsCounters) {
  MemoCache cache;
  cache.Insert(1, Cached(Ints({{1, 1}})));
  ASSERT_NE(cache.Lookup(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1), nullptr);
  MemoCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.cached_tuples, 0u);
  EXPECT_EQ(stats.hits, 1u);  // counters survive Clear
  cache.ResetStats();
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Keys that agree modulo the plan capacity, missed in turn: each is
// admitted on its own second miss, however their misses interleave.
TEST(MemoCacheTest, PlanAdmittedOnItsOwnSecondMiss) {
  MemoCache cache;
  const uint64_t a = 5;
  const uint64_t b = a + MemoCache::kPlanCapacity;
  auto plan = std::make_shared<const CachedPlan>();
  for (int round = 0; round < 2; ++round) {
    for (uint64_t key : {a, b}) {
      ASSERT_EQ(cache.LookupPlan(key), nullptr);
      cache.InsertPlan(key, plan);
    }
  }
  EXPECT_EQ(cache.plan_stats().entries, 2u);
  EXPECT_NE(cache.LookupPlan(a), nullptr);
  EXPECT_NE(cache.LookupPlan(b), nullptr);

  // The record keeps the last kPlanCapacity missed keys: a key that missed
  // before that many others missed starts over.
  MemoCache fresh;
  fresh.InsertPlan(1, plan);
  for (uint64_t k = 2; k <= MemoCache::kPlanCapacity + 1; ++k) {
    fresh.InsertPlan(k, plan);
  }
  fresh.InsertPlan(1, plan);
  EXPECT_EQ(fresh.plan_stats().entries, 0u);
  fresh.InsertPlan(1, plan);
  EXPECT_EQ(fresh.plan_stats().entries, 1u);
}

TEST(QueryFingerprintTest, StructurallyEqualTreesAgree) {
  // Two independently built, structurally identical trees must collide —
  // that is what lets one alternative's subplan serve another's.
  QueryPtr a = Sel(Gt(Col(0), Int(5)), Join(Eq(Col(0), Col(2)), Rel("R"),
                                            Rel("S")));
  QueryPtr b = Sel(Gt(Col(0), Int(5)), Join(Eq(Col(0), Col(2)), Rel("R"),
                                            Rel("S")));
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  // Repeated calls are stable (the value is cached).
  EXPECT_EQ(a->Fingerprint(), a->Fingerprint());
}

TEST(QueryFingerprintTest, DistinguishesStructure) {
  EXPECT_NE(Rel("R")->Fingerprint(), Rel("S")->Fingerprint());
  EXPECT_NE(Sel(Gt(Col(0), Int(5)), Rel("R"))->Fingerprint(),
            Sel(Gt(Col(0), Int(6)), Rel("R"))->Fingerprint());
  EXPECT_NE(U(Rel("R"), Rel("S"))->Fingerprint(),
            U(Rel("S"), Rel("R"))->Fingerprint());
}

TEST(FingerprintStateTest, TracksDatabaseContent) {
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1, 2}})));
  uint64_t before = FingerprintState(db);
  EXPECT_EQ(before, FingerprintState(db));  // deterministic

  Database db2 = db;
  ASSERT_OK(db2.Set("R", Ints({{1, 2}, {3, 4}})));
  EXPECT_NE(before, FingerprintState(db2));
}

TEST(MemoEvalTest, MutatedStateIsNotServedStaleResults) {
  // The stale-entry scenario: evaluate with a memo, mutate the database,
  // evaluate again with the same cache. The second evaluation must see the
  // new data — the old entry's key embeds the old content fingerprint, so
  // it is unreachable.
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1, 10}, {2, 20}})));
  QueryPtr query = Sel(Gt(Col(0), Int(1)), Rel("R"));
  MemoCache cache;
  DatabaseResolver resolver(db);

  EvalMemo memo{&cache, FingerprintState(db)};
  ASSERT_OK_AND_ASSIGN(Relation first, EvalRa(query, resolver, memo));
  EXPECT_EQ(first, Ints({{2, 20}}));
  // Warm: the same query under the same state is a pure hit.
  uint64_t hits_before = cache.stats().hits;
  ASSERT_OK_AND_ASSIGN(Relation warm, EvalRa(query, resolver, memo));
  EXPECT_EQ(warm, first);
  EXPECT_GT(cache.stats().hits, hits_before);

  ASSERT_OK(db.Set("R", Ints({{1, 10}, {2, 20}, {5, 50}})));
  EvalMemo memo2{&cache, FingerprintState(db)};
  ASSERT_OK_AND_ASSIGN(Relation second, EvalRa(query, resolver, memo2));
  EXPECT_EQ(second, Ints({{2, 20}, {5, 50}}));
}

TEST(MemoEvalTest, ExecuteWithMemoMatchesExecuteWithout) {
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1, 10}, {2, 20}, {3, 30}})));
  ASSERT_OK(db.Set("S", Ints({{2, 200}, {3, 300}, {4, 400}})));
  QueryPtr query = When(Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S")),
                        Upd(Ins("R", Sel(Gt(Col(0), Int(2)), Rel("S")))));

  MemoCache cache;
  PlannerOptions with_memo;
  with_memo.memo = &cache;
  for (Strategy s : {Strategy::kLazy, Strategy::kHybrid}) {
    ASSERT_OK_AND_ASSIGN(Relation plain, Execute(query, db, schema, s));
    ASSERT_OK_AND_ASSIGN(Relation memoized,
                         Execute(query, db, schema, s, with_memo));
    EXPECT_EQ(plain, memoized) << StrategyName(s);
  }
}

TEST(MemoEvalTest, EvalStateMemoMatchesEvalStateAndHitsOnReuse) {
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1, 10}})));
  ASSERT_OK(db.Set("S", Ints({{2, 20}, {3, 30}})));
  HypoExprPtr state = Comp(Upd(Ins("R", Rel("S"))),
                           Upd(Del("S", Sel(Gt(Col(0), Int(2)), Rel("S")))));

  ASSERT_OK_AND_ASSIGN(Database plain, EvalState(state, db));
  MemoCache cache;
  ASSERT_OK_AND_ASSIGN(Database memoized, EvalStateMemo(state, db, &cache));
  ASSERT_OK_AND_ASSIGN(Relation plain_r, plain.Get("R"));
  ASSERT_OK_AND_ASSIGN(Relation memo_r, memoized.Get("R"));
  ASSERT_OK_AND_ASSIGN(Relation plain_s, plain.Get("S"));
  ASSERT_OK_AND_ASSIGN(Relation memo_s, memoized.Get("S"));
  EXPECT_EQ(plain_r, memo_r);
  EXPECT_EQ(plain_s, memo_s);

  // Second materialization of the same state over the same content is
  // served from the cache.
  uint64_t hits_before = cache.stats().hits;
  ASSERT_OK_AND_ASSIGN(Database again, EvalStateMemo(state, db, &cache));
  ASSERT_OK_AND_ASSIGN(Relation again_r, again.Get("R"));
  EXPECT_EQ(again_r, memo_r);
  EXPECT_GT(cache.stats().hits, hits_before);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool survives Wait: submit more.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, ConcurrentCacheAccessIsSafe) {
  MemoCache cache(/*capacity=*/16);
  ThreadPool pool(4);
  for (int t = 0; t < 8; ++t) {
    pool.Submit([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        uint64_t key = static_cast<uint64_t>((t * 7 + i) % 32);
        if (cache.Lookup(key) == nullptr) {
          cache.Insert(key, Cached(Ints({{i, t}})));
        }
      }
    });
  }
  pool.Wait();
  MemoCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 16u);
  EXPECT_EQ(stats.hits + stats.misses, 8u * 200u);
}

}  // namespace
}  // namespace hql
