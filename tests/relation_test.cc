#include "storage/relation.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/rng.h"
#include "storage/index.h"
#include "storage/stats.h"
#include "storage/view.h"
#include "tests/test_util.h"

namespace hql {
namespace {

using ::hql::testing::IntRow;
using ::hql::testing::Ints;

TEST(RelationTest, FromTuplesSortsAndDedups) {
  Relation r = Ints({{3, 1}, {1, 2}, {3, 1}, {2, 0}});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.ToString(), "{(1, 2), (2, 0), (3, 1)}");
}

TEST(RelationTest, ContainsAndInsertErase) {
  Relation r = Ints({{1}, {3}});
  EXPECT_TRUE(r.Contains(IntRow({1})));
  EXPECT_FALSE(r.Contains(IntRow({2})));
  r.Insert(IntRow({2}));
  EXPECT_TRUE(r.Contains(IntRow({2})));
  EXPECT_EQ(r.size(), 3u);
  r.Insert(IntRow({2}));  // duplicate is a no-op
  EXPECT_EQ(r.size(), 3u);
  r.Erase(IntRow({1}));
  EXPECT_FALSE(r.Contains(IntRow({1})));
  r.Erase(IntRow({99}));  // absent is a no-op
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, UnionIntersectDifference) {
  Relation a = Ints({{1}, {2}, {3}});
  Relation b = Ints({{2}, {3}, {4}});
  EXPECT_EQ(a.UnionWith(b), Ints({{1}, {2}, {3}, {4}}));
  EXPECT_EQ(a.IntersectWith(b), Ints({{2}, {3}}));
  EXPECT_EQ(a.DifferenceWith(b), Ints({{1}}));
  EXPECT_EQ(b.DifferenceWith(a), Ints({{4}}));
}

TEST(RelationTest, SetOpsWithEmpty) {
  Relation a = Ints({{1}, {2}});
  Relation empty(1);
  EXPECT_EQ(a.UnionWith(empty), a);
  EXPECT_EQ(a.IntersectWith(empty), empty);
  EXPECT_EQ(a.DifferenceWith(empty), a);
  EXPECT_EQ(empty.DifferenceWith(a), empty);
}

TEST(RelationTest, ProductArityAndOrder) {
  Relation a = Ints({{1}, {2}});
  Relation b = Ints({{10, 20}, {30, 40}});
  Relation p = a.ProductWith(b);
  EXPECT_EQ(p.arity(), 3u);
  EXPECT_EQ(p.size(), 4u);
  // The product of sorted inputs is emitted in sorted order.
  EXPECT_EQ(p.ToString(),
            "{(1, 10, 20), (1, 30, 40), (2, 10, 20), (2, 30, 40)}");
}

TEST(RelationTest, ProductWithEmptyIsEmpty) {
  Relation a = Ints({{1}, {2}});
  Relation empty(2);
  Relation p = a.ProductWith(empty);
  EXPECT_EQ(p.arity(), 3u);
  EXPECT_TRUE(p.empty());
}

TEST(RelationTest, EqualityAndHash) {
  Relation a = Ints({{1}, {2}});
  Relation b = Ints({{2}, {1}});
  EXPECT_EQ(a, b);  // order-insensitive construction
  EXPECT_EQ(a.Hash(), b.Hash());
  Relation c = Ints({{1}});
  EXPECT_NE(a, c);
}

TEST(RelationTest, MixedValueTypes) {
  Relation r = Relation::FromTuples(
      2, {{Value::Int(1), Value::Str("b")}, {Value::Int(1), Value::Str("a")}});
  EXPECT_EQ(r.ToString(), "{(1, 'a'), (1, 'b')}");
}

// Copies share one payload; a mutation clones it first, so the original
// keeps its contents, its hash and the positions its index points at.
TEST(RelationTest, CopyThenMutateLeavesOriginalIntact) {
  const Relation original = Ints({{1, 10}, {2, 20}, {3, 10}});
  const std::string contents = original.ToString();
  const uint64_t hash = original.Hash();
  RelationIndexPtr index = original.IndexOn({1});
  const Tuple key = IntRow({10});
  ASSERT_EQ(index->Probe(key).size(), 2u);

  Relation inserted = original;
  Relation erased = original;
  EXPECT_EQ(&inserted.tuples(), &original.tuples());
  inserted.Insert(IntRow({0, 10}));
  erased.Erase(IntRow({1, 10}));
  EXPECT_NE(&inserted.tuples(), &original.tuples());
  EXPECT_NE(&erased.tuples(), &original.tuples());

  EXPECT_EQ(original.ToString(), contents);
  EXPECT_EQ(original.Hash(), hash);
  EXPECT_EQ(original, Ints({{1, 10}, {2, 20}, {3, 10}}));
  std::vector<Tuple> probed;
  for (uint32_t pos : index->Probe(key)) {
    probed.push_back(original.tuples()[pos]);
  }
  EXPECT_EQ(probed, (std::vector<Tuple>{IntRow({1, 10}), IntRow({3, 10})}));

  EXPECT_EQ(inserted, Ints({{0, 10}, {1, 10}, {2, 20}, {3, 10}}));
  EXPECT_EQ(erased, Ints({{2, 20}, {3, 10}}));
  EXPECT_NE(inserted.Hash(), hash);
  EXPECT_NE(erased.Hash(), hash);
}

TEST(RelationTest, OwnedMutationResetsTheCachedHash) {
  Relation r = Ints({{1}, {2}});
  const uint64_t before = r.Hash();
  r.Insert(IntRow({3}));
  EXPECT_NE(r.Hash(), before);
  EXPECT_EQ(r.Hash(), Ints({{1}, {2}, {3}}).Hash());
  r.Erase(IntRow({3}));
  EXPECT_EQ(r.Hash(), before);
}

TEST(RelationTest, MovedFromIsEmptyOfSameArity) {
  Relation source = Ints({{1, 2}, {3, 4}});
  Relation moved = std::move(source);
  EXPECT_EQ(moved.size(), 2u);
  // NOLINTNEXTLINE(bugprone-use-after-move): the state is specified.
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.arity(), 2u);
  EXPECT_EQ(source, Relation(2));
  EXPECT_EQ(source.Hash(), Relation(2).Hash());
  source.Insert(IntRow({5, 6}));  // still a usable relation
  EXPECT_EQ(source, Ints({{5, 6}}));

  Relation assigned(2);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.arity(), 2u);
}

TEST(RelationTest, EqualityComparesContentAcrossPayloads) {
  Relation a = Ints({{1}, {2}});
  Relation b = Ints({{1}, {2}});
  ASSERT_NE(&a.tuples(), &b.tuples());
  EXPECT_EQ(a, b);
  Relation c = a;
  EXPECT_EQ(&c.tuples(), &a.tuples());
  EXPECT_EQ(c, b);
  c.Insert(IntRow({3}));
  EXPECT_NE(c, a);
  c.Erase(IntRow({3}));
  EXPECT_EQ(c, a);
  EXPECT_NE(Relation(1), Relation(2));
}

// Concurrent readers of one payload and writers of private copies: copies
// taken on many threads share the payload and race to fill its hash cache,
// each copy builds its own index, and each mutation clones. The TSan build
// checks the sharing for data races.
TEST(RelationTest, ConcurrentCopiesReadAndMutateIndependently) {
  Relation shared(2);
  Relation twin(2);  // same content, separate payload
  for (int64_t i = 0; i < 512; ++i) {
    shared.Insert(IntRow({i, i % 7}));
    twin.Insert(IntRow({i, i % 7}));
  }
  const Relation reference = shared;
  const uint64_t hash = twin.Hash();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        Relation copy = shared;
        if (copy.Hash() != hash) ++failures[t];
        if (!copy.Contains(IntRow({t, t % 7}))) ++failures[t];
        RelationIndexPtr index = copy.IndexOn({1});
        if (index->Probe(IntRow({t % 7})).empty()) ++failures[t];

        Relation mine = copy;
        mine.Insert(IntRow({1000 + t, round}));
        mine.Erase(IntRow({t, t % 7}));
        if (mine.size() != reference.size()) ++failures[t];
        if (mine.Contains(IntRow({t, t % 7}))) ++failures[t];
        if (mine.Hash() == hash) ++failures[t];
        if (copy.Hash() != hash) ++failures[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(shared, reference);
  EXPECT_EQ(&shared.tuples(), &reference.tuples());
  EXPECT_EQ(shared.Hash(), hash);
}

// ---------------------------------------------------------------------------
// Deferred relations: RelationView::Materialize of an overlay, merged on the
// first read of its tuples.

// A random canonical split of a random set: a base, adds outside it and
// dels inside it.
struct Split {
  std::shared_ptr<const Relation> base;
  std::vector<Tuple> adds;
  std::vector<Tuple> dels;
  std::set<Tuple, TupleLess> merged;  // (base ∖ dels) ∪ adds
};

Split RandomSplit(Rng* rng) {
  std::set<Tuple, TupleLess> base_set, others;
  int64_t n = rng->Uniform(0, 60);
  for (int64_t i = 0; i < n; ++i) {
    base_set.insert(IntRow({rng->Uniform(0, 40), rng->Uniform(0, 3)}));
  }
  for (int64_t i = 0; i < 20; ++i) {
    Tuple t = IntRow({rng->Uniform(0, 50), rng->Uniform(0, 3)});
    if (base_set.count(t) == 0) others.insert(t);
  }
  Split split;
  split.base = std::make_shared<const Relation>(Relation::FromTuples(
      2, std::vector<Tuple>(base_set.begin(), base_set.end())));
  for (const Tuple& t : base_set) {
    if (rng->Bernoulli(0.3)) {
      split.dels.push_back(t);
    } else {
      split.merged.insert(t);
    }
  }
  for (const Tuple& t : others) {
    if (rng->Bernoulli(0.5)) {
      split.adds.push_back(t);
      split.merged.insert(t);
    }
  }
  return split;
}

Relation DeferredOf(const Split& split) {
  return Relation::Deferred(split.base, split.adds, split.dels);
}

TEST(DeferredRelationTest, HashEqualsTheSettledAndRebuiltHash) {
  Rng rng(25);
  for (int trial = 0; trial < 200; ++trial) {
    Split split = RandomSplit(&rng);
    Relation rebuilt = Relation::FromTuples(
        2, std::vector<Tuple>(split.merged.begin(), split.merged.end()));
    RelationView view =
        RelationView::Overlay(split.base, split.adds, split.dels);
    Relation deferred = DeferredOf(split);

    const uint64_t deferred_hash = deferred.Hash();
    EXPECT_EQ(deferred.size(), split.merged.size()) << trial;
    EXPECT_EQ(deferred_hash, rebuilt.Hash()) << trial;
    EXPECT_EQ(deferred_hash, view.Hash()) << trial;
    EXPECT_EQ(deferred_hash, view.Materialize().Hash()) << trial;

    // Settle, then make the payload recompute its hash from the tuples.
    EXPECT_EQ(deferred.tuples(),
              std::vector<Tuple>(split.merged.begin(), split.merged.end()))
        << trial;
    EXPECT_EQ(deferred.Hash(), deferred_hash) << trial;
    Relation recomputed = deferred;
    recomputed.Insert(IntRow({-1, -1}));
    recomputed.Erase(IntRow({-1, -1}));
    EXPECT_EQ(recomputed.Hash(), deferred_hash) << trial;
    EXPECT_EQ(deferred, rebuilt) << trial;
  }
}

TEST(DeferredRelationTest, CountingHashingAndCopyingDoNotSettle) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  auto base = std::make_shared<const Relation>(
      Ints({{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  Relation deferred = Relation::Deferred(base, {IntRow({5, 5})},
                                         {IntRow({1, 1}), IntRow({3, 3})});
  Relation copy = deferred;
  Relation third(copy);
  EXPECT_EQ(deferred.size(), 3u);
  EXPECT_FALSE(deferred.empty());
  EXPECT_EQ(copy.Hash(), Ints({{2, 2}, {4, 4}, {5, 5}}).Hash());
  EXPECT_EQ(deferred, copy);  // shared payload
  EXPECT_EQ(third, deferred);
  EXPECT_NE(deferred, Ints({{1, 1}}));  // sizes differ
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);

  // The first read merges, once, for every copy.
  EXPECT_EQ(deferred.tuples(), Ints({{2, 2}, {4, 4}, {5, 5}}).tuples());
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 3u);
  EXPECT_EQ(&copy.tuples(), &deferred.tuples());
  EXPECT_TRUE(third.Contains(IntRow({5, 5})));
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 3u);
}

TEST(DeferredRelationTest, EmptyResultNeedsNoMerge) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  auto base = std::make_shared<const Relation>(Ints({{1, 1}, {2, 2}}));
  Relation none =
      Relation::Deferred(base, {}, {IntRow({1, 1}), IntRow({2, 2})});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.Hash(), Relation(2).Hash());
  EXPECT_EQ(none, Relation(2));
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);
}

TEST(DeferredRelationTest, MutationSettlesIntoAPrivatePayload) {
  auto base = std::make_shared<const Relation>(Ints({{1, 1}, {2, 2}}));
  Relation deferred = Relation::Deferred(base, {IntRow({3, 3})}, {});
  Relation mine = deferred;
  mine.Insert(IntRow({4, 4}));
  mine.Erase(IntRow({1, 1}));
  EXPECT_EQ(mine, Ints({{2, 2}, {3, 3}, {4, 4}}));
  EXPECT_EQ(mine.Hash(), Ints({{2, 2}, {3, 3}, {4, 4}}).Hash());
  EXPECT_EQ(deferred, Ints({{1, 1}, {2, 2}, {3, 3}}));
  // A sole owner still writes a private copy, never the settled payload.
  Relation owned = Relation::Deferred(base, {}, {IntRow({2, 2})});
  owned.Insert(IntRow({9, 9}));
  EXPECT_EQ(owned, Ints({{1, 1}, {9, 9}}));
  EXPECT_EQ(*base, Ints({{1, 1}, {2, 2}}));
}

// Readers settle one deferred payload concurrently while a writer copies and
// mutates it; everyone sees the same content. The TSan build checks the
// once-only merge for data races.
TEST(DeferredRelationTest, ConcurrentReadersAndWriterSeeOneContent) {
  Relation flat(2);
  for (int64_t i = 0; i < 512; ++i) flat.Insert(IntRow({i, i % 7}));
  auto base = std::make_shared<const Relation>(flat);
  std::vector<Tuple> adds, dels;
  for (int64_t i = 0; i < 16; ++i) {
    adds.push_back(IntRow({1000 + i, 0}));
    dels.push_back(IntRow({i * 8, (i * 8) % 7}));
  }
  for (int round = 0; round < 20; ++round) {
    const Relation deferred = Relation::Deferred(base, adds, dels);
    const Relation expected = flat.ApplyTuples(adds, dels);
    const uint64_t hash = expected.Hash();

    constexpr int kReaders = 8;
    std::vector<int> failures(kReaders + 1, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        Relation copy = deferred;
        if (t % 2 == 0) {
          if (copy.tuples() != expected.tuples()) ++failures[t];
          if (copy.Hash() != hash) ++failures[t];
        } else {
          if (copy.Hash() != hash) ++failures[t];
          if (copy.tuples() != expected.tuples()) ++failures[t];
        }
      });
    }
    threads.emplace_back([&] {
      Relation mine = deferred;
      mine.Insert(IntRow({-1, 0}));
      if (mine.size() != expected.size() + 1) ++failures[kReaders];
      if (mine.Hash() == hash) ++failures[kReaders];
      mine.Erase(IntRow({-1, 0}));
      if (mine != expected || mine.Hash() != hash) ++failures[kReaders];
    });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t <= kReaders; ++t) {
      EXPECT_EQ(failures[t], 0) << "round " << round << " thread " << t;
    }
    EXPECT_EQ(deferred, expected);
  }
}

TEST(SchemaTest, AddAndQuery) {
  Schema s;
  EXPECT_OK(s.AddRelation("R", 2));
  EXPECT_OK(s.AddRelation("S", 3));
  EXPECT_TRUE(s.HasRelation("R"));
  EXPECT_FALSE(s.HasRelation("T"));
  ASSERT_OK_AND_ASSIGN(size_t arity, s.ArityOf("S"));
  EXPECT_EQ(arity, 3u);
  EXPECT_FALSE(s.ArityOf("T").ok());
  EXPECT_EQ(s.NumRelations(), 2u);
}

TEST(SchemaTest, Rejections) {
  Schema s;
  EXPECT_OK(s.AddRelation("R", 2));
  EXPECT_EQ(s.AddRelation("R", 2).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.AddRelation("", 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.AddRelation("Z", 0).code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, StartsEmptyAndSets) {
  Schema schema = testing::MakeSchema({{"R", 2}, {"S", 1}});
  Database db(schema);
  ASSERT_OK_AND_ASSIGN(Relation r, db.Get("R"));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_OK(db.Set("R", Ints({{1, 2}})));
  ASSERT_OK_AND_ASSIGN(Relation r2, db.Get("R"));
  EXPECT_EQ(r2.size(), 1u);
}

TEST(DatabaseTest, SetRejectsBadNameOrArity) {
  Schema schema = testing::MakeSchema({{"R", 2}});
  Database db(schema);
  EXPECT_EQ(db.Set("T", Ints({{1, 2}})).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Set("R", Ints({{1}})).code(), StatusCode::kTypeError);
  EXPECT_EQ(db.Get("T").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, CopySemantics) {
  Schema schema = testing::MakeSchema({{"R", 1}});
  Database db(schema);
  EXPECT_OK(db.Set("R", Ints({{1}})));
  Database copy = db;
  EXPECT_OK(copy.Set("R", Ints({{2}})));
  // The original is untouched: database states are values.
  EXPECT_EQ(db.GetRef("R"), Ints({{1}}));
  EXPECT_EQ(copy.GetRef("R"), Ints({{2}}));
  EXPECT_NE(db, copy);
}

TEST(StatsTest, FromDatabase) {
  Schema schema = testing::MakeSchema({{"R", 1}, {"S", 2}});
  Database db(schema);
  EXPECT_OK(db.Set("R", Ints({{1}, {2}, {3}})));
  StatsCatalog stats = StatsCatalog::FromDatabase(db);
  EXPECT_EQ(stats.CardinalityOf("R", 0), 3u);
  EXPECT_EQ(stats.CardinalityOf("S", 0), 0u);
  EXPECT_EQ(stats.CardinalityOf("unknown", 77), 77u);
}

}  // namespace
}  // namespace hql
