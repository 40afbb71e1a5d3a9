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
#include "tests/test_util.h"
#include "workload/generators.h"

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
// taken on many threads share the payload and race to fill its hash and
// index caches (one index build serves them all), and each mutation
// clones. The TSan build
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
// Overlays: (base ∖ dels) ∪ adds over a shared flat base, derived by
// ApplyDelta and read without merging.

Tuple T(int64_t a, int64_t b) { return IntRow({a, b}); }

// An 8-row arity-2 base: one tuple in the delta is 1/8 of it, under
// Relation::kConsolidateFraction, so small deltas stay overlays.
Relation Base8() {
  std::vector<Tuple> rows;
  for (int64_t i = 1; i <= 8; ++i) rows.push_back(T(i, i));
  return Relation::FromTuples(2, std::move(rows));
}

std::vector<Tuple> Collect(const Relation& r) {
  std::vector<Tuple> out;
  r.Scan([&out](const Tuple& t) { out.push_back(t); });
  return out;
}

TEST(RelationViewTest, FlatWrapBehavesLikeRelation) {
  Relation r = Ints({{1, 1}, {2, 2}, {3, 3}});
  EXPECT_TRUE(r.is_flat());
  EXPECT_EQ(r.base().payload_id(), r.payload_id());
  EXPECT_EQ(r.delta_size(), 0u);
  EXPECT_TRUE(r.Contains(T(2, 2)));
  EXPECT_FALSE(r.Contains(T(2, 3)));
  EXPECT_EQ(Collect(r), r.tuples());
  Relation copy = r;
  EXPECT_EQ(copy.payload_id(), r.payload_id());
  EXPECT_EQ(copy.Hash(), r.Hash());
}

TEST(RelationViewTest, EmptyBaseOverlay) {
  Relation empty(2);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(Collect(empty), std::vector<Tuple>());
  // Adding onto an empty base: any delta exceeds the fraction of nothing,
  // so the result consolidates at once (a free copy of nothing).
  Relation grown = empty.ApplyDelta({T(5, 5), T(1, 1)}, {});
  EXPECT_EQ(grown.size(), 2u);
  EXPECT_TRUE(grown.is_flat());
  EXPECT_EQ(grown, Ints({{1, 1}, {5, 5}}));
  EXPECT_EQ(Collect(grown), (std::vector<Tuple>{T(1, 1), T(5, 5)}));
}

TEST(RelationViewTest, DeleteAllLeavesEmptyContent) {
  Relation r = Ints({{1, 1}, {2, 2}});
  for (const Relation& gone :
       {r.ApplyDelta({}, {T(1, 1), T(2, 2)}),
        Relation::Overlay(r, {}, {T(1, 1), T(2, 2)})}) {
    EXPECT_EQ(gone.size(), 0u);
    EXPECT_TRUE(gone.empty());
    EXPECT_FALSE(gone.Contains(T(1, 1)));
    EXPECT_EQ(Collect(gone), std::vector<Tuple>());
    EXPECT_EQ(gone, Relation(2));
  }
}

TEST(RelationViewTest, AddThenDeleteCancelsOut) {
  Relation base = Base8();
  Relation added = base.ApplyDelta({T(9, 9)}, {});
  ASSERT_FALSE(added.is_flat());
  ASSERT_TRUE(added.Contains(T(9, 9)));
  // Deleting the previously added tuple must cancel the pending insert,
  // not record a deletion against the base (dels ⊆ base must hold).
  Relation back = added.ApplyDelta({}, {T(9, 9)});
  EXPECT_TRUE(back.is_flat());
  EXPECT_EQ(back.payload_id(), base.payload_id());
  EXPECT_EQ(back.size(), 8u);
  EXPECT_EQ(back.dels().size(), 0u);
}

TEST(RelationViewTest, DeleteThenReAddCancelsOut) {
  Relation base = Base8();
  Relation removed = base.ApplyDelta({}, {T(2, 2)});
  ASSERT_FALSE(removed.is_flat());
  ASSERT_FALSE(removed.Contains(T(2, 2)));
  Relation back = removed.ApplyDelta({T(2, 2)}, {});
  EXPECT_TRUE(back.is_flat());
  EXPECT_EQ(back.payload_id(), base.payload_id());
  EXPECT_EQ(back, base);
}

TEST(RelationViewTest, AddWinsOnOverlapWithinOneDelta) {
  // (base − D) ∪ I with the same tuple in both D and I: present afterwards,
  // matching update semantics.
  Relation base = Base8();
  Relation out = base.ApplyDelta({T(1, 1)}, {T(1, 1)});
  EXPECT_TRUE(out.Contains(T(1, 1)));
  EXPECT_EQ(out.size(), 8u);
  Relation out2 = base.ApplyDelta({T(70, 70)}, {T(70, 70)});
  EXPECT_TRUE(out2.Contains(T(70, 70)));
  EXPECT_EQ(out2.size(), 9u);
}

TEST(RelationViewTest, ConsolidationThresholdBoundary) {
  // 8-row base, fraction 0.25: a composed delta of exactly 2 stays an
  // overlay (strictly-greater test); 3 consolidates.
  Relation base(1);
  for (int64_t i = 0; i < 8; ++i) base.Insert({Value::Int(i)});

  Relation at = base.ApplyDelta({{Value::Int(100)}}, {{Value::Int(0)}});
  EXPECT_FALSE(at.is_flat());
  EXPECT_EQ(at.delta_size(), 2u);

  Relation over = at.ApplyDelta({{Value::Int(101)}}, {});
  EXPECT_TRUE(over.is_flat());
  EXPECT_NE(over.payload_id(), base.payload_id());
  EXPECT_EQ(over.size(), 9u);
  EXPECT_TRUE(over.Contains({Value::Int(101)}));
  EXPECT_FALSE(over.Contains({Value::Int(0)}));

  // The same content held as an overlay, built from its canonical split.
  Relation kept = Relation::Overlay(
      base, {{Value::Int(100)}, {Value::Int(101)}}, {{Value::Int(0)}});
  EXPECT_FALSE(kept.is_flat());
  EXPECT_EQ(kept, over);
  EXPECT_EQ(kept.Hash(), over.Hash());
}

TEST(RelationViewTest, OverlayNormalizesAgainstBase) {
  Relation r = Ints({{1, 1}, {2, 2}});
  // An "add" already present and a "del" not present both normalize away.
  Relation v = r.ApplyDelta({T(1, 1)}, {T(9, 9)});
  EXPECT_TRUE(v.is_flat());
  EXPECT_EQ(v.payload_id(), r.payload_id());
  EXPECT_EQ(v.size(), 2u);
}

TEST(RelationViewTest, SharedConsolidatesOnceAndIsStable) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation base = Base8();
  Relation v = base.ApplyDelta({T(40, 40)}, {T(1, 1)});
  const std::vector<Tuple>& first = v.tuples();
  EXPECT_EQ(&v.tuples(), &first);  // merged once, then stable
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 8u);
  // Copies share the merge, and the split stays readable beside it.
  Relation copy = v;
  EXPECT_EQ(&copy.tuples(), &first);
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 8u);
  EXPECT_FALSE(v.is_flat());
  EXPECT_EQ(v.base().payload_id(), base.payload_id());
  EXPECT_EQ(v.adds(), std::vector<Tuple>{T(40, 40)});
  EXPECT_EQ(v.dels(), std::vector<Tuple>{T(1, 1)});
  EXPECT_EQ(Collect(v), first);
}

TEST(RelationViewTest, FingerprintDistinguishesContentChanges) {
  Relation base = Base8();
  Relation changed = base.ApplyDelta({T(30, 30)}, {});
  EXPECT_NE(base.Hash(), changed.Hash());
  // Same base, same delta => same fingerprint.
  Relation again = base.ApplyDelta({T(30, 30)}, {});
  EXPECT_EQ(changed.Hash(), again.Hash());
}

TEST(RelationViewTest, HashIgnoresTheBaseDeltaSplit) {
  Relation r = Ints({{1, 1}, {2, 2}, {3, 3}});
  Relation content = Ints({{2, 2}, {3, 3}, {4, 4}});
  Relation overlay = Relation::Overlay(r, {T(4, 4)}, {T(1, 1)});
  Relation other_base =
      Relation::Overlay(Ints({{2, 2}, {5, 5}}), {T(3, 3), T(4, 4)}, {T(5, 5)});
  ASSERT_FALSE(overlay.is_flat());
  ASSERT_FALSE(other_base.is_flat());
  EXPECT_EQ(overlay.Hash(), content.Hash());
  EXPECT_EQ(other_base.Hash(), content.Hash());
  EXPECT_EQ(overlay, content);
  EXPECT_EQ(other_base, overlay);
}

TEST(RelationViewTest, MaterializeDefersTheMergeUntilRead) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation r = Ints({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Relation out = Relation::Overlay(r, {T(9, 9)}, {T(2, 2)});
  EXPECT_EQ(out.size(), 4u);
  Relation copy = out;
  EXPECT_EQ(copy, out);
  EXPECT_EQ(copy.Hash(), Ints({{1, 1}, {3, 3}, {4, 4}, {9, 9}}).Hash());
  EXPECT_EQ(copy, Ints({{1, 1}, {3, 3}, {4, 4}, {9, 9}}));
  EXPECT_EQ(Collect(out).size(), 4u);
  EXPECT_TRUE(out.Contains(T(9, 9)));
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);

  EXPECT_EQ(Collect(out), out.tuples());
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 4u);
  EXPECT_EQ(copy.tuples().size(), 4u);
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 4u);
}

TEST(RelationViewTest, ViewSetAlgebraMatchesFlat) {
  Rng rng(77);
  Relation a = GenRelation(&rng, 40, 2, 20, 4);
  Relation b = GenRelation(&rng, 40, 2, 20, 4);
  Relation va = a.ApplyDelta({T(100, 100)}, {a.tuples().front()});
  Relation vb = b.ApplyDelta({T(100, 100)}, {});
  ASSERT_FALSE(va.is_flat());
  ASSERT_FALSE(vb.is_flat());
  Relation fa = Relation::FromSortedUnique(2, Collect(va));
  Relation fb = Relation::FromSortedUnique(2, Collect(vb));
  EXPECT_EQ(va.UnionWith(vb), fa.UnionWith(fb));
  EXPECT_EQ(va.IntersectWith(vb), fa.IntersectWith(fb));
  EXPECT_EQ(va.DifferenceWith(vb), fa.DifferenceWith(fb));
  EXPECT_EQ(va.DifferenceWith(fb), fa.DifferenceWith(vb));
  EXPECT_EQ(va.ProductWith(vb), fa.ProductWith(fb));
  EXPECT_EQ(va.ProductWith(vb).size(), fa.size() * fb.size());
}

TEST(RelationViewTest, ApplyTuplesMatchesInsertErase) {
  Rng rng(5);
  Relation base = GenRelation(&rng, 50, 2, 25, 4);
  std::vector<Tuple> dels(base.tuples().begin(), base.tuples().begin() + 10);
  std::vector<Tuple> adds = {T(1000, 0), T(1001, 1), T(1002, 2)};
  Relation merged = base.ApplyTuples(adds, dels);

  Relation expected = base;
  for (const Tuple& t : dels) expected.Erase(t);
  for (const Tuple& t : adds) expected.Insert(t);
  EXPECT_EQ(merged, expected);
  // An overlay merges the same way.
  Relation overlay = Relation::Overlay(base, {}, {dels.front()});
  EXPECT_EQ(overlay.ApplyTuples(adds, {}),
            base.ApplyTuples(adds, {dels.front()}));
}

TEST(RelationViewTest, ViewStatsCountSharingAndConsolidation) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation r = Ints({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Relation copy = r;  // a copy shares the payload: not an overlay
  ExecStats s0 = ctx.Snapshot();
  EXPECT_EQ(s0.views_created, 0u);

  Relation child = copy.ApplyDelta({T(9, 9)}, {});
  ExecStats s1 = ctx.Snapshot();
  EXPECT_EQ(s1.views_created, 1u);
  EXPECT_EQ(s1.view_tuples_shared, r.size());
  EXPECT_EQ(s1.view_consolidations, 0u);

  Relation grown = child.ApplyDelta({T(10, 10)}, {});  // past 1/4 of 4
  EXPECT_TRUE(grown.is_flat());
  ExecStats s2 = ctx.Snapshot();
  EXPECT_EQ(s2.view_consolidations, 1u);
  EXPECT_EQ(s2.view_tuples_copied, grown.size());
}

TEST(RelationViewTest, IteratorInterleavesAddsAndSkipsDels) {
  Relation r = Ints({{1, 1}, {3, 3}, {5, 5}});
  Relation v = Relation::Overlay(r, {T(2, 2), T(6, 6)}, {T(3, 3)});
  const std::vector<Tuple> want = {T(1, 1), T(2, 2), T(5, 5), T(6, 6)};
  EXPECT_EQ(Collect(v), want);
  v.WithRange([&want](auto first, auto last) {
    EXPECT_EQ(std::vector<Tuple>(first, last), want);
  });
  EXPECT_EQ(v.tuples(), want);
}

// 1,000 unread edits compose onto the one flat base: every result is one
// level deep, shares the original payload as its base, and nothing merges.
TEST(RelationTest, ThousandUnreadApplyDeltasStayOneLevelDeep) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 10000; ++i) rows.push_back(T(i, i % 7));
  const Relation base = Relation::FromTuples(2, std::move(rows));
  Rng rng(1000);
  Relation r = base;
  for (int edit = 0; edit < 1000; ++edit) {
    int64_t k = rng.Uniform(0, 20000);
    r = rng.Bernoulli(0.5) ? r.ApplyDelta({T(k, k % 7)}, {})
                           : r.ApplyDelta({}, {T(k, k % 7)});
    ASSERT_TRUE(r.base().is_flat()) << edit;
    ASSERT_EQ(r.base().payload_id(), base.payload_id()) << edit;
  }
  EXPECT_FALSE(r.is_flat());
  EXPECT_EQ(ctx.Snapshot().view_consolidations, 0u);
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);
  EXPECT_EQ(r, base.ApplyTuples(r.adds(), r.dels()));
}

// Overlay relations: canonical splits built directly, merged on the first
// read of their tuples.

// A random canonical split of a random set: a base, adds outside it and
// dels inside it.
struct Split {
  Relation base{2};
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
  split.base = Relation::FromTuples(
      2, std::vector<Tuple>(base_set.begin(), base_set.end()));
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
  return Relation::Overlay(split.base, split.adds, split.dels);
}

TEST(DeferredRelationTest, HashEqualsTheSettledAndRebuiltHash) {
  Rng rng(25);
  for (int trial = 0; trial < 200; ++trial) {
    Split split = RandomSplit(&rng);
    Relation rebuilt = Relation::FromTuples(
        2, std::vector<Tuple>(split.merged.begin(), split.merged.end()));
    Relation deferred = DeferredOf(split);
    Relation applied = split.base.ApplyDelta(split.adds, split.dels);

    const uint64_t deferred_hash = deferred.Hash();
    EXPECT_EQ(deferred.size(), split.merged.size()) << trial;
    EXPECT_EQ(deferred_hash, rebuilt.Hash()) << trial;
    EXPECT_EQ(deferred_hash, applied.Hash()) << trial;
    EXPECT_EQ(deferred, applied) << trial;

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
  Relation base = Ints({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Relation deferred = Relation::Overlay(base, {IntRow({5, 5})},
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
  Relation base = Ints({{1, 1}, {2, 2}});
  Relation none =
      Relation::Overlay(base, {}, {IntRow({1, 1}), IntRow({2, 2})});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.Hash(), Relation(2).Hash());
  EXPECT_EQ(none, Relation(2));
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);
}

TEST(DeferredRelationTest, MutationSettlesIntoAPrivatePayload) {
  const Relation base = Ints({{1, 1}, {2, 2}});
  Relation deferred = Relation::Overlay(base, {IntRow({3, 3})}, {});
  Relation mine = deferred;
  mine.Insert(IntRow({4, 4}));
  mine.Erase(IntRow({1, 1}));
  EXPECT_TRUE(mine.is_flat());
  EXPECT_EQ(mine, Ints({{2, 2}, {3, 3}, {4, 4}}));
  EXPECT_EQ(mine.Hash(), Ints({{2, 2}, {3, 3}, {4, 4}}).Hash());
  EXPECT_EQ(deferred, Ints({{1, 1}, {2, 2}, {3, 3}}));
  // A sole owner still writes a private copy, never the overlay payload.
  Relation owned = Relation::Overlay(base, {}, {IntRow({2, 2})});
  owned.Insert(IntRow({9, 9}));
  EXPECT_EQ(owned, Ints({{1, 1}, {9, 9}}));
  EXPECT_EQ(base, Ints({{1, 1}, {2, 2}}));
}

// Readers settle one overlay payload concurrently while a writer copies and
// mutates it; everyone sees the same content. The TSan build checks the
// once-only merge for data races.
TEST(DeferredRelationTest, ConcurrentReadersAndWriterSeeOneContent) {
  Relation flat(2);
  for (int64_t i = 0; i < 512; ++i) flat.Insert(IntRow({i, i % 7}));
  std::vector<Tuple> adds, dels;
  for (int64_t i = 0; i < 16; ++i) {
    adds.push_back(IntRow({1000 + i, 0}));
    dels.push_back(IntRow({i * 8, (i * 8) % 7}));
  }
  for (int round = 0; round < 20; ++round) {
    const Relation deferred = Relation::Overlay(flat, adds, dels);
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
          if (Collect(copy) != expected.tuples()) ++failures[t];
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

// Copies share the payload, so an edit between two copies of overlays over
// one base is found from the deltas alone.
TEST(OverlayEditBetweenTest, FindsTheSharedBaseAcrossRelationCopies) {
  const Relation base = Base8();
  const Relation base_copy = base;
  Relation from = Relation(base).ApplyDelta({T(20, 20)}, {T(1, 1)});
  Relation to = Relation(base_copy).ApplyDelta({}, {T(1, 1), T(2, 2)});
  std::optional<RelationEdit> edit =
      OverlayEditBetween(Relation(from), Relation(to));
  ASSERT_TRUE(edit.has_value());
  EXPECT_EQ(edit->adds, std::vector<Tuple>{});
  EXPECT_EQ(edit->dels, (std::vector<Tuple>{T(2, 2), T(20, 20)}));
  EXPECT_EQ(from.ApplyDelta(edit->adds, edit->dels), to);
  // A flat relation is its own base: the edit to an overlay over it is that
  // overlay's delta.
  edit = OverlayEditBetween(base_copy, to);
  ASSERT_TRUE(edit.has_value());
  EXPECT_EQ(edit->dels, (std::vector<Tuple>{T(1, 1), T(2, 2)}));
  // A copy of the content in a fresh payload is another base.
  Relation twin = Relation::FromTuples(2, std::vector<Tuple>(base.tuples()));
  EXPECT_FALSE(OverlayEditBetween(twin, to).has_value());
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

// The index cache rides on the shared payload: an index the advisor or
// BuildIndex made through one Database is seen by its copies, by states
// derived from it (overlays over the indexed base) and by snapshots taken
// before the build.
TEST(DatabaseTest, IndexBuiltThroughOneDatabaseIsSeenByCopiesAndDerivedStates) {
  Schema schema = testing::MakeSchema({{"R", 2}});
  Database db(schema);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back(IntRow({i, i % 5}));
  ASSERT_OK(db.Set("R", Relation::FromTuples(2, std::move(rows))));
  const Database snapshot = db;
  ASSERT_OK_AND_ASSIGN(RelationIndexPtr index, db.BuildIndex("R", {1}));

  Database copy = db;
  EXPECT_EQ(copy.GetRef("R").ExistingIndex({1}), index);
  EXPECT_EQ(snapshot.GetRef("R").ExistingIndex({1}), index);
  Database derived = db;
  ASSERT_OK(derived.Set(
      "R", db.GetRef("R").ApplyDelta({IntRow({500, 1})}, {IntRow({3, 3})})));
  ASSERT_FALSE(derived.GetRef("R").is_flat());
  EXPECT_EQ(derived.GetRef("R").base().ExistingIndex({1}), index);
  ASSERT_OK_AND_ASSIGN(Relation fetched, derived.Get("R"));
  EXPECT_EQ(fetched.base().ExistingIndex({1}), index);
  // A mutated copy is a fresh payload and starts without the index.
  Relation mutated = copy.GetRef("R");
  mutated.Insert(IntRow({900, 0}));
  EXPECT_EQ(mutated.ExistingIndex({1}), nullptr);
  EXPECT_EQ(db.GetRef("R").ExistingIndex({1}), index);
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
