#include "storage/view.h"

#include "common/exec_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "storage/relation.h"
#include "workload/generators.h"

namespace hql {
namespace {

Tuple T(int64_t a, int64_t b) { return {Value::Int(a), Value::Int(b)}; }

Relation Rel2(std::vector<std::pair<int64_t, int64_t>> rows) {
  Relation r(2);
  for (const auto& [a, b] : rows) r.Insert(T(a, b));
  return r;
}

std::vector<Tuple> Collect(const RelationView& v) {
  std::vector<Tuple> out;
  for (const Tuple& t : v) out.push_back(t);
  return out;
}

TEST(RelationViewTest, FlatWrapBehavesLikeRelation) {
  Relation r = Rel2({{1, 1}, {2, 2}, {3, 3}});
  RelationView v(r);
  EXPECT_TRUE(v.is_flat());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.delta_size(), 0u);
  EXPECT_TRUE(v.Contains(T(2, 2)));
  EXPECT_FALSE(v.Contains(T(2, 3)));
  EXPECT_EQ(v.Materialize(), r);
  EXPECT_EQ(v.Hash(), r.Hash());
  EXPECT_EQ(Collect(v), r.tuples());
}

TEST(RelationViewTest, EmptyBaseOverlay) {
  RelationView empty(size_t{2});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(Collect(empty), std::vector<Tuple>());

  // Adding onto an empty base: any overlay exceeds fraction × 0, so the
  // view consolidates immediately (a free copy of nothing).
  RelationView grown = empty.ApplyDelta({T(5, 5), T(1, 1)}, {}, 100.0);
  EXPECT_EQ(grown.size(), 2u);
  EXPECT_TRUE(grown.is_flat());
  EXPECT_EQ(grown.Materialize(), Rel2({{1, 1}, {5, 5}}));
  EXPECT_EQ(Collect(grown), (std::vector<Tuple>{T(1, 1), T(5, 5)}));
}

TEST(RelationViewTest, DeleteAllLeavesEmptyContent) {
  Relation r = Rel2({{1, 1}, {2, 2}});
  RelationView v(r);
  RelationView gone = v.ApplyDelta({}, {T(1, 1), T(2, 2)}, 100.0);
  EXPECT_EQ(gone.size(), 0u);
  EXPECT_TRUE(gone.empty());
  EXPECT_FALSE(gone.Contains(T(1, 1)));
  EXPECT_EQ(gone.begin(), gone.end());
  EXPECT_EQ(gone.Materialize(), Relation(2));
  EXPECT_TRUE(gone.ContentEquals(RelationView(size_t{2})));
}

TEST(RelationViewTest, AddThenDeleteCancelsOut) {
  Relation r = Rel2({{1, 1}});
  RelationView v(r);
  RelationView added = v.ApplyDelta({T(9, 9)}, {}, 100.0);
  ASSERT_TRUE(added.Contains(T(9, 9)));
  // Deleting the previously added tuple must cancel the pending insert,
  // not record a deletion against the base (dels ⊆ base must hold).
  RelationView back = added.ApplyDelta({}, {T(9, 9)}, 100.0);
  EXPECT_TRUE(back.is_flat());
  EXPECT_EQ(back.size(), 1u);
  EXPECT_TRUE(back.ContentEquals(v));
  EXPECT_EQ(back.dels().size(), 0u);
}

TEST(RelationViewTest, DeleteThenReAddCancelsOut) {
  Relation r = Rel2({{1, 1}, {2, 2}});
  RelationView v(r);
  RelationView removed = v.ApplyDelta({}, {T(2, 2)}, 100.0);
  ASSERT_FALSE(removed.Contains(T(2, 2)));
  RelationView back = removed.ApplyDelta({T(2, 2)}, {}, 100.0);
  EXPECT_TRUE(back.is_flat());
  EXPECT_TRUE(back.ContentEquals(v));
}

TEST(RelationViewTest, AddWinsOnOverlapWithinOneDelta) {
  // (base − D) ∪ I with the same tuple in both D and I: present afterwards,
  // matching update semantics.
  Relation r = Rel2({{1, 1}});
  RelationView v(r);
  RelationView out = v.ApplyDelta({T(1, 1)}, {T(1, 1)}, 100.0);
  EXPECT_TRUE(out.Contains(T(1, 1)));
  EXPECT_EQ(out.size(), 1u);
  RelationView out2 = v.ApplyDelta({T(7, 7)}, {T(7, 7)}, 100.0);
  EXPECT_TRUE(out2.Contains(T(7, 7)));
  EXPECT_EQ(out2.size(), 2u);
}

TEST(RelationViewTest, ConsolidationThresholdBoundary) {
  // 8-row base, fraction 0.25: a composed overlay of exactly 2 stays an
  // overlay (strictly-greater test); 3 consolidates.
  Relation base(1);
  for (int64_t i = 0; i < 8; ++i) base.Insert({Value::Int(i)});
  RelationView v(base);

  RelationView at = v.ApplyDelta({{Value::Int(100)}}, {{Value::Int(0)}}, 0.25);
  EXPECT_FALSE(at.is_flat());
  EXPECT_EQ(at.delta_size(), 2u);

  RelationView over = at.ApplyDelta({{Value::Int(101)}}, {}, 0.25);
  EXPECT_TRUE(over.is_flat());
  EXPECT_EQ(over.size(), 9u);
  EXPECT_TRUE(over.Contains({Value::Int(101)}));
  EXPECT_FALSE(over.Contains({Value::Int(0)}));

  // Forcing the fraction forces the representation, content unchanged.
  RelationView forced = at.ApplyDelta({{Value::Int(101)}}, {}, 100.0);
  EXPECT_FALSE(forced.is_flat());
  EXPECT_TRUE(forced.ContentEquals(over));
  EXPECT_EQ(forced.Materialize(), over.Materialize());
}

TEST(RelationViewTest, OverlayNormalizesAgainstBase) {
  Relation r = Rel2({{1, 1}, {2, 2}});
  auto base = std::make_shared<const Relation>(r);
  // An "add" already present and a "del" not present both normalize away.
  RelationView v = RelationView::Overlay(base, {T(1, 1)}, {T(9, 9)});
  EXPECT_TRUE(v.is_flat());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.ContentEquals(RelationView(r)));
}

TEST(RelationViewTest, SharedConsolidatesOnceAndIsStable) {
  Relation r = Rel2({{1, 1}, {2, 2}, {3, 3}});
  RelationView v = RelationView(r).ApplyDelta({T(4, 4)}, {T(1, 1)}, 100.0);
  RelationPtr first = v.Shared();
  RelationPtr second = v.Shared();
  EXPECT_EQ(first.get(), second.get());  // install-once cache
  EXPECT_EQ(*first, Rel2({{2, 2}, {3, 3}, {4, 4}}));
  // Copies of the view share the cache.
  RelationView copy = v;
  EXPECT_EQ(copy.Shared().get(), first.get());
}

TEST(RelationViewTest, FingerprintDistinguishesContentChanges) {
  Relation r = Rel2({{1, 1}, {2, 2}});
  RelationView v(r);
  RelationView changed = v.ApplyDelta({T(3, 3)}, {}, 100.0);
  EXPECT_NE(v.Hash(), changed.Hash());
  // Same base, same overlay => same fingerprint.
  RelationView again = v.ApplyDelta({T(3, 3)}, {}, 100.0);
  EXPECT_EQ(changed.Hash(), again.Hash());
}

TEST(RelationViewTest, HashIgnoresTheBaseDeltaSplit) {
  Relation r = Rel2({{1, 1}, {2, 2}, {3, 3}});
  Relation content = Rel2({{2, 2}, {3, 3}, {4, 4}});
  RelationView overlay = RelationView(r).ApplyDelta({T(4, 4)}, {T(1, 1)},
                                                    100.0);
  RelationView other_base = RelationView(Rel2({{2, 2}, {5, 5}}))
                                .ApplyDelta({T(3, 3), T(4, 4)}, {T(5, 5)},
                                            100.0);
  ASSERT_FALSE(overlay.is_flat());
  ASSERT_FALSE(other_base.is_flat());
  EXPECT_EQ(overlay.Hash(), content.Hash());
  EXPECT_EQ(other_base.Hash(), content.Hash());
  EXPECT_EQ(RelationView(content).Hash(), content.Hash());
}

TEST(RelationViewTest, MaterializeDefersTheMergeUntilRead) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation r = Rel2({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  RelationView v = RelationView(r).ApplyDelta({T(9, 9)}, {T(2, 2)}, 100.0);
  Relation out = v.Materialize();
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.Hash(), v.Hash());
  Relation copy = out;
  EXPECT_EQ(copy, out);
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 0u);

  EXPECT_EQ(Collect(v), out.tuples());
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 4u);
  EXPECT_EQ(copy, Rel2({{1, 1}, {3, 3}, {4, 4}, {9, 9}}));
  EXPECT_EQ(ctx.Snapshot().view_tuples_copied, 4u);
}

TEST(RelationViewTest, ViewSetAlgebraMatchesFlat) {
  Rng rng(77);
  Relation a = GenRelation(&rng, 40, 2, 20, 4);
  Relation b = GenRelation(&rng, 40, 2, 20, 4);
  RelationView va = RelationView(a).ApplyDelta({T(100, 100)}, {}, 100.0);
  RelationView vb = RelationView(b).ApplyDelta({T(100, 100)}, {}, 100.0);
  Relation fa = va.Materialize();
  Relation fb = vb.Materialize();
  EXPECT_EQ(ViewUnion(va, vb), fa.UnionWith(fb));
  EXPECT_EQ(ViewIntersect(va, vb), fa.IntersectWith(fb));
  EXPECT_EQ(ViewDifference(va, vb), fa.DifferenceWith(fb));
  EXPECT_EQ(ViewProduct(va, vb).size(), fa.size() * fb.size());
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
}

TEST(RelationViewTest, ViewStatsCountSharingAndConsolidation) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation r = Rel2({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  RelationView v(r);  // fresh wrap: not counted as sharing
  ExecStats s0 = ctx.Snapshot();
  EXPECT_EQ(s0.views_created, 0u);

  RelationView child = v.ApplyDelta({T(9, 9)}, {}, 100.0);
  ExecStats s1 = ctx.Snapshot();
  EXPECT_GE(s1.views_created, 1u);
  EXPECT_GE(s1.view_tuples_shared, r.size());
  EXPECT_EQ(s1.view_consolidations, 0u);

  (void)child.Shared();  // forces one consolidation
  ExecStats s2 = ctx.Snapshot();
  EXPECT_EQ(s2.view_consolidations, 1u);
  EXPECT_GE(s2.view_tuples_copied, child.size());
}

TEST(RelationViewTest, IteratorInterleavesAddsAndSkipsDels) {
  Relation r = Rel2({{1, 1}, {3, 3}, {5, 5}});
  RelationView v =
      RelationView(r).ApplyDelta({T(2, 2), T(6, 6)}, {T(3, 3)}, 100.0);
  EXPECT_EQ(Collect(v), (std::vector<Tuple>{T(1, 1), T(2, 2), T(5, 5),
                                            T(6, 6)}));
  EXPECT_EQ(v.Materialize().tuples(), Collect(v));
}

}  // namespace
}  // namespace hql
