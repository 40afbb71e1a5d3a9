// Property suite for the copy-on-write storage layer: evaluating any query
// under any strategy must give bit-identical results whether the database's
// relations are overlays or consolidated flat relations. The
// overlays come from the same places they do in production — EvalState
// deriving hypothetical states, and ApplyDelta stacking version-tree edges.

#include <gtest/gtest.h>

#include <vector>

#include "ast/builders.h"
#include "ast/hypo.h"
#include "ast/query.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/version_tree.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT

constexpr Strategy kAllStrategies[] = {
    Strategy::kDirect,  Strategy::kLazy,    Strategy::kFilter1,
    Strategy::kFilter2, Strategy::kFilter3, Strategy::kHybrid,
};

// Every strategy, on both representations, must agree with the reference.
void ExpectAllAgree(const QueryPtr& q, const Database& overlay,
                    const Database& consolidated, const Schema& schema,
                    int trial) {
  ASSERT_OK_AND_ASSIGN(
      Relation reference,
      Execute(q, consolidated, schema, Strategy::kDirect));
  for (Strategy s : kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(Relation on_overlay, Execute(q, overlay, schema, s));
    ASSERT_OK_AND_ASSIGN(Relation on_flat,
                         Execute(q, consolidated, schema, s));
    EXPECT_EQ(on_overlay, reference)
        << "strategy " << static_cast<int>(s) << " on overlay, trial "
        << trial << ", query " << q->ToString();
    EXPECT_EQ(on_flat, reference)
        << "strategy " << static_cast<int>(s) << " on consolidated, trial "
        << trial << ", query " << q->ToString();
  }
}

TEST(CowOverlayTest, RandomVersionTreesAgreeAcrossRepresentations) {
  Rng rng(20260806);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;

  for (int trial = 0; trial < 12; ++trial) {
    Database base = RandomDatabase(&rng, schema, 24, 8);

    // A small random version tree: every node's state is the composition
    // of the random edges on its root path.
    VersionTree tree;
    std::vector<VersionTree::NodeId> nodes = {VersionTree::kRoot};
    for (int i = 0; i < 4; ++i) {
      VersionTree::NodeId parent = nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(nodes.size()) - 1))];
      nodes.push_back(tree.AddChild(parent, "n" + std::to_string(i),
                                    RandomHypo(&rng, schema, options)));
    }

    for (size_t n = 1; n < nodes.size(); ++n) {
      HypoExprPtr state = tree.PathState(nodes[n]);
      // The derived state as produced by the evaluator: overlay-backed.
      ASSERT_OK_AND_ASSIGN(Database overlay, EvalState(state, base));
      Database consolidated = overlay.Consolidated();
      ASSERT_TRUE(overlay == consolidated)
          << "trial " << trial << " node " << n;

      QueryPtr q = RandomQuery(&rng, schema, 2, options);
      ExpectAllAgree(q, overlay, consolidated, schema, trial);
    }
  }
}

TEST(CowOverlayTest, StackedApplyDeltaAgreesWithConsolidated) {
  Rng rng(4242);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;

  for (int trial = 0; trial < 12; ++trial) {
    Database base = RandomDatabase(&rng, schema, 30, 8);

    // Compose several random deltas per relation without ever
    // consolidating (Relation::Overlay), then compare against the flat
    // database obtained by consolidating everything.
    Database overlay = base;
    for (int round = 0; round < 3; ++round) {
      for (const auto& [name, arity] : schema.arities()) {
        ASSERT_OK_AND_ASSIGN(Relation v, overlay.Get(name));
        Relation dels = SampleFraction(&rng, v, 0.3);
        Relation adds = GenRelation(&rng, 4, arity, 8, 8);
        ASSERT_OK(overlay.Set(
            name, Relation::Overlay(v, adds.tuples(), dels.tuples())));
      }
    }
    Database consolidated = overlay.Consolidated();
    ASSERT_TRUE(overlay == consolidated) << "trial " << trial;

    // Hypothetical queries on top of the already-overlaid database: the
    // evaluators compose further deltas onto the stored overlays.
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ExpectAllAgree(q, overlay, consolidated, schema, trial);
    QueryPtr hypo =
        Query::When(RandomQuery(&rng, schema, 2, options),
                    RandomHypo(&rng, schema, options));
    ExpectAllAgree(hypo, overlay, consolidated, schema, trial);
  }
}

TEST(CowOverlayTest, VersionTreeCompareQueriesAgree) {
  Rng rng(99);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 2;
  options.allow_cond = true;
  options.allow_aggregate = true;

  for (int trial = 0; trial < 8; ++trial) {
    Database base = RandomDatabase(&rng, schema, 20, 8);
    VersionTree tree;
    VersionTree::NodeId a = tree.AddChild(VersionTree::kRoot, "a",
                                          RandomHypo(&rng, schema, options));
    VersionTree::NodeId b =
        tree.AddChild(a, "b", RandomHypo(&rng, schema, options));
    VersionTree::NodeId c = tree.AddChild(VersionTree::kRoot, "c",
                                          RandomHypo(&rng, schema, options));

    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    for (auto [x, y] : {std::pair{a, b}, {a, c}, {b, c}}) {
      QueryPtr cmp = tree.CompareAt(x, y, q);
      ExpectAllAgree(cmp, base, base.Consolidated(), schema, trial);
    }
  }
}

}  // namespace
}  // namespace hql
