#include "opt/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/direct.h"
#include "parser/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

Schema SmallSchema() { return MakeSchema({{"emp", 2}, {"dept", 2}}); }

Database SmallDb() {
  Database db(SmallSchema());
  HQL_CHECK(db.Set("emp", Ints({{1, 10}, {2, 10}, {3, 20}})).ok());
  HQL_CHECK(db.Set("dept", Ints({{10, 100}, {20, 200}})).ok());
  return db;
}

QueryPtr Q(const std::string& text) {
  auto q = ParseQuery(text);
  HQL_CHECK_MSG(q.ok(), q.status().ToString().c_str());
  return q.value();
}

HypoExprPtr H(const std::string& text) {
  auto h = ParseHypo(text);
  HQL_CHECK_MSG(h.ok(), h.status().ToString().c_str());
  return h.value();
}

// ---------------------------------------------------------------------------
// EngineOptions

TEST(EngineOptionsTest, ProfilesAreValidAndDistinct) {
  for (const std::string& name : EngineOptions::ProfileNames()) {
    ASSERT_OK_AND_ASSIGN(EngineOptions o, EngineOptions::Profile(name));
    EXPECT_OK(o.Validate()) << name;
  }
  ASSERT_OK_AND_ASSIGN(EngineOptions fast, EngineOptions::Profile("fast"));
  EXPECT_EQ(fast.index_mode, IndexMode::kAdvisor);
  EXPECT_EQ(fast.columnar_mode, ColumnarMode::kAuto);
  EXPECT_EQ(fast.incremental_mode, IncrementalMode::kAuto);
  EXPECT_TRUE(fast.budget.unlimited());

  ASSERT_OK_AND_ASSIGN(EngineOptions safe, EngineOptions::Profile("safe"));
  EXPECT_EQ(safe.index_mode, IndexMode::kOff);
  EXPECT_FALSE(safe.budget.unlimited());

  ASSERT_OK_AND_ASSIGN(EngineOptions allon, EngineOptions::Profile("all-on"));
  EXPECT_EQ(allon.columnar_mode, ColumnarMode::kAuto);
  EXPECT_FALSE(allon.budget.unlimited());

  EXPECT_FALSE(EngineOptions::Profile("turbo").ok());
}

TEST(EngineOptionsTest, SetParsesEveryKnob) {
  EngineOptions o;
  EXPECT_OK(o.Set("strategy", "filter3"));
  EXPECT_EQ(o.strategy, Strategy::kFilter3);
  EXPECT_OK(o.Set("memo", "off"));
  EXPECT_FALSE(o.memo);
  EXPECT_OK(o.Set("index", "advisor"));
  EXPECT_EQ(o.index_mode, IndexMode::kAdvisor);
  EXPECT_OK(o.Set("columnar", "auto"));
  EXPECT_EQ(o.columnar_mode, ColumnarMode::kAuto);
  EXPECT_OK(o.Set("incremental", "auto"));
  EXPECT_EQ(o.incremental_mode, IncrementalMode::kAuto);
  EXPECT_OK(o.Set("reuse_count", "4"));
  EXPECT_EQ(o.reuse_count, 4.0);
  EXPECT_OK(o.Set("delta_fraction", "0.5"));
  EXPECT_EQ(o.delta_fraction_threshold, 0.5);
  EXPECT_OK(o.Set("edit_fraction", "0.25"));
  EXPECT_OK(o.Set("index_min_rows", "8"));
  EXPECT_EQ(o.index_min_rows, 8u);
  EXPECT_OK(o.Set("columnar_min_rows", "128"));
  EXPECT_OK(o.Set("morsel_rows", "1024"));
  EXPECT_OK(o.Set("columnar_threads", "1"));
  EXPECT_OK(o.Set("deadline_ms", "500"));
  EXPECT_EQ(o.budget.deadline_ms, 500);
  EXPECT_OK(o.Set("max_tuples", "1000"));
  EXPECT_EQ(o.budget.max_tuples, 1000u);
  EXPECT_OK(o.Set("max_rewrite_nodes", "2000"));
  EXPECT_OK(o.Set("max_sessions", "7"));
  EXPECT_EQ(o.max_sessions, 7u);
  EXPECT_OK(o.Validate());
}

TEST(EngineOptionsTest, SetRejectsBadInput) {
  // NaN passes every range comparison, and a count past its target type's
  // range must be refused before it is cast.
  const std::pair<const char*, const char*> kBad[] = {
      {"strategy", "warp"},          {"memo", "sideways"},
      {"delta_fraction", "1.5"},     {"morsel_rows", "0"},
      {"max_tuples", "-3"},          {"max_tuples", "many"},
      {"no_such_knob", "1"},         {"reuse_count", "nan"},
      {"reuse_count", "inf"},        {"max_lazy_tree_size", "nan"},
      {"max_lazy_tree_size", "inf"}, {"delta_fraction", "nan"},
      {"edit_fraction", "nan"},      {"delta_fraction", "-inf"},
      {"max_tuples", "nan"},         {"max_tuples", "inf"},
      {"max_tuples", "1e20"},        {"max_tuples", "2.5"},
      {"index_min_rows", "1e20"},    {"deadline_ms", "1e19"},
      {"deadline_ms", "inf"},        {"deadline_ms", "9223372036854775808"},
      {"max_rewrite_nodes", "-1e30"},
  };
  EngineOptions o;
  const std::string before = o.Describe();
  for (const auto& [knob, value] : kBad) {
    EXPECT_FALSE(o.Set(knob, value).ok()) << knob << "=" << value;
    // Failed sets leave the options untouched and valid.
    EXPECT_EQ(o.Describe(), before) << knob << "=" << value;
  }
  EXPECT_OK(o.Validate());

  // The largest values in range still parse.
  EXPECT_OK(o.Set("deadline_ms", "9e18"));
  EXPECT_EQ(o.budget.deadline_ms, int64_t{9000000000000000000});
  EXPECT_OK(o.Set("max_tuples", "1.8e19"));
  EXPECT_OK(o.Validate());

  // Validate refuses the same values when they are assigned directly.
  o = EngineOptions();
  o.reuse_count = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
  o = EngineOptions();
  o.max_lazy_tree_size = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(o.Validate().ok());
  o = EngineOptions();
  o.incremental_edit_fraction = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
}

TEST(EngineOptionsTest, ProfileKnobKeepsMaxSessions) {
  EngineOptions o;
  EXPECT_OK(o.Set("max_sessions", "3"));
  EXPECT_OK(o.Set("profile", "all-on"));
  EXPECT_EQ(o.max_sessions, 3u);
  EXPECT_EQ(o.columnar_mode, ColumnarMode::kAuto);
}

TEST(EngineOptionsTest, DescribeRoundTripsThroughSet) {
  ASSERT_OK_AND_ASSIGN(EngineOptions o, EngineOptions::Profile("all-on"));
  std::string desc = o.Describe();
  EXPECT_NE(desc.find("strategy=hybrid"), std::string::npos);
  EXPECT_NE(desc.find("index=advisor"), std::string::npos);
  // Every key=value token in Describe() parses back through Set (except
  // engine-composition keys Set also accepts).
  size_t pos = 0;
  EngineOptions parsed;
  while (pos < desc.size()) {
    size_t end = desc.find(' ', pos);
    if (end == std::string::npos) end = desc.size();
    std::string token = desc.substr(pos, end - pos);
    pos = end + 1;
    size_t eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    EXPECT_OK(parsed.Set(token.substr(0, eq), token.substr(eq + 1))) << token;
  }
  EXPECT_EQ(parsed.strategy, o.strategy);
  EXPECT_EQ(parsed.budget.max_tuples, o.budget.max_tuples);
}

TEST(EngineOptionsTest, ToPlannerOptionsWiresCachesOnlyWhenEnabled) {
  MemoCache memo(16);
  IndexAdvisor advisor;
  IncrementalCache inc(16);
  EngineOptions o;
  o.memo = false;
  PlannerOptions p = o.ToPlannerOptions(&memo, &advisor, &inc);
  EXPECT_EQ(p.memo, nullptr);
  EXPECT_EQ(p.index_advisor, nullptr);
  EXPECT_EQ(p.incremental_cache, nullptr);

  o.memo = true;
  o.index_mode = IndexMode::kAdvisor;
  o.incremental_mode = IncrementalMode::kAuto;
  p = o.ToPlannerOptions(&memo, &advisor, &inc);
  EXPECT_EQ(p.memo, &memo);
  EXPECT_EQ(p.index_advisor, &advisor);
  EXPECT_EQ(p.incremental_cache, &inc);
}

// ---------------------------------------------------------------------------
// Engine administration

TEST(EngineTest, DeclareSetApplySnapshot) {
  Engine engine(SmallSchema());
  EXPECT_EQ(engine.base_version(), 0u);
  ASSERT_OK(engine.SetRelation("emp", Ints({{1, 10}, {2, 20}})));
  ASSERT_OK(engine.DeclareRelation("bonus", 1));
  EXPECT_TRUE(engine.schema().HasRelation("bonus"));
  // The widened schema kept the old contents.
  ASSERT_OK_AND_ASSIGN(Relation emp, engine.Snapshot().Get("emp"));
  EXPECT_EQ(emp.size(), 2u);

  ASSERT_OK_AND_ASSIGN(UpdatePtr upd, ParseUpdate("ins(bonus, {(7)})"));
  ASSERT_OK(engine.Apply(upd));
  ASSERT_OK_AND_ASSIGN(Relation bonus, engine.Snapshot().Get("bonus"));
  EXPECT_EQ(bonus.size(), 1u);
  EXPECT_EQ(engine.base_version(), 3u);

  EXPECT_FALSE(engine.DeclareRelation("emp", 3).ok());
  EXPECT_FALSE(engine.SetRelation("ghost", Ints({{1}})).ok());
}

TEST(EngineTest, SessionAdmissionCap) {
  EngineOptions opts;
  opts.max_sessions = 2;
  Engine engine(SmallDb(), opts);
  ASSERT_OK_AND_ASSIGN(SessionPtr a, engine.CreateSession("a"));
  ASSERT_OK_AND_ASSIGN(SessionPtr b, engine.CreateSession("b"));
  EXPECT_EQ(engine.live_sessions(), 2u);
  auto c = engine.CreateSession("c");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Closing a session frees the slot.
  b.reset();
  EXPECT_EQ(engine.live_sessions(), 1u);
  EXPECT_OK(engine.CreateSession("c").status());
}

// ---------------------------------------------------------------------------
// Session scenario trees

TEST(SessionFacadeTest, DeriveQueryMatchesDirectSemantics) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("hire", "fire", H("{del(emp, {(1, 10)})}")));

  QueryPtr q = Q("emp");
  ASSERT_OK_AND_ASSIGN(Relation at_root, s->Query("root", q));
  EXPECT_EQ(at_root.size(), 3u);
  ASSERT_OK_AND_ASSIGN(Relation at_hire, s->Query("hire", q));
  EXPECT_EQ(at_hire.size(), 4u);
  ASSERT_OK_AND_ASSIGN(Relation at_fire, s->Query("fire", q));
  EXPECT_EQ(at_fire.size(), 3u);

  // Reference: direct evaluation of the composed when-query.
  ASSERT_OK_AND_ASSIGN(
      Relation reference,
      EvalDirect(Q("emp when ({ins(emp, {(4, 20)})} # {del(emp, {(1, 10)})})"),
                 SmallDb()));
  EXPECT_EQ(at_fire, reference);
}

TEST(SessionFacadeTest, TreeOpsValidate) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  HypoExprPtr edge = H("{ins(emp, {(9, 10)})}");
  ASSERT_OK(s->Derive("root", "a", edge));
  EXPECT_EQ(s->Derive("root", "a", edge).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s->Derive("ghost", "b", edge).code(), StatusCode::kNotFound);
  EXPECT_FALSE(s->Derive("root", "", edge).ok());
  EXPECT_FALSE(s->Derive("root", "b", H("{ins(ghost, {(1)})}")).ok());
  EXPECT_FALSE(s->Edit("root", edge).ok());
  EXPECT_FALSE(s->Drop("root").ok());
  EXPECT_EQ(s->Drop("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(s->Query("ghost", Q("emp")).status().code(), StatusCode::kNotFound);
}

TEST(SessionFacadeTest, EditInvalidatesDescendants) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("a", "b", H("{ins(emp, {(5, 20)})}")));
  ASSERT_OK_AND_ASSIGN(Database at_b, s->StateAt("b"));
  ASSERT_OK_AND_ASSIGN(Relation emp_b, at_b.Get("emp"));
  EXPECT_EQ(emp_b.size(), 5u);

  // Rewriting a's edge changes what b sees.
  ASSERT_OK(s->Edit("a", H("{del(emp, emp)}")));
  ASSERT_OK_AND_ASSIGN(Relation emp_b2, s->Query("b", Q("emp")));
  EXPECT_EQ(emp_b2.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Database at_b2, s->StateAt("b"));
  ASSERT_OK_AND_ASSIGN(Relation state_b2, at_b2.Get("emp"));
  EXPECT_EQ(emp_b2, state_b2);
}

TEST(SessionFacadeTest, DropRemovesSubtree) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("a", "b", H("{ins(emp, {(5, 20)})}")));
  ASSERT_OK(s->Derive("root", "c", H("{del(emp, {(1, 10)})}")));
  EXPECT_EQ(s->NumNodes(), 4u);
  ASSERT_OK(s->Drop("a"));
  EXPECT_EQ(s->NumNodes(), 2u);
  EXPECT_EQ(s->Query("b", Q("emp")).status().code(), StatusCode::kNotFound);
  // The freed names are reusable.
  ASSERT_OK(s->Derive("c", "a", H("{ins(emp, {(6, 20)})}")));
  std::vector<ScenarioInfo> nodes = s->Nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].name, "root");
  EXPECT_EQ(nodes[1].name, "a");
  EXPECT_EQ(nodes[1].parent, "c");
}

TEST(SessionFacadeTest, CompareIsTheExampleDifference) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK_AND_ASSIGN(Relation diff, s->Compare("hire", "root", Q("emp")));
  EXPECT_EQ(diff, Ints({{4, 20}}));
  ASSERT_OK_AND_ASSIGN(Relation none, s->Compare("root", "hire", Q("emp")));
  EXPECT_TRUE(none.empty());
}

// A memo-served answer leaves the session as a handle on the cached
// result's tuples, not as a copy of them.
TEST(SessionFacadeTest, MemoWarmQueriesShareTheCachedTuples) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  QueryPtr q = Q("sigma[$1 = 20](emp) join[$1 = $2] dept");
  ASSERT_OK_AND_ASSIGN(Relation cold, s->Query("hire", q));
  const uint64_t hits_before = s->Stats().memo_hits;
  ASSERT_OK_AND_ASSIGN(Relation first, s->Query("hire", q));
  ASSERT_OK_AND_ASSIGN(Relation second, s->Query("hire", q));
  EXPECT_GT(s->Stats().memo_hits, hits_before);
  EXPECT_EQ(first, Ints({{3, 20, 20, 200}, {4, 20, 20, 200}}));
  EXPECT_EQ(&first.tuples(), &second.tuples());
  EXPECT_EQ(first, cold);
}

TEST(SessionFacadeTest, SnapshotIsolationFromEngineAndSiblings) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr a, engine.CreateSession("a"));
  ASSERT_OK_AND_ASSIGN(SessionPtr b, engine.CreateSession("b"));
  ASSERT_OK(a->Derive("root", "x", H("{del(emp, emp)}")));

  // A sibling's scenarios and a base commit are both invisible.
  ASSERT_OK_AND_ASSIGN(UpdatePtr upd, ParseUpdate("ins(emp, {(9, 90)})"));
  ASSERT_OK(engine.Apply(upd));
  ASSERT_OK_AND_ASSIGN(Relation b_emp, b->Query("root", Q("emp")));
  EXPECT_EQ(b_emp.size(), 3u);
  EXPECT_EQ(b->NumNodes(), 1u);

  // Refresh adopts the new base.
  ASSERT_OK(b->Refresh());
  ASSERT_OK_AND_ASSIGN(Relation b_emp2, b->Query("root", Q("emp")));
  EXPECT_EQ(b_emp2.size(), 4u);
  EXPECT_EQ(b->snapshot_version(), engine.base_version());

  // Session a still reads its original snapshot.
  ASSERT_OK_AND_ASSIGN(Relation a_emp, a->Query("root", Q("emp")));
  EXPECT_EQ(a_emp.size(), 3u);
}

TEST(SessionFacadeTest, RefreshWithSchemaChangeNeedsBareTree) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(engine.DeclareRelation("bonus", 1));
  EXPECT_FALSE(s->Refresh().ok());
  ASSERT_OK(s->Drop("a"));
  ASSERT_OK(s->Refresh());
  EXPECT_TRUE(s->BaseSnapshot().schema().HasRelation("bonus"));
}

TEST(SessionFacadeTest, AllStrategiesAgreeOnTheTree) {
  Rng rng(20260808);
  Schema schema = PropertySchema();
  Database db = RandomDatabase(&rng, schema, 8, 8);
  Engine engine(db);
  AstGenOptions gen;
  gen.max_depth = 3;

  ASSERT_OK_AND_ASSIGN(SessionPtr reference, engine.CreateSession());
  for (int trial = 0; trial < 10; ++trial) {
    ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
    std::vector<std::string> names = {"root"};
    for (int n = 0; n < 4; ++n) {
      std::string child = "n" + std::to_string(n);
      const std::string& parent =
          names[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
      ASSERT_OK(s->Derive(parent, child, RandomHypo(&rng, schema, gen)));
      names.push_back(child);
    }
    QueryPtr q = RandomQuery(&rng, schema, 2, gen);
    const std::string& at =
        names[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
    ASSERT_OK(s->SetProfile("default"));
    ASSERT_OK(s->Set("strategy", "direct"));
    auto expect = s->Query(at, q);
    for (const char* strategy :
         {"lazy", "filter1", "filter2", "filter3", "hybrid"}) {
      ASSERT_OK(s->Set("strategy", strategy));
      auto got = s->Query(at, q);
      ASSERT_EQ(got.ok(), expect.ok()) << strategy;
      if (got.ok()) {
        ASSERT_EQ(got.value(), expect.value()) << strategy;
      }
    }
  }
}

TEST(SessionFacadeTest, GovernorBudgetRejectsBlowups) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Set("max_tuples", "4"));
  // The selection emits 9 tuples > 4 (bare products are view-backed and
  // uncharged; selections charge every produced tuple).
  auto r = s->Query("root", Q("sigma[$0 >= 0](emp x emp)"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Recovery: lifting the budget makes the same query run.
  ASSERT_OK(s->Set("max_tuples", "0"));
  ASSERT_OK_AND_ASSIGN(Relation big,
                       s->Query("root", Q("sigma[$0 >= 0](emp x emp)")));
  EXPECT_EQ(big.size(), 9u);
  EXPECT_GE(s->Stats().governor_tuple_trips, 1u);
}

TEST(SessionFacadeTest, CancelTripsInFlightAndFutureQueries) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  s->Cancel();
  EXPECT_TRUE(s->cancelled());
  auto r = s->Query("root", Q("emp"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(SessionFacadeTest, AnalyzeReportsTheSessionConfig) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK_AND_ASSIGN(AnalyzeReport report, s->Analyze("hire", Q("emp")));
  EXPECT_EQ(report.actual_rows, 4u);
  EXPECT_FALSE(report.exec.route.empty());
  // The analyzed execution's charges roll up into the session stats.
  EXPECT_FALSE(s->Stats().route.empty());
}

TEST(SessionFacadeTest, ConcurrentSessionsShareNothingObservable) {
  Engine engine(SmallDb());
  constexpr int kThreads = 8;
  std::vector<SessionPtr> sessions;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_OK_AND_ASSIGN(SessionPtr s,
                         engine.CreateSession("t" + std::to_string(i)));
    sessions.push_back(std::move(s));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session& s = *sessions[static_cast<size_t>(i)];
      std::string mine = "mine" + std::to_string(i);
      HypoExprPtr edge =
          H("{ins(emp, {(" + std::to_string(100 + i) + ", 10)})}");
      if (!s.Derive("root", mine, edge).ok()) ++failures;
      for (int round = 0; round < 20; ++round) {
        auto r = s.Query(mine, Q("emp"));
        if (!r.ok() || r.value().size() != 4u) ++failures;
        auto base = s.Query("root", Q("emp"));
        if (!base.ok() || base.value().size() != 3u) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Scenario-tree slots and the engine-wide plan cache

// Derive/drop churn around a fixed tree: every cycle drops a subtree that
// sits *before* live nodes, so their slots and parent indices shift.
TEST(SessionTreeTest, DeriveDropCyclesLeaveNoSlotsBehind) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr churned, engine.CreateSession());
  ASSERT_OK_AND_ASSIGN(SessionPtr fresh, engine.CreateSession());
  for (Session* s : {churned.get(), fresh.get()}) {
    ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
    ASSERT_OK(s->Derive("a", "b", H("{del(emp, {(1, 10)})}")));
  }
  HypoExprPtr edge = H("{ins(emp, {(9, 10)})}");
  for (int cycle = 0; cycle < 20000; ++cycle) {
    ASSERT_OK(churned->Derive("root", "x", edge));
    ASSERT_OK(churned->Derive("x", "x1", edge));
    ASSERT_OK(churned->Derive("a", "y", edge));
    ASSERT_OK(churned->Derive("y", "z", edge));
    ASSERT_OK(churned->Drop("x"));
    ASSERT_OK(churned->Drop("y"));
  }
  ASSERT_OK(churned->Derive("b", "c", H("{ins(dept, {(30, 300)})}")));
  ASSERT_OK(fresh->Derive("b", "c", H("{ins(dept, {(30, 300)})}")));

  EXPECT_EQ(churned->NumNodes(), 4u);
  std::vector<ScenarioInfo> got = churned->Nodes();
  std::vector<ScenarioInfo> want = fresh->Nodes();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].parent, want[i].parent);
    EXPECT_EQ(got[i].materialized, want[i].materialized);
  }
  QueryPtr q = Q("emp join[$1 = $2] dept");
  for (const char* node : {"root", "a", "b", "c"}) {
    ASSERT_OK_AND_ASSIGN(Relation a, churned->Query(node, q));
    ASSERT_OK_AND_ASSIGN(Relation b, fresh->Query(node, q));
    EXPECT_EQ(a, b) << node;
  }
  EXPECT_EQ(churned->Query("z", q).status().code(), StatusCode::kNotFound);
}

// One thread derives and drops `x` (shifting slots with a sibling) while
// another queries it: each answer is x's or NotFound, never the root's or a
// sibling's.
TEST(SessionDropRaceTest, QueriesSeeTheNodeOrNotFound) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  HypoExprPtr pad = H("{ins(emp, {(7, 10)})}");
  HypoExprPtr edge = H("{ins(emp, {(100, 10)})}");
  QueryPtr q = Q("emp");
  ASSERT_OK(s->Derive("root", "x", edge));
  ASSERT_OK_AND_ASSIGN(Relation expected, s->Query("x", q));
  ASSERT_OK(s->Drop("x"));

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    while (!done.load()) {
      if (!s->Derive("root", "pad", pad).ok()) ++failures;
      if (!s->Derive("root", "x", edge).ok()) ++failures;
      if (!s->Drop("pad").ok()) ++failures;
      if (!s->Drop("x").ok()) ++failures;
    }
  });
  // Run until both outcomes have been seen often (bounded, so a starved
  // writer cannot hang the test).
  int found = 0;
  int missing = 0;
  for (int i = 0; i < 200000 && (i < 2000 || found < 100 || missing < 100);
       ++i) {
    Result<Relation> r = s->Query("x", q);
    if (r.ok()) {
      ++found;
      if (r.value() != expected) ++failures;
    } else if (r.status().code() == StatusCode::kNotFound) {
      ++missing;
    } else {
      ++failures;
    }
  }
  done.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Session reads on the hybrid-delta route. Every read is `Q when (e1 # ... #
// ek)`; with the state a few single-tuple inserts over 10k-row relations,
// the hybrid runs Q over the state's overlay and patches Q's last run.

constexpr int kPathDepth = 8;

Database TenKDb() {
  Database db(MakeSchema({{"R", 2}, {"S", 2}}));
  Rng rng(24);
  HQL_CHECK(db.Set("R", GenRelation(&rng, 10000, 2, 40000, 1000)).ok());
  HQL_CHECK(db.Set("S", GenRelation(&rng, 10000, 2, 40000, 1000)).ok());
  return db;
}

EngineOptions FastOptions() {
  Result<EngineOptions> fast = EngineOptions::Profile("fast");
  HQL_CHECK(fast.ok());
  return fast.value();
}

std::string PathNode(int k) {
  return k == 0 ? "root" : "n" + std::to_string(k);
}

HypoExprPtr InsertEdge(Rng* rng) {
  return H("{ins(R, {(" + std::to_string(rng->Uniform(0, 39999)) + ", " +
           std::to_string(rng->Uniform(0, 999)) + ")})}");
}

// Derives root -> n1 -> ... -> n<depth> with one insert per edge.
void DerivePath(Session* s, uint64_t seed, int depth) {
  Rng rng(seed);
  for (int k = 1; k <= depth; ++k) {
    HQL_CHECK(s->Derive(PathNode(k - 1), PathNode(k), InsertEdge(&rng)).ok());
  }
}

const std::vector<QueryPtr>& ReaskQueries() {
  static const std::vector<QueryPtr> queries = {
      Q("pi[1](sigma[$0 >= 20000 and $0 < 22000](R))"),
      Q("R join[$0 = $2] S"),
      Q("(pi[0,1](sigma[$0 >= 10000 and $0 < 12000](R)) union S) - "
        "sigma[$0 < 4000](S)"),
  };
  return queries;
}

TEST(SessionDeltaRouteTest, JoinOverComposedInsertsTakesDelta) {
  Engine engine(TenKDb(), FastOptions());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  DerivePath(s.get(), 1, 2);  // n2's path is {ins(R, {t1})} # {ins(R, {t2})}
  ASSERT_OK_AND_ASSIGN(Relation got, s->Query("n2", ReaskQueries()[1]));
  EXPECT_EQ(s->Stats().route, "hybrid-delta");

  ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession());
  ASSERT_OK(ref->Set("strategy", "direct"));
  DerivePath(ref.get(), 1, 2);
  ASSERT_OK_AND_ASSIGN(Relation want, ref->Query("n2", ReaskQueries()[1]));
  EXPECT_EQ(got, want);
}

TEST(SessionDeltaRouteTest, ReasksPatchTheLastRunAndMatchDirect) {
  Engine engine(TenKDb(), FastOptions());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession());
  ASSERT_OK(ref->Set("strategy", "direct"));
  DerivePath(s.get(), 8, kPathDepth);
  DerivePath(ref.get(), 8, kPathDepth);
  const std::string leaf = PathNode(kPathDepth);
  Rng rng(50);
  for (int round = 0; round < 50; ++round) {
    std::string node =
        PathNode(static_cast<int>(rng.Uniform(1, kPathDepth)));
    HypoExprPtr edge = InsertEdge(&rng);
    ASSERT_OK(s->Edit(node, edge));
    ASSERT_OK(ref->Edit(node, edge));
    for (size_t q = 0; q < ReaskQueries().size(); ++q) {
      const QueryPtr& query = ReaskQueries()[q];
      uint64_t patched = s->Stats().incremental_results_patched;
      ASSERT_OK_AND_ASSIGN(Relation got, s->Query(leaf, query));
      ASSERT_OK_AND_ASSIGN(Relation want, ref->Query(leaf, query));
      EXPECT_EQ(got, want) << "round " << round << ": " << query->ToString();
      EXPECT_EQ(s->Stats().route, "hybrid-delta");
      // Round 0 is each query's first ask; every re-ask patches.
      if (round > 0) {
        EXPECT_EQ(s->Stats().incremental_results_patched, patched + 1)
            << "round " << round << ": " << query->ToString();
      }
    }
  }
}

// A re-ask answers with Q's patched last run, unmerged: its size and hash
// come from the patch alone, and no tuple is copied to produce the answer.
TEST(SessionDeltaRouteTest, ReasksAnswerWithoutMergingTheResult) {
  Engine engine(TenKDb(), FastOptions());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession());
  ASSERT_OK(ref->Set("strategy", "direct"));
  DerivePath(s.get(), 8, kPathDepth);
  DerivePath(ref.get(), 8, kPathDepth);
  const std::string leaf = PathNode(kPathDepth);
  const QueryPtr& query = ReaskQueries()[2];  // union/difference
  ASSERT_OK(s->Query(leaf, query).status());  // the first ask runs Q in full
  Rng rng(51);
  for (int round = 0; round < 10; ++round) {
    std::string node =
        PathNode(static_cast<int>(rng.Uniform(1, kPathDepth)));
    HypoExprPtr edge = InsertEdge(&rng);
    ASSERT_OK(s->Edit(node, edge));
    ASSERT_OK(ref->Edit(node, edge));
    const ExecStats before = s->Stats();
    ASSERT_OK_AND_ASSIGN(Relation got, s->Query(leaf, query));
    const ExecStats after = s->Stats();
    EXPECT_EQ(after.route, "hybrid-delta") << "round " << round;
    EXPECT_EQ(after.incremental_results_patched,
              before.incremental_results_patched + 1)
        << "round " << round;
    EXPECT_EQ(after.view_tuples_copied, before.view_tuples_copied)
        << "round " << round;

    ASSERT_OK_AND_ASSIGN(Relation want, ref->Query(leaf, query));
    EXPECT_EQ(got.size(), want.size()) << "round " << round;
    EXPECT_EQ(got.Hash(), want.Hash()) << "round " << round;
    EXPECT_EQ(got, want) << "round " << round;
  }
}

// Without an incremental cache (the `default` and `safe` profiles) nothing
// patches Q's last run, so the overlay is not used: the join read stays on
// HQL-3's delta route, and the select/project and union/difference reads,
// whose base part the memo serves after substitution, go lazy.
TEST(SessionDeltaRouteTest, UnpatchableReadsRouteByBodyAndMatchDirect) {
  const std::vector<std::string> want_routes = {"hybrid-lazy", "hybrid-delta",
                                                "hybrid-lazy"};
  for (const char* profile : {"default", "safe"}) {
    ASSERT_OK_AND_ASSIGN(EngineOptions options,
                         EngineOptions::Profile(profile));
    Engine engine(TenKDb(), options);
    ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
    ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession());
    ASSERT_OK(ref->Set("strategy", "direct"));
    for (int depth : {1, kPathDepth}) {
      const std::string leaf = "d" + std::to_string(depth) + "_" +
                               PathNode(depth);
      Rng rng(static_cast<uint64_t>(depth));
      std::string parent = "root";
      for (int k = 1; k <= depth; ++k) {
        std::string node = "d" + std::to_string(depth) + "_" + PathNode(k);
        HypoExprPtr edge = InsertEdge(&rng);
        ASSERT_OK(s->Derive(parent, node, edge));
        ASSERT_OK(ref->Derive(parent, node, edge));
        parent = node;
      }
      for (int round = 0; round < 3; ++round) {
        HypoExprPtr edge = InsertEdge(&rng);
        ASSERT_OK(s->Edit(leaf, edge));
        ASSERT_OK(ref->Edit(leaf, edge));
        for (size_t q = 0; q < ReaskQueries().size(); ++q) {
          const QueryPtr& query = ReaskQueries()[q];
          ASSERT_OK_AND_ASSIGN(Relation got, s->Query(leaf, query));
          ASSERT_OK_AND_ASSIGN(Relation want, ref->Query(leaf, query));
          EXPECT_EQ(got, want) << profile << " depth " << depth << ": "
                               << query->ToString();
          EXPECT_EQ(s->Stats().route, want_routes[q])
              << profile << " depth " << depth << ": " << query->ToString();
        }
      }
    }
    EXPECT_EQ(s->Stats().incremental_results_patched, 0u) << profile;
  }
}

TEST(SessionDeltaRouteTest, CompareStaysOnHqlThreeAndMatchesDirect) {
  Engine engine(TenKDb(), FastOptions());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession());
  ASSERT_OK(ref->Set("strategy", "direct"));
  DerivePath(s.get(), 3, kPathDepth);
  DerivePath(ref.get(), 3, kPathDepth);
  for (const QueryPtr& query : ReaskQueries()) {
    uint64_t patched = s->Stats().incremental_results_patched;
    ASSERT_OK_AND_ASSIGN(Relation got, s->Compare("n8", "n4", query));
    ASSERT_OK_AND_ASSIGN(Relation want, ref->Compare("n8", "n4", query));
    EXPECT_EQ(got, want) << query->ToString();
    EXPECT_EQ(s->Stats().route, "hybrid-delta");
    EXPECT_EQ(s->Stats().incremental_results_patched, patched);
  }
}

// The plan-cache traffic one query adds to the session's stats.
struct PlanTraffic {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

PlanTraffic QueryTraffic(Session* s, const std::string& node,
                         const QueryPtr& q) {
  ExecStats before = s->Stats();
  Result<Relation> r = s->Query(node, q);
  HQL_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  ExecStats after = s->Stats();
  return PlanTraffic{after.plan_cache_hits - before.plan_cache_hits,
                     after.plan_cache_misses - before.plan_cache_misses};
}

TEST(PlanCacheSessionTest, EditRefreshAndKeyedKnobsMiss) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  QueryPtr q = Q("sigma[$1 = 20](emp) join[$1 = $2] dept");
  // Admitted on the second miss, served from the third query on.
  EXPECT_EQ(QueryTraffic(s.get(), "hire", q).misses, 1u);
  EXPECT_EQ(QueryTraffic(s.get(), "hire", q).misses, 1u);
  EXPECT_EQ(QueryTraffic(s.get(), "hire", q).hits, 1u);

  ASSERT_OK(s->Edit("hire", H("{ins(emp, {(5, 20)})}")));
  PlanTraffic edited = QueryTraffic(s.get(), "hire", q);
  EXPECT_EQ(edited.hits, 0u);
  EXPECT_EQ(edited.misses, 1u);

  ASSERT_OK(engine.Apply(ParseUpdate("ins(dept, {(30, 300)})").value()));
  ASSERT_OK(s->Refresh());
  EXPECT_EQ(QueryTraffic(s.get(), "hire", q).hits, 0u);

  for (auto [knob, value] : {std::pair{"reuse_count", "4"},
                             std::pair{"max_lazy_tree_size", "5000"},
                             std::pair{"delta_fraction", "0.5"}}) {
    ASSERT_OK(s->Set(knob, value));
    PlanTraffic t = QueryTraffic(s.get(), "hire", q);
    EXPECT_EQ(t.hits, 0u) << knob;
    EXPECT_EQ(t.misses, 1u) << knob;
  }
  QueryTraffic(s.get(), "hire", q);
  EXPECT_EQ(QueryTraffic(s.get(), "hire", q).hits, 1u);
}

TEST(PlanCacheSessionTest, MemoOffNeverHits) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Set("memo", "off"));
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  QueryPtr q = Q("emp join[$1 = $2] dept");
  for (int i = 0; i < 3; ++i) {
    PlanTraffic t = QueryTraffic(s.get(), "hire", q);
    EXPECT_EQ(t.hits, 0u);
    EXPECT_EQ(t.misses, 0u);
  }
  EXPECT_EQ(engine.memo().plan_stats().entries, 0u);
}

TEST(PlanCacheSessionTest, EightSessionsQueryOneFamilyConcurrently) {
  Engine engine(SmallDb());
  const std::vector<std::pair<std::string, std::string>> tree = {
      {"root", "hire"}, {"hire", "fire"}, {"root", "move"}};
  const std::vector<HypoExprPtr> edges = {H("{ins(emp, {(4, 20)})}"),
                                          H("{del(emp, {(1, 10)})}"),
                                          H("{ins(dept, {(10, 150)})}")};
  const std::vector<QueryPtr> family = {
      Q("emp"), Q("sigma[$1 = 20](emp) join[$1 = $2] dept"),
      Q("pi[1](emp)"), Q("gamma[1; count(0)](emp)")};
  const std::vector<std::string> nodes = {"root", "hire", "fire", "move"};

  // Reference answers from a direct-semantics session.
  ASSERT_OK_AND_ASSIGN(SessionPtr ref, engine.CreateSession("ref"));
  ASSERT_OK(ref->Set("strategy", "direct"));
  for (size_t e = 0; e < tree.size(); ++e) {
    ASSERT_OK(ref->Derive(tree[e].first, tree[e].second, edges[e]));
  }
  std::vector<Relation> expected;
  for (const std::string& node : nodes) {
    for (const QueryPtr& q : family) {
      ASSERT_OK_AND_ASSIGN(Relation r, ref->Query(node, q));
      expected.push_back(std::move(r));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  const size_t keys = nodes.size() * family.size();
  // Warm-up: every key misses twice from one session, so every plan is
  // admitted (a key is admitted on its own second miss) before the threads
  // start, and every concurrent lookup must hit.
  ASSERT_OK_AND_ASSIGN(SessionPtr warm, engine.CreateSession("warm"));
  for (size_t e = 0; e < tree.size(); ++e) {
    ASSERT_OK(warm->Derive(tree[e].first, tree[e].second, edges[e]));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& node : nodes) {
      for (const QueryPtr& q : family) {
        EXPECT_EQ(QueryTraffic(warm.get(), node, q).misses, 1u);
      }
    }
  }
  LruStats warmed = engine.memo().plan_stats();
  EXPECT_EQ(warmed.entries, keys);

  std::vector<SessionPtr> sessions;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_OK_AND_ASSIGN(SessionPtr s,
                         engine.CreateSession("t" + std::to_string(i)));
    for (size_t e = 0; e < tree.size(); ++e) {
      ASSERT_OK(s->Derive(tree[e].first, tree[e].second, edges[e]));
    }
    sessions.push_back(std::move(s));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session& s = *sessions[static_cast<size_t>(i)];
      for (int round = 0; round < kRounds; ++round) {
        for (size_t n = 0; n < nodes.size(); ++n) {
          for (size_t f = 0; f < family.size(); ++f) {
            Result<Relation> r = s.Query(nodes[n], family[f]);
            if (!r.ok() || r.value() != expected[n * family.size() + f]) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  LruStats plans = engine.memo().plan_stats();
  EXPECT_EQ(plans.entries, keys);
  EXPECT_EQ(plans.misses, warmed.misses);
  EXPECT_EQ(plans.hits - warmed.hits,
            static_cast<uint64_t>(kThreads) * kRounds * keys);
}

}  // namespace
}  // namespace hql
