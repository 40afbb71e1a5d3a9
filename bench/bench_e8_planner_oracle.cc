// E8 — planner quality: how close does the hybrid planner come to an
// oracle that always picks the best single strategy? (The paper leaves
// cost-based plan selection as future work; this measures our instance of
// it.) Each row times every strategy on one workload configuration and
// reports the hybrid-to-best ratio as the `regret` counter.
//
// Rows:
//   PlannerVsOracle/<delta per mille>/<depth>/<selective>
//       nested `Q when U1 when U2 ...` with range-sized update chains.
//   SessionPathVsOracle/<k>/<query>/<profile>
//       the shape a session read composes, `Q when (e1 # ... # ek)`, with
//       single-tuple insert edges over 10k-row R and S. Every strategy gets
//       its own memo, index advisor and incremental cache under the named
//       profile's options (0 `fast`, 1 `default`, 2 `safe`), as a session
//       does; one edge is edited before each timed re-ask. `delta_share`
//       is the hybrid's share of hybrid-delta routes. Query 0 is a
//       select/project band, 1 the join R join[$0 = $2] S, 2 a
//       union/difference (edit_reask's three).

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/exec_context.h"
#include "common/rng.h"
#include "eval/memo.h"
#include "opt/engine.h"
#include "opt/planner.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::MakeRS;
using bench::Unwrap;

constexpr int64_t kKeyDomain = 40000;

QueryPtr MakeQuery(int depth, int64_t delta_pm, bool selective) {
  QueryPtr q = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  if (selective) {
    q = Sel(Lt(Col(0), Int(kKeyDomain / 20)), q);
  }
  int64_t width = kKeyDomain * delta_pm / 1000;
  for (int d = 0; d < depth; ++d) {
    int64_t lo = (d * 131) % kKeyDomain;
    UpdatePtr u = Seq(
        Ins("R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + width))),
                     Rel("S"))),
        Del("S", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + width))),
                     Rel("S"))));
    q = Query::When(q, Upd(u));
  }
  return q;
}

double TimeOnce(const QueryPtr& q, const Database& db, const Schema& schema,
                Strategy s) {
  auto start = std::chrono::steady_clock::now();
  Relation out = Unwrap(Execute(q, db, schema, s));
  benchmark::DoNotOptimize(out);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_PlannerVsOracle(benchmark::State& state) {
  const int64_t delta_pm = state.range(0);
  const int depth = static_cast<int>(state.range(1));
  const bool selective = state.range(2) != 0;
  Database db = MakeRS(47, 20000, kKeyDomain);
  const Schema& schema = db.schema();
  QueryPtr q = MakeQuery(depth, delta_pm, selective);

  double best = std::numeric_limits<double>::infinity();
  double hybrid = 0;
  for (auto _ : state) {
    best = std::numeric_limits<double>::infinity();
    for (Strategy s : {Strategy::kLazy, Strategy::kFilter1,
                       Strategy::kFilter2, Strategy::kFilter3}) {
      double t = TimeOnce(q, db, schema, s);
      if (t < best) best = t;
    }
    hybrid = TimeOnce(q, db, schema, Strategy::kHybrid);
  }
  state.counters["oracle_ms"] = best * 1000;
  state.counters["hybrid_ms"] = hybrid * 1000;
  state.counters["regret"] = hybrid / best;
}

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t delta_pm : {10, 100}) {
    for (int64_t depth : {1, 3}) {
      for (int64_t selective : {0, 1}) {
        b->Args({delta_pm, depth, selective});
      }
    }
  }
  b->Unit(benchmark::kMillisecond)->Iterations(3);
}

BENCHMARK(BM_PlannerVsOracle)->Apply(Args);

constexpr size_t kSessionRows = 10000;
constexpr int kSessionReasks = 20;

QueryPtr SessionQuery(int64_t which) {
  switch (which) {
    case 0:
      return Proj({1}, Sel(And(Ge(Col(0), Int(20000)), Lt(Col(0), Int(22000))),
                           Rel("R")));
    case 1:
      return Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
    default:
      return Diff(
          U(Proj({0, 1}, Sel(And(Ge(Col(0), Int(10000)),
                                 Lt(Col(0), Int(12000))),
                             Rel("R"))),
            Rel("S")),
          Sel(Lt(Col(0), Int(4000)), Rel("S")));
  }
}

HypoExprPtr InsertEdge(Rng* rng) {
  return Upd(Ins("R", Single(Row({IntV(rng->Uniform(0, kKeyDomain - 1)),
                                  IntV(rng->Uniform(0, 999))}))));
}

// e1 # (e2 # (... # ek)), as Session::PathState composes a root path.
QueryPtr OnPath(const QueryPtr& q, const std::vector<HypoExprPtr>& edges) {
  HypoExprPtr state = edges.back();
  for (size_t i = edges.size() - 1; i-- > 0;) state = Comp(edges[i], state);
  return Query::When(q, state);
}

struct PathRun {
  double seconds = 0;
  int delta_routes = 0;
  uint64_t last_hash = 0;
};

// One cold ask, then kSessionReasks timed edit/re-ask rounds; the edits are
// the same for every strategy.
PathRun RunPath(const QueryPtr& q, int k, const Database& db,
                const EngineOptions& profile, Strategy s) {
  MemoCache memo;
  IndexAdvisor advisor;
  IncrementalCache cache;
  PlannerOptions options = profile.ToPlannerOptions(&memo, &advisor, &cache);
  Rng rng(8);
  std::vector<HypoExprPtr> edges;
  for (int i = 0; i < k; ++i) edges.push_back(InsertEdge(&rng));
  PathRun run;
  for (int round = 0; round <= kSessionReasks; ++round) {
    if (round > 0) {
      edges[static_cast<size_t>(rng.Uniform(0, k - 1))] = InsertEdge(&rng);
    }
    QueryPtr read = OnPath(q, edges);
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    auto start = std::chrono::steady_clock::now();
    Relation out = Unwrap(Execute(read, db, db.schema(), s, options));
    if (round > 0) {
      run.seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      run.delta_routes += ctx.Snapshot().route == "hybrid-delta" ? 1 : 0;
    }
    run.last_hash = out.Hash();
  }
  return run;
}

void BM_SessionPathVsOracle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  QueryPtr q = SessionQuery(state.range(1));
  constexpr const char* kProfiles[] = {"fast", "default", "safe"};
  const EngineOptions profile =
      Unwrap(EngineOptions::Profile(kProfiles[state.range(2)]));
  Database db = MakeRS(47, kSessionRows, kKeyDomain);
  double best = std::numeric_limits<double>::infinity();
  PathRun hybrid;
  for (auto _ : state) {
    best = std::numeric_limits<double>::infinity();
    hybrid = RunPath(q, k, db, profile, Strategy::kHybrid);
    for (Strategy s : {Strategy::kLazy, Strategy::kFilter1,
                       Strategy::kFilter2, Strategy::kFilter3}) {
      PathRun run = RunPath(q, k, db, profile, s);
      HQL_CHECK_MSG(run.last_hash == hybrid.last_hash,
                    "strategies disagree on a session path");
      if (run.seconds < best) best = run.seconds;
    }
  }
  state.counters["oracle_ms"] = best * 1000 / kSessionReasks;
  state.counters["hybrid_ms"] = hybrid.seconds * 1000 / kSessionReasks;
  state.counters["regret"] = hybrid.seconds / best;
  state.counters["delta_share"] =
      static_cast<double>(hybrid.delta_routes) / kSessionReasks;
}

void SessionArgs(benchmark::internal::Benchmark* b) {
  for (int64_t profile : {0, 1, 2}) {
    for (int64_t k : {1, 2, 8}) {
      for (int64_t query : {0, 1, 2}) b->Args({k, query, profile});
    }
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_SessionPathVsOracle)->Apply(SessionArgs);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e8_planner_oracle)
