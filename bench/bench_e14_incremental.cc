// E14 — Incremental re-evaluation under scenario edits.
//
// The incremental route's target workload: a family of queries re-asked
// across a chain of single-tuple edits to a large base relation. Each
// iteration advances the database by one overlay edit (ExecUpdate keeps the
// shared base; the edit is O(1) tuples) and re-executes the same plan. With
// incremental_mode=off every re-ask recomputes from scratch; with
// incremental_mode=auto the cached previous result is patched by
// delta-of-delta propagation (eval/incremental.h), so the work per re-ask
// is proportional to the edit, not the data.
//
// Rows (150k-row base):
//   SelectRecompute / SelectIncremental    sigma-band + project over R.
//   JoinRecompute / JoinIncremental        R join[$0 = $2] S (S indexed on
//                                          column 0; the patch probes the
//                                          index with the edit tuples).
//   UnionDiffRecompute / UnionDiffIncremental
//                                          (pi R u S) - sigma(S): the
//                                          multi-operator propagation path.
//   AggregateFallback                      a group-by min: never patchable
//                                          (sum and count are), so every
//                                          re-ask must cleanly count a
//                                          fallback and recompute.
//
// Setup asserts bit-identical results between the incremental and
// from-scratch routes (and that patching actually engaged) before timing
// anything, so the speedup is never purchased with a wrong answer. Run with
// --json to write BENCH_e14_incremental.json plus the ExecStats sidecar
// (incremental_* counters included).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "eval/direct.h"
#include "eval/incremental.h"
#include "eval/memo.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::Unwrap;

constexpr size_t kBaseRows = 150000;
constexpr size_t kJoinBuildRows = 10000;
constexpr int64_t kKeyDomain = 600000;

// The shared scenario: a large R, a smaller S with a hash index on its key
// column. Copying the Database is a refcount bump, so every benchmark
// derives its own edit chain from the same bases.
const Database& SharedDb() {
  static const Database* db = [] {
    Schema schema;
    HQL_CHECK(schema.AddRelation("R", 2).ok());
    HQL_CHECK(schema.AddRelation("S", 2).ok());
    Rng rng(23);
    auto* out = new Database(schema);
    HQL_CHECK(out->Set("R", GenRelation(&rng, kBaseRows, 2, kKeyDomain)).ok());
    HQL_CHECK(
        out->Set("S", GenRelation(&rng, kJoinBuildRows, 2, kKeyDomain)).ok());
    HQL_CHECK(out->BuildIndex("S", {0}).ok());
    return out;
  }();
  return *db;
}

QueryPtr SelectQuery() {
  return Proj({1}, Sel(And(Ge(Col(0), Int(kKeyDomain / 2)),
                           Lt(Col(0), Int(kKeyDomain / 2 + kKeyDomain / 20))),
                       Rel("R")));
}

QueryPtr JoinQuery() {
  return Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
}

QueryPtr UnionDiffQuery() {
  // A band-select under the union keeps the result small relative to the
  // scanned base, so the recompute cost is scan-dominated — the regime the
  // patch route targets (the patched result itself is also re-materialized
  // every re-ask, which would otherwise cap the speedup).
  QueryPtr band = Sel(And(Ge(Col(0), Int(kKeyDomain / 4)),
                          Lt(Col(0), Int(kKeyDomain / 4 + kKeyDomain / 20))),
                      Rel("R"));
  return Diff(U(Proj({0, 1}, band), Rel("S")),
              Sel(Lt(Col(0), Int(kKeyDomain / 10)), Rel("S")));
}

// Min, because a deleted extremum needs a rescan: the propagator refuses it.
QueryPtr AggregateQuery() {
  return Agg({1}, AggFunc::kMin, 0,
             Sel(Lt(Col(0), Int(kKeyDomain / 4)), Rel("R")));
}

// One deterministic single-tuple edit: an insert into R drawn from the key
// domain (collisions with existing tuples are fine — the overlay stays
// canonical and the edit may then be empty, which the route also handles).
Result<Database> NextEdit(Rng* rng, const Database& db) {
  Tuple t;
  t.push_back(Value::Int(static_cast<int64_t>(rng->Next() % kKeyDomain)));
  t.push_back(Value::Int(static_cast<int64_t>(rng->Next() % 1000)));
  return ExecUpdate(Ins("R", Single(std::move(t))), db);
}

PlannerOptions Options(IncrementalMode mode, IncrementalCache* cache) {
  PlannerOptions options;
  options.incremental_mode = mode;
  options.incremental_cache = cache;
  options.index_mode = IndexMode::kManual;
  return options;
}

// Asserted once per incremental benchmark, before any timing: across a
// short edit chain the patched results are bit-identical to from-scratch
// evaluation, and the patch route actually engaged (a benchmark that
// silently recomputes would "win" nothing).
void CheckIdentity(const QueryPtr& query) {
  Database db = SharedDb();
  IncrementalCache cache;
  PlannerOptions incremental = Options(IncrementalMode::kAuto, &cache);
  PlannerOptions recompute = Options(IncrementalMode::kOff, nullptr);
  ExecStats before = AmbientExecContext().Snapshot();
  HQL_CHECK(Execute(query, db, db.schema(), Strategy::kLazy, incremental)
                .ok());
  Rng rng(310);
  for (int i = 0; i < 3; ++i) {
    db = Unwrap(NextEdit(&rng, db));
    Relation patched = Unwrap(
        Execute(query, db, db.schema(), Strategy::kLazy, incremental));
    Relation scratch = Unwrap(
        Execute(query, db, db.schema(), Strategy::kLazy, recompute));
    HQL_CHECK_MSG(patched == scratch,
                  "patched result must be bit-identical to recompute");
  }
  ExecStats after = AmbientExecContext().Snapshot();
  HQL_CHECK_MSG(
      after.incremental_results_patched > before.incremental_results_patched,
      "the incremental route must actually patch on single-tuple edits");
}

void ExportIncrementalCounters(benchmark::State& state,
                               const ExecStats& before) {
  ExecStats after = AmbientExecContext().Snapshot();
  state.counters["results_patched"] = static_cast<double>(
      after.incremental_results_patched - before.incremental_results_patched);
  state.counters["edits_propagated"] = static_cast<double>(
      after.incremental_edits_propagated -
      before.incremental_edits_propagated);
  state.counters["fallbacks"] = static_cast<double>(
      after.incremental_fallbacks - before.incremental_fallbacks);
}

// The benchmark body: advance the edit chain one tuple, re-ask the query.
// Both variants pay the same ExecUpdate; they differ only in how the re-ask
// is answered.
void RunEditChain(benchmark::State& state, const QueryPtr& query,
                  IncrementalMode mode) {
  IncrementalCache cache;
  PlannerOptions options =
      Options(mode, mode == IncrementalMode::kOff ? nullptr : &cache);
  Database db = SharedDb();
  // Warm run: with incremental on, records the execution the first patch
  // builds on; with it off, a plain evaluation for symmetry.
  Unwrap(Execute(query, db, db.schema(), Strategy::kLazy, options));
  Rng rng(627);
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    db = Unwrap(NextEdit(&rng, db));
    total += Unwrap(Execute(query, db, db.schema(), Strategy::kLazy, options))
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportIncrementalCounters(state, before);
}

void BM_SelectRecompute(benchmark::State& state) {
  RunEditChain(state, SelectQuery(), IncrementalMode::kOff);
}
void BM_SelectIncremental(benchmark::State& state) {
  CheckIdentity(SelectQuery());
  RunEditChain(state, SelectQuery(), IncrementalMode::kAuto);
}

void BM_JoinRecompute(benchmark::State& state) {
  RunEditChain(state, JoinQuery(), IncrementalMode::kOff);
}
void BM_JoinIncremental(benchmark::State& state) {
  CheckIdentity(JoinQuery());
  RunEditChain(state, JoinQuery(), IncrementalMode::kAuto);
}

void BM_UnionDiffRecompute(benchmark::State& state) {
  RunEditChain(state, UnionDiffQuery(), IncrementalMode::kOff);
}
void BM_UnionDiffIncremental(benchmark::State& state) {
  CheckIdentity(UnionDiffQuery());
  RunEditChain(state, UnionDiffQuery(), IncrementalMode::kAuto);
}

// A plan the propagator does not cover: every re-ask counts a fallback and
// recomputes — cleanly, and at recompute cost (this row is the price of the
// guard rail, not a win).
void BM_AggregateFallback(benchmark::State& state) {
  IncrementalCache cache;
  PlannerOptions options = Options(IncrementalMode::kAuto, &cache);
  QueryPtr query = AggregateQuery();
  Database db = SharedDb();
  Unwrap(Execute(query, db, db.schema(), Strategy::kLazy, options));
  Rng rng(628);
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    db = Unwrap(NextEdit(&rng, db));
    total += Unwrap(Execute(query, db, db.schema(), Strategy::kLazy, options))
                 .size();
  }
  ExecStats after = AmbientExecContext().Snapshot();
  HQL_CHECK_MSG(after.incremental_results_patched ==
                    before.incremental_results_patched,
                "an aggregate plan must never be patched");
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportIncrementalCounters(state, before);
}

BENCHMARK(BM_SelectRecompute)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectIncremental)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinRecompute)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinIncremental)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UnionDiffRecompute)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UnionDiffIncremental)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggregateFallback)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e14_incremental)
