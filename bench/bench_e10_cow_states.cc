// E10 — Copy-on-write state derivation: overlays vs copying.
//
// The scenario behind the storage layer's existence: a large base relation
// (100k rows) and a family of hypothetical states that each rewrite only a
// handful of tuples. Deriving such a state used to cost a full copy of the
// base; as an overlay it costs O(|edge delta| log |base|) — the base is
// shared behind a refcount and only the delta is owned.
//
// Rows (delta = total rewritten tuples, half inserts half deletes, on a
// 100k-row base):
//   DeriveOverlay/<delta>       child state via Relation::ApplyDelta —
//                               the copy-on-write path.
//   DeriveCopy/<delta>          child state via Relation::ApplyTuples — the
//                               consolidating baseline (copies the base).
//   QueryOverlay/<delta>        selection evaluated directly over the
//                               overlay state (Relation::Scan, no
//                               merge).
//   QueryConsolidated/<delta>   the same selection over the copied state.
//
// Setup asserts bit-identical contents between the overlay and the copied
// state, so the speedup is never purchased with a wrong answer. Counters
// report the overlay accounting (overlays created, consolidations, tuples
// shared vs copied) for the derivation rows.
// Run with --json to write BENCH_e10_cow_states.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "eval/ra_eval.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "common/exec_context.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::MakeRS;
using bench::Unwrap;

constexpr size_t kBaseRows = 100000;
constexpr int64_t kKeyDomain = 200000;

// `delta` rewritten tuples: delta/2 fresh inserts (keys above the domain,
// so they are certainly not in the base) and delta/2 deletes of existing
// tuples, both sorted — exactly what ApplyTuples/ApplyDelta expect.
std::pair<std::vector<Tuple>, std::vector<Tuple>> MakeDelta(
    const Relation& base, size_t delta) {
  std::vector<Tuple> adds;
  adds.reserve(delta / 2);
  for (size_t i = 0; i < delta / 2; ++i) {
    adds.push_back({Value::Int(kKeyDomain + static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i))});
  }
  std::vector<Tuple> dels(base.tuples().begin(),
                          base.tuples().begin() +
                              static_cast<ptrdiff_t>(delta - delta / 2));
  return {std::move(adds), std::move(dels)};
}

void ExportViewCounters(benchmark::State& state, const ExecContext& ctx) {
  ExecStats after = ctx.Snapshot();
  state.counters["views_created"] = static_cast<double>(after.views_created);
  state.counters["consolidations"] =
      static_cast<double>(after.view_consolidations);
  state.counters["tuples_shared"] =
      static_cast<double>(after.view_tuples_shared);
  state.counters["tuples_copied"] =
      static_cast<double>(after.view_tuples_copied);
}

void BM_DeriveOverlay(benchmark::State& state) {
  const size_t delta = static_cast<size_t>(state.range(0));
  Database db = MakeRS(11, kBaseRows, kKeyDomain);
  const Relation& base = db.GetRef("R");
  auto [adds, dels] = MakeDelta(base, delta);
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  uint64_t derived = 0;
  for (auto _ : state) {
    Relation child = base.ApplyDelta(adds, dels);
    benchmark::DoNotOptimize(child.size());
    derived += child.size();
  }
  ExportViewCounters(state, ctx);
  state.counters["derived_size"] = static_cast<double>(derived);
}

void BM_DeriveCopy(benchmark::State& state) {
  const size_t delta = static_cast<size_t>(state.range(0));
  Database db = MakeRS(11, kBaseRows, kKeyDomain);
  const Relation& flat = db.GetRef("R");
  auto [adds, dels] = MakeDelta(flat, delta);
  uint64_t derived = 0;
  for (auto _ : state) {
    Relation child = flat.ApplyTuples(adds, dels);
    benchmark::DoNotOptimize(child.size());
    derived += child.size();
  }
  state.counters["derived_size"] = static_cast<double>(derived);
}

// Shared query setup: a derived child database, either an overlay or
// consolidated, plus a one-time equality check between the two.
Database DeriveChild(const Database& db, size_t delta, bool overlay) {
  const Relation& base = db.GetRef("R");
  auto [adds, dels] = MakeDelta(base, delta);
  Relation child_overlay = base.ApplyDelta(adds, dels);
  Relation child_flat = base.ApplyTuples(adds, dels);
  HQL_CHECK_MSG(child_overlay == child_flat,
                "overlay and consolidated children must agree");
  Database out = db;
  HQL_CHECK(out.Set("R", overlay ? std::move(child_overlay)
                                 : std::move(child_flat))
                .ok());
  return out;
}

void RunQuery(benchmark::State& state, bool overlay) {
  const size_t delta = static_cast<size_t>(state.range(0));
  Database db = MakeRS(11, kBaseRows, kKeyDomain);
  Database child = DeriveChild(db, delta, overlay);
  // Selective scan touching both halves of the key domain, so inserted and
  // surviving tuples both appear in the result.
  QueryPtr query = Sel(Ge(Col(0), Int(kKeyDomain - 64)), Rel("R"));
  DatabaseResolver resolver(child);
  Relation expected = Unwrap(EvalRa(query, resolver));
  uint64_t total = 0;
  for (auto _ : state) {
    Relation out = Unwrap(EvalRa(query, resolver));
    total += out.size();
  }
  // The two variants must stream identical results.
  Database other = DeriveChild(db, delta, !overlay);
  DatabaseResolver other_resolver(other);
  HQL_CHECK_MSG(Unwrap(EvalRa(query, other_resolver)) == expected,
                "overlay and consolidated query results must agree");
  state.counters["result_tuples"] = static_cast<double>(total);
}

void BM_QueryOverlay(benchmark::State& state) { RunQuery(state, true); }
void BM_QueryConsolidated(benchmark::State& state) { RunQuery(state, false); }

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t delta : {10, 100, 1000}) b->Arg(delta);
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_DeriveOverlay)->Apply(Args);
BENCHMARK(BM_DeriveCopy)->Apply(Args);
BENCHMARK(BM_QueryOverlay)->Apply(Args);
BENCHMARK(BM_QueryConsolidated)->Apply(Args);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e10_cow_states)
