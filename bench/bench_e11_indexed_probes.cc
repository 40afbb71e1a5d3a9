// E11 — Overlay-aware secondary indexes: probes vs scans across a family
// of alternatives.
//
// The index layer's target workload: a 100k-row base relation, eight
// hypothetical alternatives that each insert one tuple, and the same query
// evaluated under every alternative. With indexes off, each alternative
// pays a full scan (select-when / hash-join build); with the advisor on,
// the first alternative funds one index build on the shared base and the
// other seven probe it through their overlays.
//
// Rows (8 alternatives per iteration, 100k-row base):
//   SelectScan       sigma[$0 = k](R) under each alternative, scan kernels.
//   SelectIndexed    the same, advisor-driven index probes.
//   JoinScan         S join[$0 = $2] R under each alternative, hash join.
//   JoinIndexed      the same, probing R's index (shared with the
//                    selection: one index on R.$0 serves both shapes).
//
// Setup asserts bit-identical results between the indexed and scan routes
// for every alternative, so the speedup is never purchased with a wrong
// answer. Counters on the indexed rows report the index layer's own
// accounting for one cold family: indexes_built (expected 1) and
// indexes_shared (expected >= 7), plus probe/skip totals.
// Run with --json to write BENCH_e11_indexed_probes.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "common/exec_context.h"
#include "storage/index.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::MakeRS;
using bench::Unwrap;

constexpr size_t kBaseRows = 100000;
constexpr int64_t kKeyDomain = 200000;
constexpr int kAlternatives = 8;

// Eight singleton-insert alternatives: small deltas on the shared base, the
// regime where the hybrid planner takes the HQL-3 delta route and the
// overlay probe path does its work.
std::vector<QueryPtr> MakeFamily(const QueryPtr& body) {
  std::vector<QueryPtr> family;
  family.reserve(kAlternatives);
  for (int i = 0; i < kAlternatives; ++i) {
    HypoExprPtr state =
        Upd(Ins("R", Single(Row({IntV(kKeyDomain + i), IntV(i)}))));
    family.push_back(When(body, std::move(state)));
  }
  return family;
}

PlannerOptions ScanOptions() { return PlannerOptions(); }

PlannerOptions IndexedOptions(IndexAdvisor* advisor) {
  PlannerOptions options;
  options.index_mode = IndexMode::kAdvisor;
  options.index_advisor = advisor;
  return options;
}

// Evaluates the whole family once; returns the summed result cardinality.
uint64_t EvalFamily(const std::vector<QueryPtr>& family, const Database& db,
                    const PlannerOptions& options) {
  uint64_t total = 0;
  for (const QueryPtr& q : family) {
    Relation out =
        Unwrap(Execute(q, db, db.schema(), Strategy::kHybrid, options));
    total += out.size();
  }
  return total;
}

// One cold pass with a fresh advisor, asserting the indexed route returns
// bit-identical relations to the scan route for every alternative, and
// exporting the index counters the family generated (expected: one build,
// the other seven alternatives sharing it).
void CheckAndExport(benchmark::State& state,
                    const std::vector<QueryPtr>& family, const Database& db) {
  IndexAdvisor advisor(/*build_threshold=*/1);
  PlannerOptions indexed = IndexedOptions(&advisor);
  PlannerOptions scan = ScanOptions();
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  for (const QueryPtr& q : family) {
    Relation with_index =
        Unwrap(Execute(q, db, db.schema(), Strategy::kHybrid, indexed));
    Relation with_scan =
        Unwrap(Execute(q, db, db.schema(), Strategy::kHybrid, scan));
    HQL_CHECK_MSG(with_index == with_scan,
                  "indexed and scan routes must agree bit-identically");
  }
  ExecStats after = ctx.Snapshot();
  for (const ExecCounterInfo& c : kExecCounters) {
    if (std::string_view(c.group) == "indexes") {
      state.counters[c.key] = static_cast<double>(after[c.counter]);
    }
  }
}

// Equality on a key present in the data (the median base tuple's), so the
// result is non-empty and the bit-identical check is not vacuous.
QueryPtr SelectBody(const Database& db) {
  const Relation& r = db.GetRef("R");
  return Sel(Eq(Col(0),
                ScalarExpr::Literal(r.tuples()[r.size() / 2][0])),
             Rel("R"));
}

// S.$0 = R.$0: a join whose index column on R is the same {0} the
// selection uses — the whole family shares a single physical index.
QueryPtr JoinBody(const Database&) {
  return Join(Eq(Col(0), Col(2)), Rel("S"), Rel("R"));
}

void RunFamily(benchmark::State& state,
               QueryPtr (*make_body)(const Database&), bool indexed) {
  Database db = MakeRS(11, kBaseRows, kKeyDomain);
  std::vector<QueryPtr> family = MakeFamily(make_body(db));
  if (indexed) CheckAndExport(state, family, db);

  IndexAdvisor advisor(/*build_threshold=*/1);
  PlannerOptions options =
      indexed ? IndexedOptions(&advisor) : ScanOptions();
  uint64_t total = 0;
  for (auto _ : state) {
    total += EvalFamily(family, db, options);
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void BM_SelectScan(benchmark::State& state) {
  RunFamily(state, SelectBody, /*indexed=*/false);
}
void BM_SelectIndexed(benchmark::State& state) {
  RunFamily(state, SelectBody, /*indexed=*/true);
}
void BM_JoinScan(benchmark::State& state) {
  RunFamily(state, JoinBody, /*indexed=*/false);
}
void BM_JoinIndexed(benchmark::State& state) {
  RunFamily(state, JoinBody, /*indexed=*/true);
}

BENCHMARK(BM_SelectScan)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectIndexed)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JoinScan)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinIndexed)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e11_indexed_probes)
