// E13 — Vectorized columnar kernels and morsel-driven parallelism.
//
// The columnar layer's target workload: a 1M-row flat base relation,
// selections and equi-joins routed through the vectorized kernels
// (eval/vector_exec.h) against the same queries on the row kernels. The
// batch is built once (install-once cache on the shared base, exactly like
// the secondary-index cache) and every iteration scans the per-column
// contiguous arrays in tight type-specialized loops.
//
// Rows (1M-row base):
//   SelectRow             sigma[lo <= $0 < hi](R), row kernel (per-tuple
//                         expression interpretation).
//   SelectColumnar        the same, vectorized, morsels inline (threads=1).
//   SelectColumnarMorsel  the same, morsel-parallel across the pool.
//   JoinRow               R join[$0 = $2] S (1M probe x 10k build), row
//                         hash join.
//   JoinColumnar          the same, vectorized int-key probe, inline.
//   JoinColumnarMorsel    the same, morsel-parallel.
//   OverlayFallback       an overlay past max_delta_fraction: the columnar
//                         route must decline (TryColumnarFilter nullopt)
//                         and the routed kernel equals the row kernel.
//
// Setup asserts bit-identical results between the vectorized and row routes
// before timing anything, so the speedup is never purchased with a wrong
// answer. Run with --json to write BENCH_e13_columnar.json plus the
// ExecStats sidecar (columnar_* counters included).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "eval/ra_eval.h"
#include "eval/vector_exec.h"
#include "storage/column_batch.h"
#include "storage/relation.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::Unwrap;

constexpr size_t kBaseRows = 1000000;
constexpr int64_t kKeyDomain = 4000000;
constexpr size_t kBuildRows = 10000;

// The shared 1M-row probe base and the small join build side. Built once
// per process; the columnar batch cache on `base` is likewise shared by
// every columnar benchmark (the install-once regime the cache targets).
struct Fixture {
  Relation base;
  Relation build;

  Fixture()
      : base([] {
          Rng rng(13);
          return GenRelation(&rng, kBaseRows, 2, kKeyDomain);
        }()),
        build([] {
          Rng rng(17);
          return GenRelation(&rng, kBuildRows, 2, kKeyDomain);
        }()) {}
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// ~5% band selection on the sorted key column plus a second conjunct, so
// both the scan and the emit path do real work.
ScalarExprPtr SelectPred() {
  return And(And(Ge(Col(0), Int(kKeyDomain / 2)),
                 Lt(Col(0), Int(kKeyDomain / 2 + kKeyDomain / 20))),
             Ge(Col(1), Int(0)));
}

ScalarExprPtr JoinPred() { return Eq(Col(0), Col(2)); }

ColumnarConfig Config(size_t threads) {
  ColumnarConfig config;
  config.mode = ColumnarMode::kAuto;
  config.threads = threads;  // 1 = inline morsels, 0 = hardware concurrency
  return config;
}

// Asserted once per benchmark: the vectorized route engages and returns the
// bit-identical relation the row kernel computes.
void CheckSelectIdentity(const ColumnarConfig& config) {
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = SelectPred();
  auto columnar = TryColumnarFilter(fx.base, pred, config);
  HQL_CHECK_MSG(columnar.has_value(),
                "columnar select must engage on the 1M-row flat base");
  Relation row = FilterRelation(fx.base, *pred);
  HQL_CHECK_MSG(*columnar == row,
                "columnar and row selects must agree bit-identically");
  HQL_CHECK_MSG(!row.empty(), "the workload must be non-trivial");
}

void CheckJoinIdentity(const ColumnarConfig& config) {
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = JoinPred();
  auto columnar =
      TryColumnarJoin(fx.base, fx.build, pred, config);
  HQL_CHECK_MSG(columnar.has_value(),
                "columnar join must engage on the 1M-row probe side");
  Relation row = JoinRelations(fx.base, fx.build, pred);
  HQL_CHECK_MSG(*columnar == row,
                "columnar and row joins must agree bit-identically");
  HQL_CHECK_MSG(!row.empty(), "the workload must be non-trivial");
}

void ExportColumnarCounters(benchmark::State& state, const ExecStats& before) {
  ExecStats after = AmbientExecContext().Snapshot();
  state.counters["batches_built"] = static_cast<double>(
      after.columnar_batches_built - before.columnar_batches_built);
  state.counters["batches_reused"] = static_cast<double>(
      after.columnar_batches_reused - before.columnar_batches_reused);
  state.counters["morsels"] = static_cast<double>(
      after.columnar_morsels_dispatched - before.columnar_morsels_dispatched);
  state.counters["rows_vectorized"] = static_cast<double>(
      after.columnar_rows_vectorized - before.columnar_rows_vectorized);
  state.counters["rows_fallback"] = static_cast<double>(
      after.columnar_rows_fallback - before.columnar_rows_fallback);
}

void BM_SelectRow(benchmark::State& state) {
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = SelectPred();
  uint64_t total = 0;
  for (auto _ : state) {
    total += FilterRelation(fx.base, *pred).size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void RunSelectColumnar(benchmark::State& state, size_t threads) {
  ColumnarConfig config = Config(threads);
  CheckSelectIdentity(config);
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = SelectPred();
  IndexConfig no_indexes;
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedFilter(fx.base, pred, no_indexes, config).size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportColumnarCounters(state, before);
}

void BM_SelectColumnar(benchmark::State& state) {
  RunSelectColumnar(state, /*threads=*/1);
}
void BM_SelectColumnarMorsel(benchmark::State& state) {
  RunSelectColumnar(state, /*threads=*/0);
}

void BM_JoinRow(benchmark::State& state) {
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = JoinPred();
  uint64_t total = 0;
  for (auto _ : state) {
    total += JoinRelations(fx.base, fx.build, pred).size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void RunJoinColumnar(benchmark::State& state, size_t threads) {
  ColumnarConfig config = Config(threads);
  CheckJoinIdentity(config);
  Fixture& fx = SharedFixture();
  ScalarExprPtr pred = JoinPred();
  IndexConfig no_indexes;
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedJoin(fx.base, fx.build, pred, no_indexes,
                            config)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportColumnarCounters(state, before);
}

void BM_JoinColumnar(benchmark::State& state) {
  RunJoinColumnar(state, /*threads=*/1);
}
void BM_JoinColumnarMorsel(benchmark::State& state) {
  RunJoinColumnar(state, /*threads=*/0);
}

// The fallback family: an overlay whose delta exceeds max_delta_fraction of
// a (smaller) base. The columnar route must decline and the routed kernel
// must cost what the row kernel costs — the clean-degradation guarantee.
void BM_OverlayFallback(benchmark::State& state) {
  Rng rng(19);
  Relation small = GenRelation(&rng, 100000, 2, kKeyDomain);
  Relation adds = GenRelation(&rng, 40000, 2, kKeyDomain);
  Relation dels = SampleFraction(&rng, small, 0.1);
  Relation view = Relation::Overlay(small, adds.tuples(), dels.tuples());
  ScalarExprPtr pred = SelectPred();

  ColumnarConfig config = Config(/*threads=*/1);
  HQL_CHECK_MSG(!TryColumnarFilter(view, pred, config).has_value(),
                "an overlay past max_delta_fraction must fall back");
  Relation row = FilterRelation(view, *pred);
  IndexConfig no_indexes;
  HQL_CHECK_MSG(VectorizedFilter(view, pred, no_indexes, config) == row,
                "the routed kernel must equal the row kernel on fallback");

  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedFilter(view, pred, no_indexes, config).size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportColumnarCounters(state, before);
}

BENCHMARK(BM_SelectRow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectColumnar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectColumnarMorsel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinRow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinColumnar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinColumnarMorsel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverlayFallback)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e13_columnar)
