#include "eval/index_exec.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "eval/ra_eval.h"

namespace hql {

std::optional<SargablePredicate> ExtractSargable(const ScalarExprPtr& pred) {
  std::vector<ScalarExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  // An ordered map keeps the prefix columns strictly ascending and drops
  // duplicate equalities on one column into the residual.
  std::map<size_t, Value> equalities;
  std::vector<ScalarExprPtr> residual;
  for (const ScalarExprPtr& c : conjuncts) {
    const ScalarExpr* col = nullptr;
    const ScalarExpr* lit = nullptr;
    if (c->kind() == ScalarKind::kBinary && c->op() == ScalarOp::kEq) {
      if (c->lhs()->kind() == ScalarKind::kColumn &&
          c->rhs()->kind() == ScalarKind::kLiteral) {
        col = c->lhs().get();
        lit = c->rhs().get();
      } else if (c->rhs()->kind() == ScalarKind::kColumn &&
                 c->lhs()->kind() == ScalarKind::kLiteral) {
        col = c->rhs().get();
        lit = c->lhs().get();
      }
    }
    if (col != nullptr && equalities.count(col->column()) == 0) {
      equalities.emplace(col->column(), lit->literal());
    } else {
      residual.push_back(c);
    }
  }
  if (equalities.empty()) return std::nullopt;
  SargablePredicate out;
  out.columns.reserve(equalities.size());
  out.key.reserve(equalities.size());
  for (auto& [column, value] : equalities) {
    out.columns.push_back(column);
    out.key.push_back(std::move(value));
  }
  out.residual = std::move(residual);
  return out;
}

void SplitJoinPredicate(const ScalarExprPtr& pred, size_t split,
                        std::vector<std::pair<size_t, size_t>>* equi,
                        std::vector<ScalarExprPtr>* residual) {
  std::vector<ScalarExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->kind() == ScalarKind::kBinary && c->op() == ScalarOp::kEq &&
        c->lhs()->kind() == ScalarKind::kColumn &&
        c->rhs()->kind() == ScalarKind::kColumn) {
      size_t a = c->lhs()->column();
      size_t b = c->rhs()->column();
      if (a < split && b >= split) {
        equi->push_back({a, b - split});
        continue;
      }
      if (b < split && a >= split) {
        equi->push_back({b, a - split});
        continue;
      }
    }
    residual->push_back(c);
  }
}

namespace {

// Resolves the index to probe under the configured policy. Never builds in
// kManual mode; in kAdvisor mode the advisor decides when a column set has
// earned its build.
RelationIndexPtr LookupIndex(const RelationPtr& base,
                             const std::vector<size_t>& columns,
                             const IndexConfig& config) {
  switch (config.mode) {
    case IndexMode::kOff:
      return nullptr;
    case IndexMode::kManual:
      return base->ExistingIndex(columns);
    case IndexMode::kAdvisor:
      if (config.advisor == nullptr) return base->ExistingIndex(columns);
      // Under a governor, an advisor-driven build over a base past the
      // index-build budget (or on an already-tripped execution) degrades to
      // whatever index already exists — a scan otherwise — instead of
      // paying the build.
      if (ExecGovernor* gov = CurrentGovernor();
          gov != nullptr && !gov->AllowIndexBuild(base->size())) {
        AmbientExecContext().Add(ExecCounter::kGovernorIndexFallbacks);
        return base->ExistingIndex(columns);
      }
      return config.advisor->Advise(base, columns);
  }
  return nullptr;
}

bool ResidualOk(const std::vector<ScalarExprPtr>& residual, const Tuple& t) {
  for (const ScalarExprPtr& r : residual) {
    if (!r->EvaluatesTrue(t)) return false;
  }
  return true;
}

}  // namespace

std::optional<Relation> TryIndexedFilter(const RelationView& input,
                                         const ScalarExprPtr& pred,
                                         const IndexConfig& config) {
  if (!config.enabled() || pred == nullptr) return std::nullopt;
  const RelationPtr& base = input.base();
  if (base->size() < config.min_index_rows) return std::nullopt;
  std::optional<SargablePredicate> sarg = ExtractSargable(pred);
  if (!sarg.has_value()) return std::nullopt;
  // Out-of-arity columns evaluate to null under the scan semantics (and
  // `null = null` is true); that never matches hash-key semantics, so only
  // in-range prefixes are probeable.
  if (sarg->columns.back() >= input.arity()) return std::nullopt;
  RelationIndexPtr index = LookupIndex(base, sarg->columns, config);
  if (index == nullptr) return std::nullopt;

  TraceSpan trace("index-select", input.size());
  RelationIndex::PosSpan span = index->Probe(sarg->key);
  AmbientExecContext().Add(ExecCounter::kIndexTuplesSkipped,
                           base->size() - span.size());

  const std::vector<Tuple>& tuples = base->tuples();
  const std::vector<Tuple>& dels = input.dels();
  std::vector<Tuple> matched;
  matched.reserve(span.size());
  for (uint32_t pos : span) {
    const Tuple& t = tuples[pos];
    if (!dels.empty() &&
        std::binary_search(dels.begin(), dels.end(), t, TupleLess())) {
      continue;
    }
    if (ResidualOk(sarg->residual, t)) matched.push_back(t);
  }
  std::vector<Tuple> added;
  for (const Tuple& a : input.adds()) {
    if (pred->EvaluatesTrue(a)) added.push_back(a);
  }
  // Both runs are sorted and unique (ascending positions over a sorted
  // base; adds are canonical) and disjoint (adds never appear in the
  // base), so one merge rebuilds relation order.
  std::vector<Tuple> out;
  out.reserve(matched.size() + added.size());
  std::set_union(matched.begin(), matched.end(), added.begin(), added.end(),
                 std::back_inserter(out), TupleLess());
  trace.set_rows_out(out.size());
  return Relation::FromSortedUnique(input.arity(), std::move(out));
}

Relation IndexedFilter(const RelationView& input, const ScalarExprPtr& pred,
                       const IndexConfig& config) {
  HQL_CHECK(pred != nullptr);
  std::optional<Relation> fast = TryIndexedFilter(input, pred, config);
  if (fast.has_value()) return *std::move(fast);
  return FilterRelation(input, *pred);
}

std::optional<Relation> TryIndexedJoin(const RelationView& lhs,
                                       const RelationView& rhs,
                                       const ScalarExprPtr& pred,
                                       const IndexConfig& config) {
  if (!config.enabled() || pred == nullptr) return std::nullopt;
  std::vector<std::pair<size_t, size_t>> equi;
  std::vector<ScalarExprPtr> residual;
  SplitJoinPredicate(pred, lhs.arity(), &equi, &residual);
  if (equi.empty()) return std::nullopt;

  // Index the side with the larger base; stream the other. The index pays
  // off when it already exists (shared across a family of alternatives),
  // which LookupIndex's policy decides.
  const bool index_rhs = rhs.base()->size() >= lhs.base()->size();
  const RelationView& big = index_rhs ? rhs : lhs;
  const RelationView& small = index_rhs ? lhs : rhs;
  if (big.base()->size() < config.min_index_rows) return std::nullopt;

  // (index column on big, probe column on small), ascending by index
  // column — the index key shape. A column equated twice cannot form an
  // index key; fall back.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(equi.size());
  for (const auto& [lc, rc] : equi) {
    size_t big_col = index_rhs ? rc : lc;
    size_t small_col = index_rhs ? lc : rc;
    if (big_col >= big.arity() || small_col >= small.arity()) {
      return std::nullopt;
    }
    pairs.push_back({big_col, small_col});
  }
  std::sort(pairs.begin(), pairs.end());
  for (size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first == pairs[i - 1].first) return std::nullopt;
  }
  std::vector<size_t> columns;
  columns.reserve(pairs.size());
  for (const auto& [big_col, small_col] : pairs) columns.push_back(big_col);

  RelationIndexPtr index = LookupIndex(big.base(), columns, config);
  if (index == nullptr) return std::nullopt;

  TraceSpan trace("index-join", lhs.size() + rhs.size());
  // The indexed side's adds are not in its base; a small hash table keyed
  // the same way patches them in.
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> adds_table;
  for (const Tuple& a : big.adds()) {
    adds_table[index->KeyOf(a)].push_back(&a);
  }

  const std::vector<Tuple>& big_tuples = big.base()->tuples();
  const std::vector<Tuple>& big_dels = big.dels();
  std::vector<Tuple> out;
  uint64_t touched = 0;
  auto emit = [&](const Tuple& probe_tuple, const Tuple& big_tuple) {
    Tuple combined = index_rhs ? ConcatTuples(probe_tuple, big_tuple)
                               : ConcatTuples(big_tuple, probe_tuple);
    if (ResidualOk(residual, combined)) out.push_back(std::move(combined));
  };
  for (const Tuple& p : small) {
    Tuple key;
    key.reserve(pairs.size());
    for (const auto& [big_col, small_col] : pairs) key.push_back(p[small_col]);
    for (uint32_t pos : index->Probe(key)) {
      const Tuple& t = big_tuples[pos];
      ++touched;
      if (!big_dels.empty() &&
          std::binary_search(big_dels.begin(), big_dels.end(), t,
                             TupleLess())) {
        continue;
      }
      emit(p, t);
    }
    auto it = adds_table.find(key);
    if (it != adds_table.end()) {
      for (const Tuple* a : it->second) emit(p, *a);
    }
  }
  uint64_t big_size = big.base()->size();
  AmbientExecContext().Add(ExecCounter::kIndexTuplesSkipped,
                           big_size > touched ? big_size - touched : 0);
  trace.set_rows_out(out.size());
  return Relation::FromTuples(lhs.arity() + rhs.arity(), std::move(out));
}

Relation IndexedJoin(const RelationView& lhs, const RelationView& rhs,
                     const ScalarExprPtr& pred, const IndexConfig& config) {
  std::optional<Relation> fast = TryIndexedJoin(lhs, rhs, pred, config);
  if (fast.has_value()) return *std::move(fast);
  return JoinRelations(lhs, rhs, pred);
}

}  // namespace hql
