#ifndef HQL_EVAL_INDEX_EXEC_H_
#define HQL_EVAL_INDEX_EXEC_H_

// Index-backed physical operators: the sargable-predicate extractor plus
// selection and join kernels that answer equality work by probing the hash
// index of an operand's flat base instead of scanning. An overlay operand
// patches the base index's answer with its delta — matches minus `dels`
// plus a linear filter of `adds` — so a hypothetical state probes the index
// its base state built.
//
// All kernels are exact: they return nullopt (callers fall back to the
// scan kernels in ra_eval.h / delta_ops.h) whenever any part of the
// predicate could diverge from hash-key semantics, and otherwise produce
// byte-identical results to the scan. IndexConfig{} (mode off) disables
// them entirely.

#include <optional>
#include <utility>
#include <vector>

#include "ast/scalar_expr.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace hql {

/// A conjunction split into a sargable equality prefix and a residual:
/// `pred` holds on a tuple t iff t[columns[i]] == key[i] for all i and
/// every residual conjunct holds. Columns are strictly ascending — the
/// shape RelationIndex wants.
struct SargablePredicate {
  std::vector<size_t> columns;
  Tuple key;
  std::vector<ScalarExprPtr> residual;
};

/// Splits `pred`'s AND-tree into `$i = literal` equality conjuncts plus the
/// rest. Literal-on-either-side is accepted; a duplicate equality on the
/// same column keeps the first occurrence in the prefix and leaves the rest
/// residual (so contradictions still evaluate). Returns nullopt when no
/// equality conjunct exists or `pred` is null.
std::optional<SargablePredicate> ExtractSargable(const ScalarExprPtr& pred);

/// Collects `$i = $j` conjuncts with i on the left side and j on the right
/// side of a join whose left operand has arity `split`; everything else
/// goes to `residual`. Shared by the hash join (ra_eval.cc) and the
/// index-nested-loop join below.
void SplitJoinPredicate(const ScalarExprPtr& pred, size_t split,
                        std::vector<std::pair<size_t, size_t>>* equi,
                        std::vector<ScalarExprPtr>* residual);

/// sigma_pred(input) answered by probing an index on input's flat base: base
/// matches (minus dels, filtered by the residual) merged with a full-
/// predicate filter of adds. Returns nullopt when the config, base size,
/// predicate shape, or index policy rules the probe out.
std::optional<Relation> TryIndexedFilter(const Relation& input,
                                         const ScalarExprPtr& pred,
                                         const IndexConfig& config);

/// TryIndexedFilter with scan fallback; always equals
/// FilterRelation(input, *pred). `pred` must be non-null.
Relation IndexedFilter(const Relation& input, const ScalarExprPtr& pred,
                       const IndexConfig& config);

/// lhs join_pred rhs as an index-nested-loop join: probes an index on the
/// larger side's base with each tuple of the smaller side (adds of the
/// indexed side go through a small side hash table). Returns nullopt when
/// no equality conjunct crosses the split or the index policy declines.
std::optional<Relation> TryIndexedJoin(const Relation& lhs,
                                       const Relation& rhs,
                                       const ScalarExprPtr& pred,
                                       const IndexConfig& config);

/// TryIndexedJoin with hash-join fallback; always equals
/// JoinRelations(lhs, rhs, pred).
Relation IndexedJoin(const Relation& lhs, const Relation& rhs,
                     const ScalarExprPtr& pred, const IndexConfig& config);

}  // namespace hql

#endif  // HQL_EVAL_INDEX_EXEC_H_
