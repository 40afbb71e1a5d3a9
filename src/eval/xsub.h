#ifndef HQL_EVAL_XSUB_H_
#define HQL_EVAL_XSUB_H_

// Explicit substitution values, or xsub-values (paper Section 5.3): the
// physical counterparts of explicit substitutions. An xsub-value is a
// partial map from relation names to (materialized) relations, with
//
//   apply(DB, E)(R) = E(R) if bound, DB(R) otherwise
//   (E1 ! E2)(R)    = E2(R) if bound in E2, else E1(R)      ("smash")
//
// The smash equation that drives nested-when evaluation is
//   [(Q when e2) when e1](DB)
//     = [Q](apply(DB, [e1]xval(DB) ! [e2]xval(apply(DB, [e1]xval(DB))))).
//
// Bindings are held as Relations, handles over shared payloads, so
// smashing two xsub-values or applying one to a database copies handles,
// never tuples.

#include <cstdint>
#include <map>
#include <string>

#include "storage/database.h"
#include "storage/relation.h"

namespace hql {

class XsubValue {
 public:
  XsubValue() = default;

  bool empty() const { return values_.empty(); }
  size_t size() const { return values_.size(); }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// The bound relation, or nullptr.
  const Relation* Get(const std::string& name) const;

  void Bind(const std::string& name, Relation value);

  /// this ! later: later's bindings win. O(bindings) handle copies.
  XsubValue SmashWith(const XsubValue& later) const;

  /// apply(DB, E); each binding is installed by refcount bump, no tuple
  /// copies.
  Result<Database> ApplyTo(const Database& db) const;

  /// Total number of materialized tuples (cost accounting in benchmarks).
  uint64_t TotalTuples() const;

  const std::map<std::string, Relation>& values() const { return values_; }

  std::string ToString() const;

 private:
  std::map<std::string, Relation> values_;
};

}  // namespace hql

#endif  // HQL_EVAL_XSUB_H_
