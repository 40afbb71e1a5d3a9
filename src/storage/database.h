#ifndef HQL_STORAGE_DATABASE_H_
#define HQL_STORAGE_DATABASE_H_

// A database state DB: a function mapping every relation name of a schema to
// a relation of the appropriate arity (paper Section 3.1). Databases are
// value types: copying one produces an independent state, which is exactly
// the DB[R <- V] notation of the paper's update semantics.
//
// Storage is copy-on-write: each name maps to a Relation, a handle over a
// shared payload that is either flat or an overlay of a small add/del delta
// on a shared flat base. Copying a Database, deriving a hypothetical state
// or binding an unchanged relation is a refcount bump, never a tuple copy,
// and every copy sees the indexes and column batches built on the shared
// payloads.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace hql {

class Database {
 public:
  /// A state over `schema` with every relation empty.
  explicit Database(Schema schema);

  const Schema& schema() const { return schema_; }

  /// DB(R) (a refcount bump, never a tuple copy); NotFound for names
  /// outside the schema.
  Result<Relation> Get(const std::string& name) const;

  /// DB(R) by reference; CHECK-fails for names outside the schema (internal
  /// evaluator paths validate names beforehand via typecheck). Never merges
  /// an overlay.
  const Relation& GetRef(const std::string& name) const;

  /// DB[R <- value]; arity must match the schema.
  Status Set(const std::string& name, Relation value);

  /// Builds (or returns) a hash index over `columns` of DB(name)'s flat
  /// base — the manual face of the index policy (IndexMode::kManual). The
  /// index is cached on the base's payload and shared by every copy and
  /// every overlay over it; an overlay indexes its base, which the kernels
  /// patch with the delta at probe time. NotFound for unknown
  /// names, InvalidArgument for empty/unsorted/out-of-range columns.
  Result<std::shared_ptr<const RelationIndex>> BuildIndex(
      const std::string& name, const std::vector<size_t>& columns) const;

  /// A fully flat copy: every relation merged or copied into a fresh flat
  /// payload, so no payload is shared with this state and
  /// OverlayEditBetween across the two states returns nullopt. O(data);
  /// kept as the flat-state baseline and for callers that must sever base
  /// identity.
  Database Consolidated() const;

  /// Content equality (representation-independent: an overlay and a flat
  /// relation with the same tuples compare equal).
  bool operator==(const Database& other) const;
  bool operator!=(const Database& other) const { return !(*this == other); }

  uint64_t Hash() const;

  /// Multi-line listing of all relations, for debugging and examples.
  std::string ToString() const;

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

 private:
  Schema schema_;
  std::map<std::string, Relation> relations_;
};

}  // namespace hql

#endif  // HQL_STORAGE_DATABASE_H_
