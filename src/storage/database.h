#ifndef HQL_STORAGE_DATABASE_H_
#define HQL_STORAGE_DATABASE_H_

// A database state DB: a function mapping every relation name of a schema to
// a relation of the appropriate arity (paper Section 3.1). Databases are
// value types: copying one produces an independent state, which is exactly
// the DB[R <- V] notation of the paper's update semantics.
//
// Storage is copy-on-write: each name maps to a RelationView — a shared
// immutable base relation plus a small add/del overlay — so copying a
// Database, deriving a hypothetical state, or binding an unchanged relation
// is a refcount bump, never a tuple copy. Flat access (Get/GetRef) is still
// available for callers that need a plain Relation; overlays consolidate
// lazily and cache the result.

#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/view.h"

namespace hql {

class Database {
 public:
  /// A state over `schema` with every relation empty.
  explicit Database(Schema schema);

  const Schema& schema() const { return schema_; }

  /// DB(R) as a flat copy; NotFound for names outside the schema.
  Result<Relation> Get(const std::string& name) const;

  /// DB(R) as a flat reference; CHECK-fails for names outside the schema
  /// (internal evaluator paths validate names beforehand via typecheck).
  /// Overlay-backed relations consolidate once and cache the flat form; the
  /// reference stays valid as long as this Database (or any copy of the
  /// view) is alive.
  const Relation& GetRef(const std::string& name) const;

  /// DB(R) as a copy-on-write view (cheap copy, no tuple movement);
  /// NotFound for names outside the schema.
  Result<RelationView> GetView(const std::string& name) const;

  /// DB(R) view by reference; CHECK-fails for names outside the schema.
  const RelationView& ViewRef(const std::string& name) const;

  /// DB(R) as a shared flat relation (refcount bump when already flat).
  /// CHECK-fails for names outside the schema.
  RelationPtr GetShared(const std::string& name) const;

  /// DB[R <- value]; arity must match the schema.
  Status Set(const std::string& name, Relation value);
  Status SetShared(const std::string& name, RelationPtr value);
  Status SetView(const std::string& name, RelationView value);

  /// Builds (or returns) a hash index over `columns` of DB(name)'s base
  /// relation — the manual face of the index policy (IndexMode::kManual).
  /// The index is cached on the base and shared by every copy-on-write
  /// descendant; an overlay-backed relation indexes its base, which the
  /// kernels patch with the overlay at probe time. NotFound for unknown
  /// names, InvalidArgument for empty/unsorted/out-of-range columns.
  Result<std::shared_ptr<const RelationIndex>> BuildIndex(
      const std::string& name, const std::vector<size_t>& columns) const;

  /// A fully flat copy: every relation materialized into a fresh base, so
  /// no base pointer is shared with this state and OverlayEditBetween
  /// across the two states returns nullopt. The tuple storage of relations
  /// that were already flat is still shared (Relation copies share their
  /// payload); overlays are merged into new storage. Kept as the flat-state
  /// baseline and for callers that must sever base identity.
  Database Consolidated() const;

  /// Content equality (representation-independent: an overlay and a flat
  /// relation with the same tuples compare equal).
  bool operator==(const Database& other) const;
  bool operator!=(const Database& other) const { return !(*this == other); }

  uint64_t Hash() const;

  /// Multi-line listing of all relations, for debugging and examples.
  std::string ToString() const;

  const std::map<std::string, RelationView>& relations() const {
    return relations_;
  }

 private:
  Schema schema_;
  std::map<std::string, RelationView> relations_;
};

}  // namespace hql

#endif  // HQL_STORAGE_DATABASE_H_
