#include "eval/materialize.h"

#include <memory>
#include <utility>

#include "ast/hypo.h"
#include "common/governor.h"
#include "common/strings.h"
#include "eval/direct.h"
#include "hql/free_dom.h"

namespace hql {

namespace {

// Tag separating state-materialization entries from query-subplan entries
// in a shared MemoCache.
constexpr uint64_t kStateEntryTag = 0x1BD11BDAA9FC1A22ULL;

uint64_t StateEntryKey(uint64_t state_hash, uint64_t db_fingerprint,
                       const std::string& name) {
  return MemoKey(HashCombine(HashCombine(kStateEntryTag, state_hash),
                             HashString(name)),
                 db_fingerprint);
}

// Evaluates one non-compose state against `db`, serving the written
// relations from `memo` when the same (state, database-content) pair was
// evaluated before. Updates only write names in dom(state), so a database
// copy with the cached dom relations re-bound reconstructs the full result.
Result<Database> EvalAtomicStateMemo(const HypoExprPtr& state,
                                     const Database& db, MemoCache* memo) {
  const NameSet dom = DomNames(state);
  const uint64_t state_hash = state->Hash();
  const uint64_t db_fp = FingerprintState(db);

  Database out = db;
  bool all_cached = !dom.empty();
  for (const std::string& name : dom) {
    std::shared_ptr<const Relation> hit =
        memo->Lookup(StateEntryKey(state_hash, db_fp, name));
    if (hit == nullptr) {
      all_cached = false;
      break;
    }
    // A hit re-binds the cached relation by reference — no tuple copies.
    HQL_RETURN_IF_ERROR(out.Set(name, hit->SharedCopy()));
  }
  if (all_cached) return out;

  HQL_ASSIGN_OR_RETURN(Database moved, EvalState(state, db));
  for (const std::string& name : dom) {
    // The cache entry and `moved` share the relation's payload, an overlay
    // left unmerged.
    HQL_ASSIGN_OR_RETURN(Relation value, moved.Get(name));
    memo->Insert(StateEntryKey(state_hash, db_fp, name),
                 std::make_shared<const Relation>(std::move(value)));
  }
  return moved;
}

}  // namespace

Result<Database> EvalStateMemo(const HypoExprPtr& state, const Database& db,
                               MemoCache* memo) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  if (memo == nullptr) return EvalState(state, db);
  if (state->kind() == HypoKind::kCompose) {
    HQL_ASSIGN_OR_RETURN(Database mid,
                         EvalStateMemo(state->first(), db, memo));
    return EvalStateMemo(state->second(), mid, memo);
  }
  return EvalAtomicStateMemo(state, db, memo);
}

Result<XsubValue> MaterializeXsub(const HypoExprPtr& state,
                                  const Database& db, const Schema& schema,
                                  MemoCache* memo) {
  (void)schema;  // names are validated by evaluation itself
  HQL_ASSIGN_OR_RETURN(Database moved, EvalStateMemo(state, db, memo));
  XsubValue out;
  for (const std::string& name : DomNames(state)) {
    // Binds by refcount bump; an overlay stays unmerged.
    HQL_ASSIGN_OR_RETURN(Relation value, moved.Get(name));
    out.Bind(name, std::move(value));
  }
  return out;
}

Result<DeltaValue> MaterializeDelta(const HypoExprPtr& state,
                                    const Database& db,
                                    const Schema& schema,
                                    MemoCache* memo) {
  (void)schema;
  HQL_ASSIGN_OR_RETURN(Database moved, EvalStateMemo(state, db, memo));
  DeltaValue out;
  for (const std::string& name : DomNames(state)) {
    HQL_ASSIGN_OR_RETURN(Relation after, moved.Get(name));
    HQL_ASSIGN_OR_RETURN(Relation before, db.Get(name));
    if (before.is_flat() &&
        after.base().payload_id() == before.payload_id()) {
      // The written relation is an overlay on the unchanged base, so its
      // canonical add/del vectors *are* the paper's precise deltas
      // R_D = DB(R) − V and R_I = V − DB(R) — extracted in O(|edge delta|)
      // without touching the base (even when the overlay is empty: the
      // state wrote the relation back unchanged).
      out.Bind(name,
               DeltaPair(Relation::FromSortedUnique(after.arity(),
                                                    after.dels()),
                         Relation::FromSortedUnique(after.arity(),
                                                    after.adds())));
    } else {
      // Representations diverged (consolidation, memo hit, substitution):
      // fall back to a streaming two-sided difference.
      out.Bind(name, DeltaPair(before.DifferenceWith(after),
                               after.DifferenceWith(before)));
    }
  }
  return out;
}

}  // namespace hql
