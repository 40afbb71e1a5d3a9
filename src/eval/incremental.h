#ifndef HQL_EVAL_INCREMENTAL_H_
#define HQL_EVAL_INCREMENTAL_H_

// Incremental re-evaluation of cached query results under scenario edits.
//
// Whole-result memoization (eval/memo.h) amortizes work across a family of
// queries against one state, but the moment a session tweaks its
// hypothetical delta by one tuple the state fingerprint changes and every
// cached result is recomputed from scratch. This layer goes one step
// further: when a query re-executes against a state whose relations differ
// from a memoized execution only by a small *overlay edit* — same shared
// base relation, changed adds/dels — the delta-of-delta
// (OverlayEditBetween, storage/relation.h) is propagated through per-operator
// delta rules to patch the cached result in time proportional to the edit,
// not the data:
//
//   R (leaf)   the edit itself (computed overlay-to-overlay, O(|edit|))
//   sigma_p    adds' = sigma_p(adds), dels' = sigma_p(dels)
//   pi_X       adds' = pi(adds) - old_out; deletion candidates pi(dels)
//              keep only those with no remaining support (one streaming
//              scan of the new child, skipped when dels is empty)
//   join/x     adds' = theta((adds1 x new2) u (new1 x adds2)),
//              dels' = theta((dels1 x old2) u (old1 x dels2)); the *edit*
//              side probes the cached other side — through the base's
//              secondary index when one exists, else one hash-keyed scan
//   union      adds' = (adds1 u adds2) - old_out,
//              dels' = {t in dels1 : t not in new2} u (symmetric)
//   intersect  adds' = {t in adds1 : t in new2} u (symmetric),
//              dels' = {t in dels1 u dels2 : t in old_out}
//   minus      adds' = {t in adds1 : t not in new2} u
//                      {t in dels2 : t in new1},
//              dels' = {t in dels1 u adds2 : t in old_out}
//   gamma      not incrementalizable: fall back to full evaluation
//
// Each node's new output is old_output.ApplyDelta(adds', dels') — an O(|
// edit|) overlay composed onto the cached value's flat base, so a patched
// result is never more than one overlay deep. Results are bit-identical to
// full re-evaluation; anything the rules cannot handle (aggregates, a
// consolidation that replaced the shared base, a node the recording did not
// cover) degrades to full evaluation, never to a wrong answer.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ast/query.h"
#include "common/result.h"
#include "eval/memo.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace hql {

/// Planner knob: kOff disables the machinery entirely; kAuto patches when a
/// cached execution qualifies and the estimator prefers the patch.
enum class IncrementalMode {
  kOff,
  kAuto,
};

const char* IncrementalModeName(IncrementalMode mode);

/// The incremental policy threaded from PlannerOptions into execution.
struct IncrementalConfig {
  IncrementalMode mode = IncrementalMode::kOff;
  /// Caller-owned entry store; null disables incremental execution even in
  /// kAuto mode (there is nowhere to remember executions between calls).
  IncrementalCache* cache = nullptr;
  /// Edits larger than this fraction of the changed relations' content fall
  /// back to full evaluation (the incremental break-even mirror of
  /// Relation::kConsolidateFraction).
  double max_edit_fraction = 0.10;

  bool enabled() const {
    return mode != IncrementalMode::kOff && cache != nullptr;
  }
};

/// Collects one execution's per-node outputs and leaf inputs while the
/// RA evaluator runs (hooked via EvalMemo::recorder), producing the
/// IncrementalEntry a later execution patches against. Not thread-safe: one
/// recorder observes one single-threaded evaluation.
class IncrementalRecorder {
 public:
  void RecordNode(uint64_t fingerprint, const Relation& value) {
    entry_.node_values.insert_or_assign(fingerprint, value);
  }
  void RecordInput(const std::string& name, const Relation& value) {
    entry_.inputs.insert_or_assign(name, value);
  }

  /// Finalizes the entry with the plan root's output and the state
  /// fingerprint the execution ran against.
  std::shared_ptr<const IncrementalEntry> TakeEntry(
      Relation result, uint64_t state_fingerprint);

 private:
  IncrementalEntry entry_;
};

/// The qualification of a cached execution against the current database:
/// the entry, the per-relation delta-of-delta edits, and the sizes the
/// gates compare.
struct IncrementalAttempt {
  /// The cached execution (null = cold miss, nothing to patch).
  std::shared_ptr<const IncrementalEntry> entry;
  /// Per leaf relation: the edit taking the recorded input to the current
  /// one. Only names whose content changed appear.
  std::map<std::string, RelationEdit> edits;
  /// Current values of *all* leaf relations of the query.
  std::map<std::string, Relation> inputs;
  /// Total changed tuples across all edits.
  size_t edit_tuples = 0;
  /// Total current cardinality of the relations that changed.
  size_t changed_relation_tuples = 0;
  /// True when every leaf qualified: recorded input present and sharing
  /// the current input's base (OverlayEditBetween succeeded). False means a
  /// consolidation or swap replaced a base — full evaluation is required.
  bool patchable = false;
};

/// Qualifies the cached execution of `query` (by structural fingerprint)
/// against `db`: resolves every leaf, computes the delta-of-delta per leaf,
/// and reports whether a patch is possible. Never evaluates the query.
Result<IncrementalAttempt> ComputeIncrementalEdits(const QueryPtr& query,
                                                   const Database& db,
                                                   IncrementalCache* cache);

/// Patches the cached result by propagating `attempt`'s edits through the
/// operator delta rules, refreshes the cache entry for the new state, and
/// returns the new root. Charges the ambient governor per patched
/// tuple and the ambient ExecContext's incremental counters; records an
/// "incremental-patch" TraceSpan. Requires attempt.patchable.
///
/// A kUnimplemented status means the plan contains a non-incrementalizable
/// operator or an unrecorded node: the caller falls back to full
/// evaluation. Any other error (governor trip, cancellation) is final.
Result<Relation> ApplyIncrementalPatch(const QueryPtr& query,
                                       const IncrementalAttempt& attempt,
                                       uint64_t new_state_fingerprint,
                                       IncrementalCache* cache);

}  // namespace hql

#endif  // HQL_EVAL_INCREMENTAL_H_
