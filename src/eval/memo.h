#ifndef HQL_EVAL_MEMO_H_
#define HQL_EVAL_MEMO_H_

// A thread-safe memoizing subplan cache. Families of hypothetical
// alternatives (Examples 2.1/2.2) share work by construction — sibling
// alternatives compose the same path prefix, lazy rewrites duplicate the
// same state queries into every family member — and the cache turns that
// structural sharing into computational sharing: a subplan evaluated under
// one alternative is served from memory to every other alternative that
// contains it.
//
// Keys pair a *structural* fingerprint of the subplan (Query::Fingerprint)
// with a fingerprint of the evaluation state it ran against (database
// content plus any xsub/delta environment). A mutation to the database
// changes the state fingerprint, so stale results are unreachable rather
// than invalidated — the stale entries simply age out of the LRU.
//
// Next to the results the cache keeps the hybrid planner's decisions under
// the same key discipline (CachedPlan), so a memo-served family of reads
// against one state stops re-planning `Q when path` as well.
//
// The cache is shared across worker threads (opt/session.h's
// EvalAlternatives); all operations take one short critical section.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "ast/forward.h"
#include "common/lru.h"
#include "eval/delta.h"
#include "eval/xsub.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/view.h"

namespace hql {

/// Combined cache key: structural query fingerprint + state fingerprint.
uint64_t MemoKey(uint64_t query_fingerprint, uint64_t state_fingerprint);

/// Content fingerprint of a database state. O(#relations) once every
/// relation's hash is cached (storage/relation.h).
uint64_t FingerprintState(const Database& db);

/// Database state refined by an xsub environment: bindings shadow base
/// relations, so only names *not* bound contribute the base hash.
uint64_t FingerprintState(const Database& db, const XsubValue& env);

/// Database state refined by a delta environment.
uint64_t FingerprintState(const Database& db, const DeltaValue& env);

/// A memoized hybrid planning decision (opt/planner.cc): which route the
/// hybrid strategy takes for one (query, state, planner inputs) and the
/// rewrite-node charge the cold planning made, so that a hit can replay it
/// against the ambient governor.
struct CachedPlan {
  enum class Route {
    kDelta,  // Algorithm HQL-3 on the query itself
    kLazy,   // `query` is pure RA
    kEager,  // `query` keeps `when` nodes for HQL-2 to materialize
  };
  Route route = Route::kDelta;
  /// The PlanHybrid output (null on the delta route).
  QueryPtr query;
  uint64_t rewrite_nodes = 0;
};

class MemoCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    size_t entries = 0;
    uint64_t cached_tuples = 0;  // tuples held across all entries

    double HitRate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// `capacity` bounds the number of subplan results; the least recently
  /// used entry is evicted on overflow. Capacity 0 disables caching (every
  /// Lookup misses, Insert is a no-op), plan entries included.
  explicit MemoCache(size_t capacity = kDefaultCapacity);

  static constexpr size_t kDefaultCapacity = 4096;
  /// Plan entries are few and small next to results, but each pins its
  /// planned query tree; the cap keeps that bounded (DESIGN.md §5).
  static constexpr size_t kPlanCapacity = 256;

  /// The cached relation for `key` (nullptr on miss), refreshing its LRU
  /// position; counts a hit or a miss. Entries are immutable and shared —
  /// a hit costs one refcount bump, never a tuple copy.
  std::shared_ptr<const Relation> Lookup(uint64_t key);

  /// Caches `value` under `key` (overwrites an existing entry), evicting
  /// the LRU entry when full. Null values are ignored.
  void Insert(uint64_t key, std::shared_ptr<const Relation> value);

  /// The plan entry for `key` (nullptr on miss); counts a plan-cache hit
  /// or miss on the cache and on the ambient ExecContext.
  std::shared_ptr<const CachedPlan> LookupPlan(uint64_t key);
  /// Caches `plan` under `key` once the key has missed before: a plan is
  /// admitted on its key's second miss, so one-off (query, state) pairs
  /// never pin a plan tree.
  void InsertPlan(uint64_t key, std::shared_ptr<const CachedPlan> plan);

  /// Drops all entries, results and plans; counters survive (ResetStats
  /// clears those too).
  void Clear();
  void ResetStats();

  Stats stats() const;
  LruStats plan_stats() const { return plans_.stats(); }
  size_t capacity() const { return results_.capacity(); }

 private:
  LruCache<Relation> results_;
  LruCache<CachedPlan> plans_;
  /// Direct-mapped record of the last plan key offered per slot.
  std::array<std::atomic<uint64_t>, kPlanCapacity> plan_keys_seen_{};
};

/// One memoized execution retained for incremental re-evaluation
/// (eval/incremental.h): alongside every operator node's output, the
/// input-relation identities (the leaf RelationViews, i.e. base pointer +
/// canonical overlay) needed to qualify a later hit as *patchable* — same
/// shared base, changed adds/dels. Entries are self-contained: the views
/// keep their bases alive, so an entry stays usable after the LRU subplan
/// cache has evicted the underlying relations.
struct IncrementalEntry {
  /// Leaf relation views as resolved at the recorded execution, by name.
  std::map<std::string, RelationView> inputs;
  /// Output view of every evaluated operator node, keyed by the node's
  /// structural fingerprint (Query::Fingerprint).
  std::unordered_map<uint64_t, RelationView> node_values;
  /// Output view of the plan root.
  RelationView result{0};
  /// State fingerprint the entry was recorded against (FingerprintState).
  uint64_t state_fingerprint = 0;
};

/// A small LRU cache of IncrementalEntry keyed by the *query* fingerprint
/// alone (unlike MemoCache's query x state keys): the point is to find the
/// latest execution of the same plan against a *different* state and patch
/// the difference. Insert overwrites, so Lookup finds the latest execution.
class IncrementalCache : public LruCache<IncrementalEntry> {
 public:
  static constexpr size_t kDefaultCapacity = 64;
  explicit IncrementalCache(size_t capacity = kDefaultCapacity)
      : LruCache(capacity) {}
};

}  // namespace hql

#endif  // HQL_EVAL_MEMO_H_
