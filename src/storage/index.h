#ifndef HQL_STORAGE_INDEX_H_
#define HQL_STORAGE_INDEX_H_

// Secondary hash indexes over immutable flat relations.
//
// A family of hypothetical states shares almost all of its data with the
// base state, so an index built once on a flat Relation serves every
// overlay over it: probing an overlay returns the base's matching positions
// minus `dels` plus a linear filter of the (small) `adds` —
// ~O(matches + |delta|) for a 10-row overlay on a 100k-row base, where a
// scan pays O(|base|) per query, per alternative.
//
// Indexes are built lazily once per (payload, column set) and cached on the
// relation's shared payload, install-once and thread-safe; every copy of the
// relation and every overlay over it sees the cached index. The IndexAdvisor
// is the simple frequency-driven variant of automated index selection: it
// counts equality-predicate column sets per base and builds an index once a
// set crosses a threshold.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/relation.h"
#include "storage/tuple.h"

namespace hql {

// Index work is charged to the ambient ExecContext's "indexes" counters
// (common/exec_context.h). Install an ExecContextScope and read Snapshot()
// to observe it.

/// An immutable hash index over one or more columns of a base Relation:
/// key tuple -> span of positions into the base's sorted tuple vector.
/// Positions within a span are ascending, so results sliced out of the
/// base stay in relation order. The index holds no reference to the base;
/// the caches that hand indexes out keep base and index alive together.
class RelationIndex {
 public:
  /// Builds over `base`. `columns` must be non-empty, strictly ascending
  /// and within the base's arity (checked). O(|base|).
  RelationIndex(const Relation& base, std::vector<size_t> columns);

  const std::vector<size_t>& columns() const { return columns_; }
  size_t distinct_keys() const { return buckets_.size(); }
  size_t indexed_rows() const { return positions_.size(); }

  /// A borrowed view of the ascending base positions matching one key.
  struct PosSpan {
    const uint32_t* data = nullptr;
    size_t count = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
  };

  /// Positions of base tuples whose key columns equal `key`. Key equality
  /// is Value equality (Compare() == 0), exactly the truth condition of a
  /// ScalarOp::kEq conjunct, so a probe never diverges from a scan.
  PosSpan Probe(const Tuple& key) const;

  /// The key tuple of `t` under this index's columns.
  Tuple KeyOf(const Tuple& t) const;

 private:
  std::vector<size_t> columns_;
  // All positions grouped by key into contiguous runs; buckets_ maps a key
  // to its (offset, length) run. One flat array keeps the whole index in
  // two allocations regardless of key count.
  std::vector<uint32_t> positions_;
  std::unordered_map<Tuple, std::pair<uint32_t, uint32_t>, TupleHash>
      buckets_;
};

using RelationIndexPtr = std::shared_ptr<const RelationIndex>;

/// The planner-facing index policy.
enum class IndexMode {
  kOff,      // never probe: plans and evaluation match the pre-index code
  kManual,   // probe indexes previously built (Database::BuildIndex)
  kAdvisor,  // record predicate columns; auto-build past a threshold
};

const char* IndexModeName(IndexMode mode);

/// Frequency-driven index advisor: records equality-predicate column-set
/// accesses per base relation and builds the index once a column set has
/// been requested `build_threshold` times. Thread-safe; meant to be shared
/// across a session or an EvalAlternatives family so the whole family funds
/// one build. Bases are identified by payload address (Relation::payload_id)
/// — the advisor never extends a base's lifetime, and a recycled address can
/// at worst warm a counter early, never produce a wrong result.
class IndexAdvisor {
 public:
  explicit IndexAdvisor(size_t build_threshold = 2)
      : threshold_(build_threshold < 1 ? 1 : build_threshold) {}

  /// Records one access to (base, columns); returns the index to probe —
  /// an existing one, or a freshly built one when the access count reaches
  /// the threshold — or null while the set is still below threshold.
  RelationIndexPtr Advise(const Relation& base,
                          const std::vector<size_t>& columns);

  struct Stats {
    uint64_t accesses = 0;
    uint64_t builds = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  size_t threshold_;
  std::map<std::pair<const void*, std::vector<size_t>>, size_t> counts_;
  uint64_t accesses_ = 0;
  uint64_t builds_ = 0;
};

/// How the execution kernels resolve indexes; threaded from PlannerOptions
/// through the evaluators. Default-constructed = kOff = exact pre-index
/// behavior.
struct IndexConfig {
  IndexMode mode = IndexMode::kOff;
  /// Consulted in kAdvisor mode; caller-owned, may be shared across
  /// threads. Null degrades kAdvisor to kManual.
  IndexAdvisor* advisor = nullptr;
  /// Bases smaller than this are never probed — scanning them is cheaper
  /// than the probe bookkeeping.
  size_t min_index_rows = 64;

  bool enabled() const { return mode != IndexMode::kOff; }
};

}  // namespace hql

#endif  // HQL_STORAGE_INDEX_H_
