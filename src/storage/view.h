#ifndef HQL_STORAGE_VIEW_H_
#define HQL_STORAGE_VIEW_H_

// Copy-on-write relation storage: a RelationView represents the state
// (base ∖ dels) ∪ adds without materializing it. The base is an immutable,
// shared Relation; the overlay is a pair of small sorted tuple vectors held
// in canonical form:
//
//   * dels ⊆ base     (every del is actually present in the base)
//   * adds ∩ base = ∅ (no add is already in the base)
//   * adds ∩ dels = ∅ (follows from the two above)
//
// Canonical form makes the exact cardinality |base| − |dels| + |adds|
// available in O(1), makes the merge iterator a plain two-way merge that
// skips deletions, and is precisely the (R_I, R_D) pair of the paper's
// Section 5.5: R_D = DB(R) − V and R_I = V − DB(R).
//
// Deriving a hypothetical state from a parent is ApplyDelta, which composes
// overlays in O(|delta|) — never touching the base — until the accumulated
// overlay crosses a fraction of the base size, at which point the view
// consolidates into a fresh flat base (the Heraclitus break-even: once the
// delta is a sizable fraction of the relation, merging on every scan costs
// more than one materialization).

#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "storage/tuple.h"

namespace hql {

using RelationPtr = std::shared_ptr<const Relation>;

// Copy-on-write work is charged to the ambient ExecContext
// (common/exec_context.h): views_created, view_consolidations,
// view_tuples_shared, view_tuples_copied. Install an ExecContextScope and
// read Snapshot() to observe it.

class RelationView {
 public:
  /// Fraction of |base| that |adds| + |dels| must exceed before ApplyDelta
  /// consolidates instead of stacking the overlay.
  static constexpr double kConsolidateFraction = 0.25;

  /// An empty flat view of the given arity.
  explicit RelationView(size_t arity);

  /// A flat view wrapping a freshly computed relation (takes ownership; not
  /// counted as sharing).
  explicit RelationView(Relation rel);

  /// A flat view sharing `base` (counted in ExecStats::view_tuples_shared).
  explicit RelationView(RelationPtr base);

  /// An overlay over `base`. `adds`/`dels` may be unsorted and need not be
  /// canonical; they are normalized against the base here. The resulting
  /// content is (base ∖ dels) ∪ adds with adds winning on overlap, i.e. a
  /// tuple in both is present. An empty normalized overlay yields a flat
  /// view of `base`.
  static RelationView Overlay(RelationPtr base, std::vector<Tuple> adds,
                              std::vector<Tuple> dels);

  size_t arity() const { return arity_; }
  /// Exact cardinality, O(1): |base| − |dels| + |adds|.
  size_t size() const { return base_->size() - dels_.size() + adds_.size(); }
  bool empty() const { return size() == 0; }

  bool is_flat() const { return adds_.empty() && dels_.empty(); }
  size_t delta_size() const { return adds_.size() + dels_.size(); }

  const RelationPtr& base() const { return base_; }
  const std::vector<Tuple>& adds() const { return adds_; }
  const std::vector<Tuple>& dels() const { return dels_; }

  bool Contains(const Tuple& t) const;

  /// Derives (this ∖ dels) ∪ adds as a new view, in O(|existing delta| +
  /// |new delta|) — adds win on add/del overlap, mirroring the update
  /// semantics (DB(R) − D) ∪ I. Consolidates into a flat view when the
  /// composed overlay exceeds `consolidate_fraction` × |base| (pass a large
  /// fraction to force overlay stacking, 0 to force consolidation).
  RelationView ApplyDelta(std::vector<Tuple> adds, std::vector<Tuple> dels,
                          double consolidate_fraction =
                              kConsolidateFraction) const;

  /// The content as a flat Relation. A flat view returns a copy of its
  /// base, which shares the base's tuple payload (counted as shared). An
  /// overlay returns a deferred relation (Relation::Deferred) in
  /// O(|delta|): its size() and Hash() are known at once, and the merge runs
  /// (counted as copied) only when its tuples are first read.
  Relation Materialize() const;

  /// The merged content as a shared flat relation. Flat views return their
  /// base (refcount bump); overlays consolidate once and cache the result —
  /// copies of this view share the cache, so repeated access is O(1).
  /// Thread-safe; the returned pointer is never invalidated.
  RelationPtr Shared() const;

  /// Shorthand for *Shared() — a flat reference valid as long as any copy of
  /// this view (or the returned Shared() pointer) is alive.
  const Relation& Flat() const { return *Shared(); }

  /// Content equality across representations (merge-compares, no
  /// materialization).
  bool ContentEquals(const RelationView& other) const;

  /// The content hash: equal to Relation::Hash() of the merged content,
  /// whatever the base/delta split. O(|delta|) given the base's cached hash.
  uint64_t Hash() const;

  std::string ToString() const;

  /// Merge iterator over the view content in tuple order. Skips deleted base
  /// tuples and interleaves adds; O(1) amortized per step.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    const Tuple& operator*() const;
    const Tuple* operator->() const { return &**this; }
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const {
      return bi_ == other.bi_ && ai_ == other.ai_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class RelationView;
    const_iterator(const RelationView* view, size_t bi, size_t ai);
    void SkipDeleted();

    const RelationView* view_ = nullptr;
    size_t bi_ = 0;  // cursor into base tuples
    size_t di_ = 0;  // cursor into dels
    size_t ai_ = 0;  // cursor into adds
  };

  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const {
    return const_iterator(this, base_->size(), adds_.size());
  }

 private:
  struct FlatCache {
    std::mutex mu;
    RelationPtr flat;
  };

  RelationView(size_t arity, RelationPtr base, std::vector<Tuple> adds,
               std::vector<Tuple> dels);

  size_t arity_;
  RelationPtr base_;          // never null
  std::vector<Tuple> adds_;   // sorted, unique, disjoint from base
  std::vector<Tuple> dels_;   // sorted, unique, subset of base

  // Lazily consolidated flat form; allocated only for overlays and shared
  // across copies so one consolidation serves every copy of the view. The
  // installed relation is never replaced (install-once), so references
  // handed out by Flat() stay valid for the cache's lifetime.
  std::shared_ptr<FlatCache> flat_cache_;
};

/// The set difference between two relation states: applying the edit to the
/// first state yields the second, (from ∖ dels) ∪ adds = to. Canonical with
/// respect to the *content* of the first state (dels ⊆ from, adds ∩ from =
/// ∅, adds ∩ dels = ∅), so |adds| + |dels| is the exact number of tuples
/// that changed.
struct RelationEdit {
  std::vector<Tuple> adds;  // sorted, unique, disjoint from `from`'s content
  std::vector<Tuple> dels;  // sorted, unique, subset of `from`'s content

  bool empty() const { return adds.empty() && dels.empty(); }
  size_t size() const { return adds.size() + dels.size(); }
};

/// The delta-of-delta between two canonical overlays sharing the *same*
/// base relation (pointer identity): the edit taking `from`'s content to
/// `to`'s content, computed from the two overlays alone in O(|from.delta| +
/// |to.delta|) — the base is never scanned. Returns nullopt when the views
/// do not share a base (e.g. a consolidation in between produced a fresh
/// base), in which case no cheap edit exists and callers fall back to full
/// evaluation.
std::optional<RelationEdit> OverlayEditBetween(const RelationView& from,
                                               const RelationView& to);

/// Set algebra on views without materializing the operands: streaming merges
/// over both merge iterators. Arities must match (checked).
Relation ViewUnion(const RelationView& a, const RelationView& b);
Relation ViewIntersect(const RelationView& a, const RelationView& b);
Relation ViewDifference(const RelationView& a, const RelationView& b);
Relation ViewProduct(const RelationView& a, const RelationView& b);

}  // namespace hql

#endif  // HQL_STORAGE_VIEW_H_
