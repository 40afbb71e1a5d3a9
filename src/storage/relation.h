#ifndef HQL_STORAGE_RELATION_H_
#define HQL_STORAGE_RELATION_H_

// A relation is a set of tuples of a fixed arity. Its content is either a
// sorted, duplicate-free vector (a flat relation) or an overlay (base ∖ dels)
// ∪ adds over a shared flat base: the (R_I, R_D) pair of the paper's
// Section 5.5, with R_D = dels and R_I = adds. A flat relation is one with an
// empty delta.
//
// Relation is a value-semantic handle over a shared payload. Copies share
// the payload (a refcount bump), so a cached result leaves the engine
// without a tuple copy, and everything computed once per payload is shared
// by every copy: the content hash, the secondary indexes and the columnar
// batch. Insert and Erase clone a shared payload first (copy-on-write), so no
// copy ever observes another copy's mutation, and a clone starts with no
// caches.
//
// An overlay is canonical against its base:
//
//   * dels ⊆ base     (every del is actually present in the base)
//   * adds ∩ base = ∅ (no add is already in the base)
//   * adds ∩ dels = ∅ (follows from the two above)
//
// so its size |base| − |dels| + |adds| and its content hash are known at
// construction, Scan streams it as a two-way merge that skips deletions, and
// two overlays over the same base differ by an edit computed from their
// deltas alone (OverlayEditBetween). An overlay is always one level deep:
// ApplyDelta composes onto the flat base and never stacks overlays, and it
// consolidates into a fresh flat relation once the delta passes
// kConsolidateFraction of the base (the Heraclitus break-even: past it,
// merging on every scan costs more than one materialization).
//
// Kernels read an overlay through Scan, Contains, base(), adds() and dels(),
// none of which merges. Only tuples() (and begin()/end()) merge, once per
// payload and thread-safely; the merged vector is kept beside the base and
// delta, so the split stays readable after the merge.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/tuple.h"

namespace hql {

class ColumnBatch;
class RelationIndex;

// Copy-on-write work is charged to the ambient ExecContext
// (common/exec_context.h): views_created and view_tuples_shared when
// ApplyDelta yields an overlay or SharedCopy binds a relation by reference,
// view_consolidations when ApplyDelta consolidates, and view_tuples_copied
// for every tuple a consolidation or a merge writes.

class Relation {
 public:
  /// Fraction of |base| that |adds| + |dels| must exceed before ApplyDelta
  /// consolidates instead of composing the overlay.
  static constexpr double kConsolidateFraction = 0.25;

  /// An empty relation of the given arity (allocates nothing). Copies and
  /// moves are the defaults: a moved-from relation is a valid empty
  /// relation of the same arity.
  explicit Relation(size_t arity) : arity_(arity) {}

  /// Builds from arbitrary tuples (sorted and deduplicated). All tuples must
  /// have the given arity.
  static Relation FromTuples(size_t arity, std::vector<Tuple> tuples);

  /// Builds from tuples already sorted and duplicate-free (checked in debug).
  static Relation FromSortedUnique(size_t arity, std::vector<Tuple> tuples);

  /// rel.ApplyDelta(adds, dels) that never consolidates, whatever the
  /// delta's size: the result is an overlay over rel's flat base unless the
  /// composed delta is empty (it is then that base). For callers that must
  /// keep the base, and the index and batch cached on it: the select-when
  /// and join-when leaves of eval_filter_d, tests and benches.
  static Relation Overlay(const Relation& rel, std::vector<Tuple> adds,
                          std::vector<Tuple> dels);

  size_t arity() const { return arity_; }
  /// O(1); never merges an overlay.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// True when the relation has no overlay.
  bool is_flat() const;
  /// The flat relation an overlay sits on; the relation itself when flat.
  const Relation& base() const;
  /// The overlay's canonical adds and dels, sorted; empty when flat.
  const std::vector<Tuple>& adds() const;
  const std::vector<Tuple>& dels() const;
  size_t delta_size() const { return adds().size() + dels().size(); }

  /// A copy (a refcount bump) that an evaluator binds into a state or an
  /// answer in place of a tuple copy: a memo hit, an xsub binding. Counted
  /// in the ambient ExecContext as one views_created and size()
  /// view_tuples_shared.
  Relation SharedCopy() const;

  /// The identity of the shared payload: equal for a relation and its
  /// copies, null for an empty relation without one. Never dereferenced.
  const void* payload_id() const { return payload_.get(); }

  /// The sorted tuples. Copies return the same vector until one of them is
  /// mutated. Merges an overlay on the first call (thread-safe, once per
  /// payload); kernels use Scan instead.
  const std::vector<Tuple>& tuples() const;
  std::vector<Tuple>::const_iterator begin() const { return tuples().begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples().end(); }

  /// Calls fn(t) on every tuple in order without merging an overlay. A flat
  /// (or already merged) relation is a plain vector loop. `fn` may return
  /// void, or bool to stop early on false; Scan returns false iff stopped.
  /// References passed to `fn` stay valid as long as the relation does.
  template <typename Fn>
  bool Scan(Fn&& fn) const;

  /// Membership; O(log n) and never merges an overlay.
  bool Contains(const Tuple& t) const;

  /// (this ∖ dels) ∪ adds, adds winning on overlap (the update semantics
  /// (DB(R) − D) ∪ I). The inputs may be unsorted and need not be
  /// canonical. The result composes onto this relation's flat base in
  /// O(|delta| log |base|) without scanning the base, and is flat when the
  /// composed delta is empty (it then shares the base's payload) or passes
  /// kConsolidateFraction × |base| (it is then merged into a fresh payload).
  Relation ApplyDelta(std::vector<Tuple> adds, std::vector<Tuple> dels) const;

  /// Inserts one tuple, keeping the sorted invariant. O(n); intended for
  /// construction and small updates, bulk paths should use FromTuples.
  /// A shared payload or an overlay is cloned into a private flat one first.
  void Insert(const Tuple& t);

  /// Removes one tuple if present. O(n); clones like Insert.
  void Erase(const Tuple& t);

  /// (this ∖ dels) ∪ adds merged into a fresh flat relation in one pass.
  /// Both inputs must be sorted, duplicate-free and mutually disjoint
  /// (checked in debug builds); they need not be canonical.
  Relation ApplyTuples(const std::vector<Tuple>& adds,
                       const std::vector<Tuple>& dels) const;

  /// Set algebra by streaming merges over both operands (overlays are
  /// never merged). Arities must match (checked). Uncharged: the output is
  /// bounded by the inputs.
  Relation UnionWith(const Relation& other) const;
  Relation IntersectWith(const Relation& other) const;
  Relation DifferenceWith(const Relation& other) const;

  /// Cartesian product (arity = sum of arities). The one product kernel:
  /// it ticks the ambient governor per pair and charges it per output
  /// tuple, stopping with truncated output on a trip (the Status-returning
  /// caller discards it), and reserves no more than the tuple budget left.
  Relation ProductWith(const Relation& other) const;

  /// Content equality; O(1) when both sides share a payload or differ in
  /// size, else one streaming compare (never merges).
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Order-independent content hash of the tuple set: an arity seed plus
  /// the sum, mod 2^64, of HashTerm(t) over the tuples. O(data) on first
  /// call and O(1) afterwards: the result is cached on the payload, so all
  /// copies sharing it pay for one computation (Insert and Erase start a
  /// fresh cache). An overlay's hash is set at construction from its base's
  /// hash and its delta. Safe to call concurrently.
  uint64_t Hash() const;

  /// One tuple's summand in Hash(): a 64-bit finalizer of HashTuple(t).
  static uint64_t HashTerm(const Tuple& t);

  /// The hash of (R ∖ dels) ∪ adds given `hash` = R.Hash(), for an overlay
  /// canonical against R. O(|adds| + |dels|).
  static uint64_t HashAfterDelta(uint64_t hash, const std::vector<Tuple>& adds,
                                 const std::vector<Tuple>& dels);

  /// "{(1, 'a'), (2, 'b')}".
  std::string ToString() const;

  /// The hash index over `columns` (non-empty, strictly ascending, within
  /// the arity), built over tuples() on first request and cached on the
  /// payload — install-once and thread-safe: concurrent first requests wait
  /// on one build and then share it. Every copy of the relation, and every
  /// overlay whose base this is, sees the same cache. Defined in
  /// storage/index.cc.
  std::shared_ptr<const RelationIndex> IndexOn(
      const std::vector<size_t>& columns) const;

  /// The cached index over `columns` if one was built, else null. Never
  /// builds.
  std::shared_ptr<const RelationIndex> ExistingIndex(
      const std::vector<size_t>& columns) const;

  /// The columnar batch of the tuples (per-column contiguous arrays), built
  /// on first request and cached on the payload exactly like IndexOn.
  /// Defined in storage/column_batch.cc.
  std::shared_ptr<const ColumnBatch> ColumnarBatch() const;

  /// The cached batch if one was built, else null. Never builds.
  std::shared_ptr<const ColumnBatch> ExistingColumnarBatch() const;

  /// Input iterator over a canonical overlay's content in tuple order: a
  /// two-way merge of base and adds that skips dels. Never merges. (Input,
  /// not forward, so range constructors take one pass instead of counting
  /// the merge first.)
  class OverlayIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    OverlayIterator() = default;
    const Tuple& operator*() const {
      return from_base_ ? (*base_)[bi_] : (*adds_)[ai_];
    }
    const Tuple* operator->() const { return &**this; }
    OverlayIterator& operator++() {
      if (from_base_) {
        ++bi_;
      } else {
        ++ai_;
      }
      Seek();
      return *this;
    }
    OverlayIterator operator++(int) {
      OverlayIterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const OverlayIterator& o) const {
      return bi_ == o.bi_ && ai_ == o.ai_;
    }
    bool operator!=(const OverlayIterator& o) const { return !(*this == o); }

   private:
    friend class Relation;
    OverlayIterator(const std::vector<Tuple>* base,
                    const std::vector<Tuple>* adds,
                    const std::vector<Tuple>* dels, bool at_end)
        : base_(base), adds_(adds), dels_(dels) {
      if (at_end) {
        bi_ = base->size();
        ai_ = adds->size();
        di_ = dels->size();
      }
      Seek();
    }
    // Skips deleted base tuples and picks the smaller head. Canonical dels
    // are a sorted subset of the base, so the next del is never below the
    // current base tuple and one equality test suffices.
    void Seek() {
      while (bi_ < base_->size() && di_ < dels_->size() &&
             CompareTuples((*dels_)[di_], (*base_)[bi_]) == 0) {
        ++bi_;
        ++di_;
      }
      from_base_ = bi_ < base_->size() &&
                   (ai_ >= adds_->size() ||
                    CompareTuples((*base_)[bi_], (*adds_)[ai_]) < 0);
    }

    const std::vector<Tuple>* base_ = nullptr;
    const std::vector<Tuple>* adds_ = nullptr;
    const std::vector<Tuple>* dels_ = nullptr;
    size_t bi_ = 0;
    size_t ai_ = 0;
    size_t di_ = 0;
    bool from_base_ = false;
  };

  /// Calls fn(first, last) with an iterator range over the content: vector
  /// iterators for a flat or merged relation, OverlayIterators otherwise.
  /// For streaming algorithms that walk two relations at once.
  template <typename Fn>
  decltype(auto) WithRange(Fn&& fn) const;

 private:
  struct Payload;
  struct IndexCache;
  struct BatchCache;

  /// Normalizes (adds, dels) and composes them with this relation's delta
  /// into one canonical against base(). O(|delta| log |base|).
  void ComposeDelta(std::vector<Tuple>* adds, std::vector<Tuple>* dels) const;

  /// Overlay for a delta already canonical against the flat `base`
  /// (checked in debug). O(|adds| + |dels|) given the base's cached hash.
  static Relation CanonicalOverlay(const Relation& base,
                                   std::vector<Tuple> adds,
                                   std::vector<Tuple> dels);

  /// The payload's merged tuples, or null while an overlay is unmerged.
  const std::vector<Tuple>* FlatTuples() const;

  /// Merges an overlay payload's content into its tuples, once. Charged to
  /// the ambient ExecContext as view_tuples_copied.
  static void Settle(Payload& payload);

  /// The tuples for writing: clones a shared or overlay payload, and clears
  /// the hash and caches of an owned one.
  std::vector<Tuple>& MutableTuples();

  size_t arity_;
  std::shared_ptr<Payload> payload_;  // null means empty
};

// The storage shared by copies. A flat payload's tuples are written only
// while exclusively owned (see MutableTuples). An overlay payload's base and
// delta never change; its tuples are written once, by Settle.
struct Relation::Payload {
  explicit Payload(std::vector<Tuple> sorted)
      : tuples(std::move(sorted)), base(0) {}
  Payload(Relation flat_base, std::vector<Tuple> overlay_adds,
          std::vector<Tuple> overlay_dels, uint64_t content_hash)
      : base(std::move(flat_base)),
        adds(std::move(overlay_adds)),
        dels(std::move(overlay_dels)),
        overlay(true),
        overlay_size(base.size() - dels.size() + adds.size()),
        hash(content_hash),
        hash_known(true) {}

  std::vector<Tuple> tuples;  // sorted, unique; an overlay's once merged

  // Overlay only, and immutable, so readers test them without a lock.
  const Relation base;
  const std::vector<Tuple> adds;
  const std::vector<Tuple> dels;
  const bool overlay = false;
  const size_t overlay_size = 0;

  // Set by Settle once `tuples` holds an overlay's merge (release/acquire).
  std::once_flag merge_once;
  std::atomic<bool> merged{false};

  // `hash` is valid once `hash_known` is set (release/acquire).
  std::atomic<uint64_t> hash{0};
  std::atomic<bool> hash_known{false};

  // Lazily allocated caches derived from `tuples`. Positions stored in an
  // index point into `tuples`, so an owned mutation resets both. Allocated
  // and read under a global mutex in storage/index.cc and
  // storage/column_batch.cc.
  std::shared_ptr<IndexCache> index_cache;
  std::shared_ptr<BatchCache> batch_cache;
};

inline size_t Relation::size() const {
  if (payload_ == nullptr) return 0;
  return payload_->overlay ? payload_->overlay_size : payload_->tuples.size();
}

inline bool Relation::is_flat() const {
  return payload_ == nullptr || !payload_->overlay;
}

inline const Relation& Relation::base() const {
  return is_flat() ? *this : payload_->base;
}

inline const std::vector<Tuple>& Relation::adds() const {
  static const std::vector<Tuple> kNone;
  return is_flat() ? kNone : payload_->adds;
}

inline const std::vector<Tuple>& Relation::dels() const {
  static const std::vector<Tuple> kNone;
  return is_flat() ? kNone : payload_->dels;
}

inline const std::vector<Tuple>* Relation::FlatTuples() const {
  static const std::vector<Tuple> kNone;
  if (payload_ == nullptr) return &kNone;
  if (!payload_->overlay ||
      payload_->merged.load(std::memory_order_acquire)) {
    return &payload_->tuples;
  }
  return nullptr;
}

inline const std::vector<Tuple>& Relation::tuples() const {
  if (const std::vector<Tuple>* flat = FlatTuples()) return *flat;
  Settle(*payload_);
  return payload_->tuples;
}

template <typename Fn>
decltype(auto) Relation::WithRange(Fn&& fn) const {
  if (const std::vector<Tuple>* flat = FlatTuples()) {
    return fn(flat->begin(), flat->end());
  }
  const Payload& p = *payload_;
  const std::vector<Tuple>* base = &p.base.tuples();
  return fn(OverlayIterator(base, &p.adds, &p.dels, false),
            OverlayIterator(base, &p.adds, &p.dels, true));
}

template <typename Fn>
bool Relation::Scan(Fn&& fn) const {
  return WithRange([&fn](auto first, auto last) {
    for (; first != last; ++first) {
      if constexpr (std::is_void_v<decltype(fn(*first))>) {
        fn(*first);
      } else {
        if (!fn(*first)) return false;
      }
    }
    return true;
  });
}

/// The set difference between two relation states: applying the edit to the
/// first state yields the second, (from ∖ dels) ∪ adds = to. Canonical with
/// respect to the content of the first state (dels ⊆ from, adds ∩ from = ∅,
/// adds ∩ dels = ∅), so |adds| + |dels| is the exact number of tuples that
/// changed.
struct RelationEdit {
  std::vector<Tuple> adds;  // sorted, unique, disjoint from `from`'s content
  std::vector<Tuple> dels;  // sorted, unique, subset of `from`'s content

  bool empty() const { return adds.empty() && dels.empty(); }
  size_t size() const { return adds.size() + dels.size(); }
};

/// The edit taking `from`'s content to `to`'s when both sit on the same base
/// payload (either may be the flat base itself), computed from the two
/// deltas alone in O(|from.delta| + |to.delta|) — the base is never scanned.
/// Copies of a relation share its payload, so the base is found across
/// copies. Returns nullopt when the bases differ (e.g. a consolidation in
/// between produced a fresh base): no cheap edit exists, and callers fall
/// back to full evaluation.
std::optional<RelationEdit> OverlayEditBetween(const Relation& from,
                                               const Relation& to);

}  // namespace hql

#endif  // HQL_STORAGE_RELATION_H_
