#ifndef HQL_STORAGE_RELATION_H_
#define HQL_STORAGE_RELATION_H_

// A relation is a set of tuples of a fixed arity, stored as a sorted,
// duplicate-free vector. The sorted representation gives deterministic
// iteration, O(log n) membership, linear-time set algebra, and feeds the
// sort-merge join-when operator of Section 5.5 directly.
//
// Relation is a value-semantic handle over a shared payload that holds the
// vector and its cached content hash. Copies share the payload (a refcount
// bump), so a cached result leaves the engine without a tuple copy and its
// hash is computed once per payload, not once per copy. Insert and Erase
// clone the payload first when it is shared (copy-on-write), so no copy
// ever observes another copy's mutation.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/tuple.h"

namespace hql {

class ColumnBatch;
class RelationIndex;

class Relation {
 public:
  /// An empty relation of the given arity (allocates nothing).
  explicit Relation(size_t arity) : arity_(arity) {}

  // Copies share the payload, and with it the cached hash. The
  // secondary-index and batch caches ride only on moves: a copy starts
  // without them, so copy-then-mutate callers stay trivially safe, while
  // shared bases are passed around as shared_ptr<const Relation> and keep
  // theirs. A moved-from relation is a valid empty relation of the same
  // arity.
  Relation(const Relation& other)
      : arity_(other.arity_), payload_(other.payload_) {}
  Relation(Relation&& other) noexcept = default;
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      arity_ = other.arity_;
      payload_ = other.payload_;
      index_cache_.reset();
      batch_cache_.reset();
    }
    return *this;
  }
  Relation& operator=(Relation&& other) noexcept = default;

  /// Builds from arbitrary tuples (sorted and deduplicated). All tuples must
  /// have the given arity.
  static Relation FromTuples(size_t arity, std::vector<Tuple> tuples);

  /// Builds from tuples already sorted and duplicate-free (checked in debug).
  static Relation FromSortedUnique(size_t arity, std::vector<Tuple> tuples);

  size_t arity() const { return arity_; }
  size_t size() const { return tuples().size(); }
  bool empty() const { return tuples().empty(); }

  /// The sorted tuples. Copies return the same vector until one of them is
  /// mutated.
  const std::vector<Tuple>& tuples() const {
    return payload_ != nullptr ? payload_->tuples : kNoTuples;
  }
  std::vector<Tuple>::const_iterator begin() const { return tuples().begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples().end(); }

  bool Contains(const Tuple& t) const;

  /// Inserts one tuple, keeping the sorted invariant. O(n); intended for
  /// construction and small updates, bulk paths should use FromTuples.
  /// A shared payload is cloned first.
  void Insert(const Tuple& t);

  /// Removes one tuple if present. O(n); a shared payload is cloned first.
  void Erase(const Tuple& t);

  /// Applies a batch delta in one sorted three-way merge:
  /// (this ∖ dels) ∪ adds. Both inputs must be sorted and duplicate-free,
  /// and mutually disjoint (checked in debug builds) — the canonical-overlay
  /// contract of RelationView. O(n + |adds| + |dels|), replacing the
  /// per-tuple Insert/Erase loops (O(n) each) in update application.
  Relation ApplyTuples(const std::vector<Tuple>& adds,
                       const std::vector<Tuple>& dels) const;

  /// Set algebra. Arities must match (checked).
  Relation UnionWith(const Relation& other) const;
  Relation IntersectWith(const Relation& other) const;
  Relation DifferenceWith(const Relation& other) const;

  /// Cartesian product (arity = sum of arities).
  Relation ProductWith(const Relation& other) const;

  /// Content equality; O(1) when both sides share a payload.
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Content hash, O(data) on first call and O(1) afterwards: the result is
  /// cached on the payload, so all copies sharing it pay for one
  /// computation (Insert and Erase start a fresh cache). Safe to call
  /// concurrently.
  uint64_t Hash() const;

  /// "{(1, 'a'), (2, 'b')}".
  std::string ToString() const;

  /// The hash index over `columns` (non-empty, strictly ascending, within
  /// the arity), built on first request and cached on this relation —
  /// install-once and thread-safe, like the view layer's flat cache:
  /// concurrent first requests wait on one build and then share it. All
  /// copy-on-write descendants holding this base by shared_ptr see the
  /// same cache. Defined in storage/index.cc.
  std::shared_ptr<const RelationIndex> IndexOn(
      const std::vector<size_t>& columns) const;

  /// The cached index over `columns` if one was built, else null. Never
  /// builds.
  std::shared_ptr<const RelationIndex> ExistingIndex(
      const std::vector<size_t>& columns) const;

  /// The columnar batch of this relation's tuples (per-column contiguous
  /// arrays), built on first request and cached install-once exactly like
  /// IndexOn: concurrent first requests wait on one transposition and then
  /// share it. Defined in storage/column_batch.cc.
  std::shared_ptr<const ColumnBatch> ColumnarBatch() const;

  /// The cached batch if one was built, else null. Never builds.
  std::shared_ptr<const ColumnBatch> ExistingColumnarBatch() const;

 private:
  struct IndexCache;
  struct BatchCache;

  // The tuple storage shared by copies; written only while exclusively
  // owned (see MutableTuples).
  struct Payload {
    explicit Payload(std::vector<Tuple> sorted) : tuples(std::move(sorted)) {}

    std::vector<Tuple> tuples;  // sorted, unique

    // 0 = not yet computed (a computed hash of 0 is stored as 1; the single
    // collision costs one recomputation, never a wrong answer).
    std::atomic<uint64_t> hash{0};
  };

  static inline const std::vector<Tuple> kNoTuples{};

  /// The tuples for writing: clones a shared payload, clears the hash of an
  /// owned one, and drops the index and batch caches.
  std::vector<Tuple>& MutableTuples();

  size_t arity_;
  std::shared_ptr<Payload> payload_;  // null means empty

  // Lazily allocated map of column set -> shared index; positions stored in
  // an index point into the payload's tuples, so mutators drop the cache.
  // Allocated and accessed only in storage/index.cc (under locks); mutators
  // may reset it directly because mutation already requires exclusive
  // access.
  mutable std::shared_ptr<IndexCache> index_cache_;

  // Lazily allocated columnar image of the tuples; same lifecycle as
  // index_cache_ (dropped on copy, carried on move, reset by mutators).
  // Allocated and accessed only in storage/column_batch.cc.
  mutable std::shared_ptr<BatchCache> batch_cache_;
};

}  // namespace hql

#endif  // HQL_STORAGE_RELATION_H_
