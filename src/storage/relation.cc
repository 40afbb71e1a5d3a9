#include "storage/relation.h"

#include <algorithm>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace hql {

namespace {

// (base ∖ dels) ∪ adds in one sorted three-way merge.
std::vector<Tuple> MergeOverlay(const std::vector<Tuple>& base,
                                const std::vector<Tuple>& adds,
                                const std::vector<Tuple>& dels) {
  std::vector<Tuple> out;
  out.reserve(base.size() + adds.size());
  size_t bi = 0, ai = 0, di = 0;
  while (bi < base.size() || ai < adds.size()) {
    // Drop base tuples matched by the deletion cursor.
    if (bi < base.size() && di < dels.size()) {
      int cmp = CompareTuples(dels[di], base[bi]);
      if (cmp < 0) {
        ++di;
        continue;
      }
      if (cmp == 0) {
        ++bi;
        ++di;
        continue;
      }
    }
    if (bi >= base.size()) {
      out.push_back(adds[ai++]);
    } else if (ai >= adds.size()) {
      out.push_back(base[bi++]);
    } else {
      int cmp = CompareTuples(base[bi], adds[ai]);
      if (cmp < 0) {
        out.push_back(base[bi++]);
      } else if (cmp > 0) {
        out.push_back(adds[ai++]);
      } else {
        out.push_back(base[bi++]);
        ++ai;  // add already present: keep one copy
      }
    }
  }
  return out;
}

}  // namespace

Relation Relation::FromTuples(size_t arity, std::vector<Tuple> tuples) {
  HQL_FAIL_POINT(kFailPointTupleAppend);
  for (const Tuple& t : tuples) {
    HQL_CHECK_MSG(t.size() == arity, "tuple arity mismatch");
  }
  std::sort(tuples.begin(), tuples.end(), TupleLess());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  Relation r(arity);
  if (!tuples.empty()) {
    r.payload_ = std::make_shared<Payload>(std::move(tuples));
  }
  return r;
}

Relation Relation::FromSortedUnique(size_t arity, std::vector<Tuple> tuples) {
  HQL_FAIL_POINT(kFailPointTupleAppend);
#ifndef NDEBUG
  for (size_t i = 0; i < tuples.size(); ++i) {
    HQL_CHECK(tuples[i].size() == arity);
    if (i > 0) HQL_CHECK(CompareTuples(tuples[i - 1], tuples[i]) < 0);
  }
#endif
  Relation r(arity);
  if (!tuples.empty()) {
    r.payload_ = std::make_shared<Payload>(std::move(tuples));
  }
  return r;
}

Relation Relation::Deferred(std::shared_ptr<const Relation> base,
                            std::vector<Tuple> adds, std::vector<Tuple> dels) {
  HQL_CHECK(dels.size() <= base->size());
  size_t size = base->size() - dels.size() + adds.size();
  Relation r(base->arity());
  if (size == 0) return r;  // nothing to merge, and no base to keep alive
  uint64_t hash = HashAfterDelta(base->Hash(), adds, dels);
  r.payload_ = std::make_shared<Payload>(
      PendingMerge{std::move(base), std::move(adds), std::move(dels)}, size,
      hash);
  return r;
}

void Relation::Settle(Payload& payload) {
  std::call_once(payload.settled, [&payload] {
    HQL_FAIL_POINT(kFailPointTupleAppend);
    PendingMerge& merge = payload.pending;
    payload.tuples = MergeOverlay(merge.base->tuples(), merge.adds, merge.dels);
    merge = PendingMerge();  // releases the base
    AmbientExecContext().Add(ExecCounter::kViewTuplesCopied,
                             payload.tuples.size());
  });
}

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(begin(), end(), t, TupleLess());
}

std::vector<Tuple>& Relation::MutableTuples() {
  if (payload_ == nullptr) {
    payload_ = std::make_shared<Payload>(std::vector<Tuple>());
  } else if (payload_->deferred || payload_.use_count() > 1) {
    payload_ = std::make_shared<Payload>(tuples());
  } else {
#ifndef __SANITIZE_THREAD__  // TSan does not model fences
    // Sole owner. Pairs with the release decrement of a copy dropped on
    // another thread, so that copy's reads happen before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    payload_->hash_known.store(false, std::memory_order_relaxed);
  }
  index_cache_.reset();
  batch_cache_.reset();
  return payload_->tuples;
}

void Relation::Insert(const Tuple& t) {
  HQL_CHECK_MSG(t.size() == arity_, "tuple arity mismatch");
  auto it = std::lower_bound(begin(), end(), t, TupleLess());
  if (it != end() && CompareTuples(*it, t) == 0) return;
  // A clone invalidates `it`, so carry the position instead.
  size_t pos = it - begin();
  std::vector<Tuple>& tuples = MutableTuples();
  tuples.insert(tuples.begin() + pos, t);
}

void Relation::Erase(const Tuple& t) {
  auto it = std::lower_bound(begin(), end(), t, TupleLess());
  if (it == end() || CompareTuples(*it, t) != 0) return;
  size_t pos = it - begin();
  std::vector<Tuple>& tuples = MutableTuples();
  tuples.erase(tuples.begin() + pos);
}

Relation Relation::ApplyTuples(const std::vector<Tuple>& adds,
                               const std::vector<Tuple>& dels) const {
#ifndef NDEBUG
  for (size_t i = 0; i < adds.size(); ++i) {
    HQL_CHECK(adds[i].size() == arity_);
    if (i > 0) HQL_CHECK(CompareTuples(adds[i - 1], adds[i]) < 0);
  }
  for (size_t i = 0; i < dels.size(); ++i) {
    HQL_CHECK(dels[i].size() == arity_);
    if (i > 0) HQL_CHECK(CompareTuples(dels[i - 1], dels[i]) < 0);
  }
  {
    std::vector<Tuple> both;
    std::set_intersection(adds.begin(), adds.end(), dels.begin(), dels.end(),
                          std::back_inserter(both), TupleLess());
    HQL_CHECK_MSG(both.empty(), "add/del sets must stay disjoint");
  }
#endif
  return FromSortedUnique(arity_, MergeOverlay(tuples(), adds, dels));
}

Relation Relation::UnionWith(const Relation& other) const {
  HQL_CHECK_MSG(arity_ == other.arity_, "union arity mismatch");
  std::vector<Tuple> out;
  out.reserve(size() + other.size());
  std::set_union(begin(), end(), other.begin(), other.end(),
                 std::back_inserter(out), TupleLess());
  return FromSortedUnique(arity_, std::move(out));
}

Relation Relation::IntersectWith(const Relation& other) const {
  HQL_CHECK_MSG(arity_ == other.arity_, "intersect arity mismatch");
  std::vector<Tuple> out;
  std::set_intersection(begin(), end(), other.begin(), other.end(),
                        std::back_inserter(out), TupleLess());
  return FromSortedUnique(arity_, std::move(out));
}

Relation Relation::DifferenceWith(const Relation& other) const {
  HQL_CHECK_MSG(arity_ == other.arity_, "difference arity mismatch");
  std::vector<Tuple> out;
  std::set_difference(begin(), end(), other.begin(), other.end(),
                      std::back_inserter(out), TupleLess());
  return FromSortedUnique(arity_, std::move(out));
}

Relation Relation::ProductWith(const Relation& other) const {
  std::vector<Tuple> out;
  out.reserve(size() * other.size());
  // Lexicographic order of the concatenation follows from iterating both
  // sorted inputs in order, so the result is already sorted and unique.
  for (const Tuple& a : *this) {
    for (const Tuple& b : other) {
      out.push_back(ConcatTuples(a, b));
    }
  }
  return FromSortedUnique(arity_ + other.arity_, std::move(out));
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_ || size() != other.size()) return false;
  return payload_ == other.payload_ || tuples() == other.tuples();
}

uint64_t Relation::HashTerm(const Tuple& t) {
  // MurmurHash3's fmix64: spreads every input bit over the whole word, so
  // the sum over a set does not cancel structure left by HashTuple.
  uint64_t k = HashTuple(t);
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t Relation::HashAfterDelta(uint64_t hash,
                                  const std::vector<Tuple>& adds,
                                  const std::vector<Tuple>& dels) {
  for (const Tuple& t : dels) hash -= HashTerm(t);
  for (const Tuple& t : adds) hash += HashTerm(t);
  return hash;
}

uint64_t Relation::Hash() const {
  if (payload_ != nullptr &&
      payload_->hash_known.load(std::memory_order_acquire)) {
    return payload_->hash.load(std::memory_order_relaxed);
  }
  uint64_t h = HashCombine(0x243F6A8885A308D3ULL, arity_);
  for (const Tuple& t : *this) h += HashTerm(t);
  if (payload_ != nullptr) {
    payload_->hash.store(h, std::memory_order_relaxed);
    payload_->hash_known.store(true, std::memory_order_release);
  }
  return h;
}

std::string Relation::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(size());
  for (const Tuple& t : *this) parts.push_back(TupleToString(t));
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace hql
