#include "storage/relation.h"

#include <algorithm>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace hql {

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

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(begin(), end(), t, TupleLess());
}

std::vector<Tuple>& Relation::MutableTuples() {
  if (payload_ == nullptr) {
    payload_ = std::make_shared<Payload>(std::vector<Tuple>());
  } else if (payload_.use_count() > 1) {
    payload_ = std::make_shared<Payload>(payload_->tuples);
  } else {
#ifndef __SANITIZE_THREAD__  // TSan does not model fences
    // Sole owner. Pairs with the release decrement of a copy dropped on
    // another thread, so that copy's reads happen before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    payload_->hash.store(0, std::memory_order_relaxed);
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
  const std::vector<Tuple>& base = tuples();
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
  return FromSortedUnique(arity_, std::move(out));
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
  if (arity_ != other.arity_) return false;
  return payload_ == other.payload_ || tuples() == other.tuples();
}

uint64_t Relation::Hash() const {
  if (payload_ != nullptr) {
    uint64_t cached = payload_->hash.load(std::memory_order_relaxed);
    if (cached != 0) return cached;
  }
  uint64_t h = HashCombine(0x243F6A8885A308D3ULL, arity_);
  for (const Tuple& t : *this) h = HashCombine(h, HashTuple(t));
  if (h == 0) h = 1;
  if (payload_ != nullptr) payload_->hash.store(h, std::memory_order_relaxed);
  return h;
}

std::string Relation::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(size());
  for (const Tuple& t : *this) parts.push_back(TupleToString(t));
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace hql
