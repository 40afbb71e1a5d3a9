#include "storage/relation.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/governor.h"
#include "common/strings.h"

namespace hql {

namespace {

void SortUnique(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end(), TupleLess());
  tuples->erase(std::unique(tuples->begin(), tuples->end()), tuples->end());
}

std::vector<Tuple> SortedDifference(const std::vector<Tuple>& a,
                                    const std::vector<Tuple>& b) {
  std::vector<Tuple> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out), TupleLess());
  return out;
}

std::vector<Tuple> SortedUnion(const std::vector<Tuple>& a,
                               const std::vector<Tuple>& b) {
  std::vector<Tuple> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out), TupleLess());
  return out;
}

// Sorts and dedups a delta and drops from `dels` what `adds` re-inserts:
// the content (R ∖ dels) ∪ adds is unchanged, adds winning on overlap.
void NormalizeDelta(size_t arity, std::vector<Tuple>* adds,
                    std::vector<Tuple>* dels) {
  for (const Tuple& t : *adds) HQL_CHECK_MSG(t.size() == arity, "add arity");
  for (const Tuple& t : *dels) HQL_CHECK_MSG(t.size() == arity, "del arity");
  SortUnique(adds);
  SortUnique(dels);
  *dels = SortedDifference(*dels, *adds);
}

#ifndef NDEBUG
bool SortedAndUnique(const std::vector<Tuple>& tuples) {
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (CompareTuples(tuples[i - 1], tuples[i]) >= 0) return false;
  }
  return true;
}

bool Disjoint(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  std::vector<Tuple> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both), TupleLess());
  return both.empty();
}
#endif

// The binary set operations: both operands stream through their ranges, so
// an overlay is merged on the fly and never settled.
template <typename Op>
Relation StreamBinary(const Relation& a, const Relation& b, const char* what,
                      Op op) {
  HQL_CHECK_MSG(a.arity() == b.arity(), what);
  std::vector<Tuple> out;
  a.WithRange([&](auto a_first, auto a_last) {
    b.WithRange([&](auto b_first, auto b_last) {
      op(a_first, a_last, b_first, b_last, std::back_inserter(out));
    });
  });
  return Relation::FromSortedUnique(a.arity(), std::move(out));
}

}  // namespace

Relation Relation::FromTuples(size_t arity, std::vector<Tuple> tuples) {
  HQL_FAIL_POINT(kFailPointTupleAppend);
  for (const Tuple& t : tuples) {
    HQL_CHECK_MSG(t.size() == arity, "tuple arity mismatch");
  }
  SortUnique(&tuples);
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

Relation Relation::Overlay(const Relation& rel, std::vector<Tuple> adds,
                           std::vector<Tuple> dels) {
  rel.ComposeDelta(&adds, &dels);
  return CanonicalOverlay(rel.base(), std::move(adds), std::move(dels));
}

Relation Relation::CanonicalOverlay(const Relation& base,
                                    std::vector<Tuple> adds,
                                    std::vector<Tuple> dels) {
  HQL_CHECK(base.is_flat());
#ifndef NDEBUG
  HQL_CHECK(SortedAndUnique(adds));
  HQL_CHECK(SortedAndUnique(dels));
  HQL_CHECK(Disjoint(adds, dels));
  for (const Tuple& t : adds) HQL_CHECK(!base.Contains(t));
  for (const Tuple& t : dels) HQL_CHECK(base.Contains(t));
#endif
  if (adds.empty() && dels.empty()) return base;
  ExecContext& ctx = AmbientExecContext();
  ctx.Add(ExecCounter::kViewsCreated);
  ctx.Add(ExecCounter::kViewTuplesShared, base.size() - dels.size());
  Relation r(base.arity());
  uint64_t hash = HashAfterDelta(base.Hash(), adds, dels);
  r.payload_ =
      std::make_shared<Payload>(base, std::move(adds), std::move(dels), hash);
  return r;
}

Relation Relation::SharedCopy() const {
  ExecContext& ctx = AmbientExecContext();
  ctx.Add(ExecCounter::kViewsCreated);
  ctx.Add(ExecCounter::kViewTuplesShared, size());
  return *this;
}

void Relation::Settle(Payload& payload) {
  std::call_once(payload.merge_once, [&payload] {
    HQL_FAIL_POINT(kFailPointTupleAppend);
    const std::vector<Tuple>& base = payload.base.tuples();
    std::vector<Tuple> merged;
    merged.reserve(payload.overlay_size);
    merged.insert(merged.end(),
                  OverlayIterator(&base, &payload.adds, &payload.dels, false),
                  OverlayIterator(&base, &payload.adds, &payload.dels, true));
    payload.tuples = std::move(merged);
    payload.merged.store(true, std::memory_order_release);
    AmbientExecContext().Add(ExecCounter::kViewTuplesCopied,
                             payload.tuples.size());
  });
}

bool Relation::Contains(const Tuple& t) const {
  if (const std::vector<Tuple>* flat = FlatTuples()) {
    return std::binary_search(flat->begin(), flat->end(), t, TupleLess());
  }
  const Payload& p = *payload_;
  if (std::binary_search(p.adds.begin(), p.adds.end(), t, TupleLess())) {
    return true;
  }
  if (std::binary_search(p.dels.begin(), p.dels.end(), t, TupleLess())) {
    return false;
  }
  return p.base.Contains(t);
}

void Relation::ComposeDelta(std::vector<Tuple>* adds,
                            std::vector<Tuple>* dels) const {
  NormalizeDelta(arity_, adds, dels);
  // Compose into a canonical overlay relative to the flat base:
  //   new_dels = (old_dels ∪ (dels ∩ base)) ∖ adds
  //   new_adds = (old_adds ∖ dels) ∪ (adds ∖ base)
  // Both results stay sorted/unique/disjoint, and the work is linear in the
  // two deltas — the base is only probed, never scanned.
  const Relation& flat = base();
  std::vector<Tuple> dels_in_base;
  dels_in_base.reserve(dels->size());
  for (const Tuple& t : *dels) {
    if (flat.Contains(t)) dels_in_base.push_back(t);
  }
  std::vector<Tuple> adds_not_in_base;
  adds_not_in_base.reserve(adds->size());
  for (const Tuple& t : *adds) {
    if (!flat.Contains(t)) adds_not_in_base.push_back(t);
  }
  std::vector<Tuple> new_dels =
      SortedDifference(SortedUnion(this->dels(), dels_in_base), *adds);
  *adds = SortedUnion(SortedDifference(this->adds(), *dels), adds_not_in_base);
  *dels = std::move(new_dels);
}

Relation Relation::ApplyDelta(std::vector<Tuple> adds,
                              std::vector<Tuple> dels) const {
  ComposeDelta(&adds, &dels);
  const Relation& flat = base();
  size_t delta = adds.size() + dels.size();
  if (static_cast<double>(delta) >
      kConsolidateFraction * static_cast<double>(flat.size())) {
    // Break-even crossed: collapse to a fresh flat base so later scans pay
    // no merge and later deltas start from a small overlay again.
    HQL_FAIL_POINT(kFailPointConsolidate);
    ExecContext& ctx = AmbientExecContext();
    ctx.Add(ExecCounter::kViewConsolidations);
    Relation merged = flat.ApplyTuples(adds, dels);
    ctx.Add(ExecCounter::kViewTuplesCopied, merged.size());
    return merged;
  }
  return CanonicalOverlay(flat, std::move(adds), std::move(dels));
}

std::vector<Tuple>& Relation::MutableTuples() {
  if (payload_ == nullptr) {
    payload_ = std::make_shared<Payload>(std::vector<Tuple>());
  } else if (payload_->overlay || payload_.use_count() > 1) {
    payload_ = std::make_shared<Payload>(tuples());
  } else {
#ifndef __SANITIZE_THREAD__  // TSan does not model fences
    // Sole owner. Pairs with the release decrement of a copy dropped on
    // another thread, so that copy's reads happen before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
    payload_->hash_known.store(false, std::memory_order_relaxed);
    payload_->index_cache.reset();
    payload_->batch_cache.reset();
  }
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
  for (const Tuple& t : adds) HQL_CHECK(t.size() == arity_);
  for (const Tuple& t : dels) HQL_CHECK(t.size() == arity_);
  HQL_CHECK(SortedAndUnique(adds));
  HQL_CHECK(SortedAndUnique(dels));
  HQL_CHECK_MSG(Disjoint(adds, dels), "add/del sets must stay disjoint");
#endif
  // (this ∖ dels) ∪ adds in one sorted three-way merge; a tuple in both
  // this and adds is kept once.
  std::vector<Tuple> out;
  out.reserve(size() + adds.size());
  auto ai = adds.begin();
  auto di = dels.begin();
  Scan([&](const Tuple& t) {
    for (; ai != adds.end() && CompareTuples(*ai, t) < 0; ++ai) {
      out.push_back(*ai);
    }
    if (ai != adds.end() && CompareTuples(*ai, t) == 0) ++ai;
    while (di != dels.end() && CompareTuples(*di, t) < 0) ++di;
    if (di != dels.end() && CompareTuples(*di, t) == 0) return;
    out.push_back(t);
  });
  out.insert(out.end(), ai, adds.end());
  return FromSortedUnique(arity_, std::move(out));
}

Relation Relation::UnionWith(const Relation& other) const {
  return StreamBinary(*this, other, "union arity mismatch",
                      [](auto a, auto ae, auto b, auto be, auto out) {
                        std::set_union(a, ae, b, be, out, TupleLess());
                      });
}

Relation Relation::IntersectWith(const Relation& other) const {
  return StreamBinary(*this, other, "intersect arity mismatch",
                      [](auto a, auto ae, auto b, auto be, auto out) {
                        std::set_intersection(a, ae, b, be, out, TupleLess());
                      });
}

Relation Relation::DifferenceWith(const Relation& other) const {
  return StreamBinary(*this, other, "difference arity mismatch",
                      [](auto a, auto ae, auto b, auto be, auto out) {
                        std::set_difference(a, ae, b, be, out, TupleLess());
                      });
}

Relation Relation::ProductWith(const Relation& other) const {
  ExecGovernor* gov = CurrentGovernor();
  // |a|·|b| may overflow and may be far past the tuple budget; reserve at
  // most what the budget still allows (one past it, so the charge trips).
  size_t want = std::numeric_limits<size_t>::max();
  if (other.size() == 0 || size() <= want / other.size()) {
    want = size() * other.size();
  }
  if (gov != nullptr && gov->budget().max_tuples > 0) {
    uint64_t charged = gov->tuples_charged();
    uint64_t left = gov->budget().max_tuples > charged
                        ? gov->budget().max_tuples - charged
                        : 0;
    want = std::min<uint64_t>(want, left + 1);
  }
  std::vector<Tuple> out;
  if (want != std::numeric_limits<size_t>::max()) out.reserve(want);
  // Lexicographic order of the concatenation follows from iterating both
  // sorted inputs in order, so the result is already sorted and unique.
  Scan([&](const Tuple& a) {
    return other.Scan([&](const Tuple& b) {
      if (gov != nullptr && !gov->Tick()) return false;
      out.push_back(ConcatTuples(a, b));
      return gov == nullptr || gov->ChargeTuples(1);
    });
  });
  return FromSortedUnique(arity_ + other.arity_, std::move(out));
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_ || size() != other.size()) return false;
  if (payload_ == other.payload_) return true;
  return WithRange([&](auto a, auto ae) {
    return other.WithRange(
        [&](auto b, auto be) { return std::equal(a, ae, b, be); });
  });
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
  Scan([&h](const Tuple& t) { h += HashTerm(t); });
  if (payload_ != nullptr) {
    payload_->hash.store(h, std::memory_order_relaxed);
    payload_->hash_known.store(true, std::memory_order_release);
  }
  return h;
}

std::string Relation::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(size());
  Scan([&parts](const Tuple& t) { parts.push_back(TupleToString(t)); });
  return "{" + Join(parts, ", ") + "}";
}

std::optional<RelationEdit> OverlayEditBetween(const Relation& from,
                                               const Relation& to) {
  if (from.base().payload_id() != to.base().payload_id()) return std::nullopt;
  // Both overlays are canonical against the shared base B, so
  //   content(from) = (B ∖ from.dels) ∪ from.adds
  //   content(to)   = (B ∖ to.dels)   ∪ to.adds
  // and the content difference decomposes into delta set differences:
  //   removed = (to.dels ∖ from.dels) ∪ (from.adds ∖ to.adds)
  //   added   = (from.dels ∖ to.dels) ∪ (to.adds ∖ from.adds)
  // Each union is of disjoint sorted sets (one side lives in B, the other
  // outside it), and the result is canonical w.r.t. content(from): removed
  // tuples are all present in `from`, added tuples all absent.
  RelationEdit edit;
  edit.dels = SortedUnion(SortedDifference(to.dels(), from.dels()),
                          SortedDifference(from.adds(), to.adds()));
  edit.adds = SortedUnion(SortedDifference(from.dels(), to.dels()),
                          SortedDifference(to.adds(), from.adds()));
#ifndef NDEBUG
  HQL_CHECK(SortedAndUnique(edit.adds));
  HQL_CHECK(SortedAndUnique(edit.dels));
  for (const Tuple& t : edit.dels) HQL_CHECK(from.Contains(t));
  for (const Tuple& t : edit.adds) HQL_CHECK(!from.Contains(t));
#endif
  return edit;
}

}  // namespace hql
