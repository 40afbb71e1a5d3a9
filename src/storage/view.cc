#include "storage/view.h"

#include <algorithm>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
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

}  // namespace

RelationView::RelationView(size_t arity)
    : arity_(arity), base_(std::make_shared<const Relation>(arity)) {}

RelationView::RelationView(Relation rel)
    : arity_(rel.arity()),
      base_(std::make_shared<const Relation>(std::move(rel))) {}

RelationView::RelationView(RelationPtr base)
    : arity_(base->arity()), base_(std::move(base)) {
  ExecContext& ctx = AmbientExecContext();
  ctx.Add(ExecCounter::kViewsCreated);
  ctx.Add(ExecCounter::kViewTuplesShared, base_->size());
}

RelationView::RelationView(size_t arity, RelationPtr base,
                           std::vector<Tuple> adds, std::vector<Tuple> dels)
    : arity_(arity),
      base_(std::move(base)),
      adds_(std::move(adds)),
      dels_(std::move(dels)) {
#ifndef NDEBUG
  HQL_CHECK(SortedAndUnique(adds_));
  HQL_CHECK(SortedAndUnique(dels_));
  HQL_CHECK(Disjoint(adds_, dels_));
  for (const Tuple& t : adds_) HQL_CHECK(!base_->Contains(t));
  for (const Tuple& t : dels_) HQL_CHECK(base_->Contains(t));
#endif
  if (!is_flat()) flat_cache_ = std::make_shared<FlatCache>();
  ExecContext& ctx = AmbientExecContext();
  ctx.Add(ExecCounter::kViewsCreated);
  ctx.Add(ExecCounter::kViewTuplesShared, base_->size() - dels_.size());
}

RelationView RelationView::Overlay(RelationPtr base, std::vector<Tuple> adds,
                                   std::vector<Tuple> dels) {
  size_t arity = base->arity();
  for (const Tuple& t : adds) HQL_CHECK_MSG(t.size() == arity, "add arity");
  for (const Tuple& t : dels) HQL_CHECK_MSG(t.size() == arity, "del arity");
  SortUnique(&adds);
  SortUnique(&dels);
  // Adds win on overlap: (base ∖ dels) ∪ adds keeps a tuple in both sets.
  dels = SortedDifference(dels, adds);
  // Canonicalize against the base: dels ⊆ base, adds ∩ base = ∅.
  std::erase_if(adds, [&](const Tuple& t) { return base->Contains(t); });
  std::erase_if(dels, [&](const Tuple& t) { return !base->Contains(t); });
  return RelationView(arity, std::move(base), std::move(adds),
                      std::move(dels));
}

bool RelationView::Contains(const Tuple& t) const {
  if (std::binary_search(adds_.begin(), adds_.end(), t, TupleLess())) {
    return true;
  }
  if (std::binary_search(dels_.begin(), dels_.end(), t, TupleLess())) {
    return false;
  }
  return base_->Contains(t);
}

RelationView RelationView::ApplyDelta(std::vector<Tuple> adds,
                                      std::vector<Tuple> dels,
                                      double consolidate_fraction) const {
  for (const Tuple& t : adds) HQL_CHECK_MSG(t.size() == arity_, "add arity");
  for (const Tuple& t : dels) HQL_CHECK_MSG(t.size() == arity_, "del arity");
  SortUnique(&adds);
  SortUnique(&dels);
  // Result content: (this ∖ dels) ∪ adds, adds winning on overlap.
  dels = SortedDifference(dels, adds);

  // Compose into a canonical overlay relative to the existing base:
  //   new_dels = (dels_ ∪ (dels ∩ base)) ∖ adds
  //   new_adds = (adds_ ∖ dels) ∪ (adds ∖ base)
  // Both results stay sorted/unique/disjoint, and the work is linear in the
  // two overlays — the base is only probed, never scanned.
  std::vector<Tuple> dels_in_base;
  dels_in_base.reserve(dels.size());
  for (const Tuple& t : dels) {
    if (base_->Contains(t)) dels_in_base.push_back(t);
  }
  std::vector<Tuple> new_dels =
      SortedDifference(SortedUnion(dels_, dels_in_base), adds);

  std::vector<Tuple> adds_not_in_base;
  adds_not_in_base.reserve(adds.size());
  for (const Tuple& t : adds) {
    if (!base_->Contains(t)) adds_not_in_base.push_back(t);
  }
  std::vector<Tuple> new_adds =
      SortedUnion(SortedDifference(adds_, dels), adds_not_in_base);

  size_t delta = new_adds.size() + new_dels.size();
  if (delta > 0 &&
      static_cast<double>(delta) >
          consolidate_fraction * static_cast<double>(base_->size())) {
    // Break-even crossed: collapse to a fresh flat base so later scans pay
    // no merge overhead and later deltas start from a small overlay again.
    HQL_FAIL_POINT(kFailPointConsolidate);
    ExecContext& ctx = AmbientExecContext();
    ctx.Add(ExecCounter::kViewConsolidations);
    Relation flat = base_->ApplyTuples(new_adds, new_dels);
    ctx.Add(ExecCounter::kViewTuplesCopied, flat.size());
    return RelationView(std::move(flat));
  }
  return RelationView(arity_, base_, std::move(new_adds),
                      std::move(new_dels));
}

Relation RelationView::Materialize() const {
  if (is_flat()) {
    // A Relation copy shares the base's payload: no tuple is copied.
    AmbientExecContext().Add(ExecCounter::kViewTuplesShared, base_->size());
    return *base_;
  }
  return Relation::Deferred(base_, adds_, dels_);
}

RelationPtr RelationView::Shared() const {
  if (is_flat()) return base_;
  std::lock_guard<std::mutex> lock(flat_cache_->mu);
  if (flat_cache_->flat == nullptr) {
    HQL_FAIL_POINT(kFailPointConsolidate);
    ExecContext& ctx = AmbientExecContext();
    ctx.Add(ExecCounter::kViewConsolidations);
    Relation flat = base_->ApplyTuples(adds_, dels_);
    ctx.Add(ExecCounter::kViewTuplesCopied, flat.size());
    flat_cache_->flat = std::make_shared<const Relation>(std::move(flat));
  }
  return flat_cache_->flat;
}

bool RelationView::ContentEquals(const RelationView& other) const {
  if (arity_ != other.arity_ || size() != other.size()) return false;
  const_iterator a = begin(), b = other.begin();
  const_iterator ae = end(), be = other.end();
  for (; a != ae && b != be; ++a, ++b) {
    if (CompareTuples(*a, *b) != 0) return false;
  }
  return a == ae && b == be;
}

uint64_t RelationView::Hash() const {
  return Relation::HashAfterDelta(base_->Hash(), adds_, dels_);
}

std::string RelationView::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(size());
  for (const Tuple& t : *this) parts.push_back(TupleToString(t));
  return "{" + Join(parts, ", ") + "}";
}

RelationView::const_iterator::const_iterator(const RelationView* view,
                                             size_t bi, size_t ai)
    : view_(view), bi_(bi), ai_(ai) {
  SkipDeleted();
}

void RelationView::const_iterator::SkipDeleted() {
  const std::vector<Tuple>& base = view_->base_->tuples();
  const std::vector<Tuple>& dels = view_->dels_;
  while (bi_ < base.size() && di_ < dels.size()) {
    int cmp = CompareTuples(dels[di_], base[bi_]);
    if (cmp < 0) {
      ++di_;
    } else if (cmp == 0) {
      ++bi_;
      ++di_;
    } else {
      break;
    }
  }
}

const Tuple& RelationView::const_iterator::operator*() const {
  const std::vector<Tuple>& base = view_->base_->tuples();
  const std::vector<Tuple>& adds = view_->adds_;
  if (bi_ >= base.size()) return adds[ai_];
  if (ai_ >= adds.size()) return base[bi_];
  // Canonical views keep adds disjoint from the base, so no tie is possible.
  return CompareTuples(base[bi_], adds[ai_]) < 0 ? base[bi_] : adds[ai_];
}

RelationView::const_iterator& RelationView::const_iterator::operator++() {
  const std::vector<Tuple>& base = view_->base_->tuples();
  const std::vector<Tuple>& adds = view_->adds_;
  bool from_base;
  if (bi_ >= base.size()) {
    from_base = false;
  } else if (ai_ >= adds.size()) {
    from_base = true;
  } else {
    from_base = CompareTuples(base[bi_], adds[ai_]) < 0;
  }
  if (from_base) {
    ++bi_;
    SkipDeleted();
  } else {
    ++ai_;
  }
  return *this;
}

std::optional<RelationEdit> OverlayEditBetween(const RelationView& from,
                                               const RelationView& to) {
  if (from.base() != to.base()) return std::nullopt;
  // Both overlays are canonical against the shared base B, so
  //   content(from) = (B ∖ from.dels) ∪ from.adds
  //   content(to)   = (B ∖ to.dels)   ∪ to.adds
  // and the content difference decomposes into overlay set differences:
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

namespace {

template <typename Merge>
Relation StreamBinary(const RelationView& a, const RelationView& b,
                      const char* what, Merge merge) {
  HQL_CHECK_MSG(a.arity() == b.arity(), what);
  std::vector<Tuple> out;
  merge(&out);
  return Relation::FromSortedUnique(a.arity(), std::move(out));
}

}  // namespace

Relation ViewUnion(const RelationView& a, const RelationView& b) {
  return StreamBinary(a, b, "view union arity mismatch",
                      [&](std::vector<Tuple>* out) {
                        out->reserve(a.size() + b.size());
                        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                                       std::back_inserter(*out), TupleLess());
                      });
}

Relation ViewIntersect(const RelationView& a, const RelationView& b) {
  return StreamBinary(a, b, "view intersect arity mismatch",
                      [&](std::vector<Tuple>* out) {
                        std::set_intersection(a.begin(), a.end(), b.begin(),
                                              b.end(),
                                              std::back_inserter(*out),
                                              TupleLess());
                      });
}

Relation ViewDifference(const RelationView& a, const RelationView& b) {
  return StreamBinary(a, b, "view difference arity mismatch",
                      [&](std::vector<Tuple>* out) {
                        std::set_difference(a.begin(), a.end(), b.begin(),
                                            b.end(), std::back_inserter(*out),
                                            TupleLess());
                      });
}

Relation ViewProduct(const RelationView& a, const RelationView& b) {
  std::vector<Tuple> out;
  out.reserve(a.size() * b.size());
  for (const Tuple& ta : a) {
    for (const Tuple& tb : b) {
      out.push_back(ConcatTuples(ta, tb));
    }
  }
  return Relation::FromSortedUnique(a.arity() + b.arity(), std::move(out));
}

}  // namespace hql
