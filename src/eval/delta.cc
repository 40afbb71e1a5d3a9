#include "eval/delta.h"

#include "common/check.h"
#include "common/strings.h"

namespace hql {

const DeltaPair* DeltaValue::Get(const std::string& name) const {
  auto it = pairs_.find(name);
  return it == pairs_.end() ? nullptr : &it->second;
}

void DeltaValue::Bind(const std::string& name, DeltaPair pair) {
  HQL_CHECK(pair.del.arity() == pair.ins.arity());
  pairs_.insert_or_assign(name, std::move(pair));
}

DeltaValue DeltaValue::SmashWith(const DeltaValue& later) const {
  DeltaValue out = *this;
  for (const auto& [name, p2] : later.pairs_) {
    auto it = out.pairs_.find(name);
    if (it == out.pairs_.end()) {
      out.pairs_.emplace(name, p2);
      continue;
    }
    const DeltaPair& p1 = it->second;
    Relation d = p1.del.DifferenceWith(p2.ins).UnionWith(p2.del);
    Relation i = p1.ins.DifferenceWith(p2.del).UnionWith(p2.ins);
    it->second = DeltaPair(std::move(d), std::move(i));
  }
  return out;
}

Relation DeltaValue::ApplyToRelation(const Relation& base,
                                     const std::string& name) const {
  const DeltaPair* p = Get(name);
  if (p == nullptr) return base;
  // D and I may overlap (inserts win); ApplyTuples wants disjoint sets, so
  // drop the overlap from D first, then merge in a single pass.
  return base.ApplyTuples(p->ins.tuples(),
                          p->del.DifferenceWith(p->ins).tuples());
}

Result<Database> DeltaValue::ApplyTo(const Database& db) const {
  Database out = db;
  for (const auto& [name, pair] : pairs_) {
    // Each touched relation becomes an overlay on the shared base:
    // O(|delta|) per name (ApplyDelta consolidates only past the
    // break-even fraction).
    HQL_ASSIGN_OR_RETURN(Relation base, db.Get(name));
    HQL_RETURN_IF_ERROR(out.Set(
        name, base.ApplyDelta(pair.ins.tuples(), pair.del.tuples())));
  }
  return out;
}

uint64_t DeltaValue::TotalTuples() const {
  uint64_t n = 0;
  for (const auto& [name, pair] : pairs_) {
    (void)name;
    n += pair.del.size() + pair.ins.size();
  }
  return n;
}

std::string DeltaValue::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(pairs_.size());
  for (const auto& [name, pair] : pairs_) {
    parts.push_back("(" + pair.del.ToString() + ", " + pair.ins.ToString() +
                    ")/" + name);
  }
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace hql
