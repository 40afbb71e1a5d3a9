#include "storage/stats.h"

#include <unordered_set>

#include "storage/tuple.h"

namespace hql {

namespace {

// Distinct values per column of a flat base, one pass per column.
std::vector<uint64_t> CollectDistinct(const Relation& base) {
  std::vector<uint64_t> counts(base.arity(), 0);
  for (size_t col = 0; col < base.arity(); ++col) {
    std::unordered_set<Value, ValueHash> seen;
    for (const Tuple& t : base.tuples()) seen.insert(t[col]);
    counts[col] = seen.size();
  }
  return counts;
}

}  // namespace

StatsCatalog StatsCatalog::FromDatabase(const Database& db,
                                        bool collect_distinct) {
  StatsCatalog catalog;
  for (const auto& [name, rel] : db.relations()) {
    RelationStats stats{rel.size(), rel.arity(), rel.base().size(),
                        rel.delta_size()};
    if (collect_distinct) {
      stats.distinct_counts = CollectDistinct(rel.base());
    }
    catalog.SetViewStats(name, std::move(stats));
  }
  return catalog;
}

void StatsCatalog::SetCardinality(const std::string& name, uint64_t card,
                                  size_t arity) {
  stats_[name] = RelationStats{card, arity, card, 0};
}

void StatsCatalog::SetViewStats(const std::string& name,
                                RelationStats stats) {
  stats_[name] = stats;
}

uint64_t StatsCatalog::CardinalityOf(const std::string& name,
                                     uint64_t fallback) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? fallback : it->second.cardinality;
}

uint64_t StatsCatalog::DeltaSizeOf(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? 0 : it->second.delta_size;
}

void StatsCatalog::SetDistinctCounts(const std::string& name,
                                     std::vector<uint64_t> counts) {
  auto it = stats_.find(name);
  if (it != stats_.end()) it->second.distinct_counts = std::move(counts);
}

uint64_t StatsCatalog::DistinctCountOf(const std::string& name, size_t column,
                                       uint64_t fallback) const {
  auto it = stats_.find(name);
  if (it == stats_.end() || column >= it->second.distinct_counts.size()) {
    return fallback;
  }
  return it->second.distinct_counts[column];
}

uint64_t StatsCatalog::LowerBoundOf(const std::string& name,
                                    uint64_t fallback) const {
  auto it = stats_.find(name);
  if (it == stats_.end()) return fallback;
  const RelationStats& s = it->second;
  return s.base_cardinality > s.delta_size
             ? s.base_cardinality - s.delta_size
             : 0;
}

uint64_t StatsCatalog::UpperBoundOf(const std::string& name,
                                    uint64_t fallback) const {
  auto it = stats_.find(name);
  if (it == stats_.end()) return fallback;
  const RelationStats& s = it->second;
  return s.base_cardinality + s.delta_size;
}

}  // namespace hql
