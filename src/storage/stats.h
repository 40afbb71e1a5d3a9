#ifndef HQL_STORAGE_STATS_H_
#define HQL_STORAGE_STATS_H_

// Per-relation statistics used by the cost model (Section 6 of the paper
// leaves cost estimation as future work; we provide the standard
// cardinality-based model so the hybrid planner of Examples 2.1(c)/2.2(b)
// can be driven by data rather than hand annotations).
//
// The catalog is overlay-aware: for an overlay relation it records the
// shared base cardinality and the overlay size separately, so consumers can
// reason about the |base| ± |delta| band a hypothetical relation lives in
// without consolidating it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/database.h"

namespace hql {

struct RelationStats {
  uint64_t cardinality = 0;       // exact: |base| - |dels| + |adds|
  size_t arity = 0;
  uint64_t base_cardinality = 0;  // |base| of the overlay's flat base
  uint64_t delta_size = 0;        // |adds| + |dels| of the overlay
  // Per-column distinct counts over the *base* relation (empty unless
  // collected — FromDatabase(db, /*collect_distinct=*/true) or
  // SetDistinctCounts). Drives equality selectivity and the probe-vs-scan
  // cost comparison.
  std::vector<uint64_t> distinct_counts;
};

class StatsCatalog {
 public:
  StatsCatalog() = default;

  /// Collects exact cardinalities from a database state. Overlay-backed
  /// relations report their base/delta split; flat relations have
  /// base_cardinality == cardinality and delta_size == 0. Per-column
  /// distinct counts cost a pass over every base relation, so they are
  /// opt-in: the hybrid executor's per-query catalog stays O(#relations).
  static StatsCatalog FromDatabase(const Database& db,
                                   bool collect_distinct = false);

  void SetCardinality(const std::string& name, uint64_t card, size_t arity);
  void SetViewStats(const std::string& name, RelationStats stats);

  /// Cardinality of `name`, or `fallback` if unknown.
  uint64_t CardinalityOf(const std::string& name, uint64_t fallback) const;

  /// Overlay size of `name` (0 if unknown or flat).
  uint64_t DeltaSizeOf(const std::string& name) const;

  /// Records per-column distinct counts for `name` (no-op if unknown).
  void SetDistinctCounts(const std::string& name,
                         std::vector<uint64_t> counts);

  /// Distinct values in column `column` of `name`'s base, or `fallback`
  /// when not collected / out of range.
  uint64_t DistinctCountOf(const std::string& name, size_t column,
                           uint64_t fallback) const;

  /// Cardinality bounds derived from the base/delta split: any state whose
  /// overlay rewrites at most the recorded delta lies within
  /// [base - delta, base + delta]. `fallback` is used for unknown names.
  uint64_t LowerBoundOf(const std::string& name, uint64_t fallback) const;
  uint64_t UpperBoundOf(const std::string& name, uint64_t fallback) const;

  bool Has(const std::string& name) const { return stats_.count(name) > 0; }

  const std::map<std::string, RelationStats>& stats() const { return stats_; }

 private:
  std::map<std::string, RelationStats> stats_;
};

}  // namespace hql

#endif  // HQL_STORAGE_STATS_H_
