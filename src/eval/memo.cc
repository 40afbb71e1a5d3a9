#include "eval/memo.h"

#include <utility>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace hql {

uint64_t MemoKey(uint64_t query_fingerprint, uint64_t state_fingerprint) {
  return HashCombine(HashCombine(0x452821E638D01377ULL, query_fingerprint),
                     state_fingerprint);
}

// Relations are fingerprinted through Relation::Hash, the content hash: a
// flat relation's is computed once per payload, an overlay's adjusts its
// base's hash by its adds and dels in O(|delta|) at construction, so the
// full state never has to be merged just to key the cache, and equal content
// keys alike whatever its base/delta split.

uint64_t FingerprintState(const Database& db) {
  uint64_t h = 0xB7E151628AED2A6BULL;
  for (const auto& [name, rel] : db.relations()) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, rel.Hash());
  }
  return h;
}

uint64_t FingerprintState(const Database& db, const XsubValue& env) {
  uint64_t h = 0x9216D5D98979FB1BULL;
  for (const auto& [name, rel] : db.relations()) {
    h = HashCombine(h, HashString(name));
    const Relation* bound = env.Get(name);
    h = HashCombine(h, bound != nullptr ? bound->Hash() : rel.Hash());
  }
  // Bindings outside the schema cannot exist (xsubs bind schema names), so
  // the loop above covers the whole environment.
  return h;
}

uint64_t FingerprintState(const Database& db, const DeltaValue& env) {
  uint64_t h = 0x3F84D5B5B5470917ULL;
  for (const auto& [name, rel] : db.relations()) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, rel.Hash());
    const DeltaPair* pair = env.Get(name);
    if (pair != nullptr) {
      h = HashCombine(h, pair->del.Hash());
      h = HashCombine(h, pair->ins.Hash());
    }
  }
  return h;
}

namespace {

uint64_t TupleCount(const Relation& r) { return r.size(); }

}  // namespace

MemoCache::MemoCache(size_t capacity)
    : results_(capacity, &TupleCount),
      plans_(capacity == 0 ? 0 : kPlanCapacity),
      plan_keys_seen_(capacity == 0 ? 0 : kPlanCapacity) {}

std::shared_ptr<const Relation> MemoCache::Lookup(uint64_t key) {
  // The cache keeps its own cumulative stats (it outlives executions); the
  // ambient ExecContext additionally attributes each hit/miss to the
  // execution that caused it.
  std::shared_ptr<const Relation> hit = results_.Lookup(key);
  if (hit != nullptr) {
    AmbientExecContext().Add(ExecCounter::kMemoHits);
  } else {
    AmbientExecContext().Add(ExecCounter::kMemoMisses);
  }
  return hit;
}

void MemoCache::Insert(uint64_t key, std::shared_ptr<const Relation> value) {
  HQL_FAIL_POINT(kFailPointMemoInsert);
  results_.Insert(key, std::move(value));
}

std::shared_ptr<const CachedPlan> MemoCache::LookupPlan(uint64_t key) {
  std::shared_ptr<const CachedPlan> hit = plans_.Lookup(key);
  if (hit != nullptr) {
    AmbientExecContext().Add(ExecCounter::kPlanCacheHits);
  } else {
    AmbientExecContext().Add(ExecCounter::kPlanCacheMisses);
  }
  return hit;
}

void MemoCache::InsertPlan(uint64_t key,
                           std::shared_ptr<const CachedPlan> plan) {
  // Where every read is a new state (a scenario edited between reads) each
  // plan would be pinned until evicted and never hit; holding 256 such
  // trees measurably slowed those reads (EXPERIMENTS.md, end-to-end). A key
  // is admitted once it missed before, within the last kPlanCapacity
  // distinct missed keys.
  static const auto kSeen = std::make_shared<const bool>(true);
  if (plan_keys_seen_.Lookup(key) == nullptr) {
    plan_keys_seen_.Insert(key, kSeen);
    return;
  }
  plans_.Insert(key, std::move(plan));
}

void MemoCache::Clear() {
  results_.Clear();
  plans_.Clear();
  plan_keys_seen_.Clear();
}

void MemoCache::ResetStats() {
  results_.ResetStats();
  plans_.ResetStats();
}

MemoCache::Stats MemoCache::stats() const {
  LruStats s = results_.stats();
  Stats out;
  out.hits = s.hits;
  out.misses = s.misses;
  out.evictions = s.evictions;
  out.insertions = s.insertions;
  out.entries = s.entries;
  out.cached_tuples = s.weight;
  return out;
}

}  // namespace hql
