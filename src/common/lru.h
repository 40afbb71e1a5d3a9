#ifndef HQL_COMMON_LRU_H_
#define HQL_COMMON_LRU_H_

// A small thread-safe LRU map from 64-bit keys to shared immutable values:
// the one eviction policy behind the memo's subplan results and plan
// entries and the incremental-execution cache (eval/memo.h). Values are
// handed out as shared_ptr<const T>, so a hit costs one refcount bump and
// an evicted value stays alive for whoever still holds it.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hql {

struct LruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  size_t entries = 0;
  /// Sum of the weigher over the live entries (0 without a weigher).
  uint64_t weight = 0;
};

template <typename T>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const T>;
  /// Per-entry weight for LruStats::weight (e.g. a relation's tuples).
  using Weigher = uint64_t (*)(const T&);

  /// `capacity` bounds the number of entries; the least recently used entry
  /// is evicted on overflow. Capacity 0 disables caching (every Lookup
  /// misses, Insert is a no-op).
  explicit LruCache(size_t capacity, Weigher weigh = nullptr)
      : capacity_(capacity), weigh_(weigh) {}

  /// The value cached under `key` (nullptr on miss), refreshing its LRU
  /// position; counts a hit or a miss.
  Ptr Lookup(uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  /// Caches `value` under `key` (overwrites an existing entry), evicting
  /// the LRU entry when full. Null values are ignored.
  void Insert(uint64_t key, Ptr value) {
    if (capacity_ == 0 || value == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      stats_.weight -= Weigh(*it->second->value);
      stats_.weight += Weigh(*value);
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      const Entry& victim = lru_.back();
      stats_.weight -= Weigh(*victim.value);
      index_.erase(victim.key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    stats_.weight += Weigh(*value);
    lru_.push_front(Entry{key, std::move(value)});
    index_[key] = lru_.begin();
    ++stats_.insertions;
  }

  /// Drops all entries; counters survive (ResetStats clears those too).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    stats_.weight = 0;
  }

  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    LruStats fresh;
    for (const Entry& e : lru_) fresh.weight += Weigh(*e.value);
    stats_ = fresh;
  }

  LruStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    LruStats s = stats_;
    s.entries = lru_.size();
    return s;
  }

  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t key;
    Ptr value;
  };

  uint64_t Weigh(const T& value) const {
    return weigh_ == nullptr ? 0 : weigh_(value);
  }

  const size_t capacity_;
  const Weigher weigh_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_;
  LruStats stats_;
};

}  // namespace hql

#endif  // HQL_COMMON_LRU_H_
