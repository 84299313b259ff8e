// Unused-capacity file cache with GreedyDual-Size eviction.
//
// Any PAST node may cache copies of files that pass through it (on insert
// forwarding or lookup serving) in the portion of its disk not occupied by
// primary replicas. Cached copies are evicted on demand — both by the cache
// policy and whenever the primary store needs the space back. GreedyDual-
// Size (the policy used by the PAST storage-management paper) favors small
// and popular files: each entry carries H = L + cost/size, eviction removes
// the minimum-H entry and raises the floor L to that value.
#pragma once

#include <map>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/storage/certificates.h"

namespace past {

enum class CachePolicy { kNone, kLru, kGreedyDualSize };

struct CachedFile {
  FileCertificate cert;
  Bytes content;
};

class Cache {
 public:
  // Hit/miss/insert/evict counts and the used-bytes gauge live only in the
  // shared "cache.*" instruments of `metrics` (aggregated across every cache
  // on the same registry).
  Cache(CachePolicy policy, MetricsRegistry& metrics)
      : policy_(policy),
        hits_(metrics.GetCounter("cache.hits")),
        misses_(metrics.GetCounter("cache.misses")),
        insertions_(metrics.GetCounter("cache.insertions")),
        evictions_(metrics.GetCounter("cache.evictions")),
        used_bytes_(metrics.GetGauge("cache.used_bytes")) {}

  // Inserts a file, evicting lower-priority entries while the cache exceeds
  // `available` bytes. Returns false if the policy is kNone, the file cannot
  // fit, or it is already cached.
  bool Insert(const FileCertificate& cert, Bytes content, uint64_t available);

  // Lookup; bumps the entry's priority on hit.
  const CachedFile* Get(const FileId& id);
  bool Contains(const FileId& id) const { return entries_.count(id) > 0; }
  bool Remove(const FileId& id);

  // Frees cached bytes until at most `max_bytes` are used (called when the
  // primary store reclaims space from the cache). Returns bytes evicted.
  uint64_t ShrinkTo(uint64_t max_bytes);

  uint64_t used() const { return used_; }
  size_t entry_count() const { return entries_.size(); }
  CachePolicy policy() const { return policy_; }

 private:
  struct Entry {
    CachedFile file;
    // Priority handle into queue_: H for GD-S, logical clock for LRU.
    std::multimap<double, U160>::iterator queue_pos;
  };

  double PriorityFor(uint64_t size) const;
  void EvictOne();

  // Adjusts used_ and keeps the aggregate gauge in sync.
  void AccountUsed(int64_t delta);

  CachePolicy policy_;
  uint64_t used_ = 0;
  double inflation_ = 0.0;  // L for GD-S; logical clock for LRU
  std::unordered_map<U160, Entry, U160Hash> entries_;
  std::multimap<double, U160> queue_;  // priority -> fileId (min first)

  // Shared registry instruments.
  Counter* hits_;
  Counter* misses_;
  Counter* insertions_;
  Counter* evictions_;
  Gauge* used_bytes_;
};

}  // namespace past

