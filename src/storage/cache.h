// Unused-capacity file cache with GreedyDual-Size eviction.
//
// Any PAST node may cache copies of files that pass through it (on insert
// forwarding or lookup serving) in the portion of its disk not occupied by
// primary replicas. Cached copies are evicted on demand — both by the cache
// policy and whenever the primary store needs the space back. GreedyDual-
// Size (the policy used by the PAST storage-management paper) favors small
// and popular files: each entry carries H = L + cost/size, eviction removes
// the minimum-H entry and raises the floor L to that value.
//
// The nodes on one lookup or insert path all cache the same file, so the
// caches of a network share its bytes through one ContentTable and its
// certificate through one CertificateTable; each cache still charges the
// file's full size against its own budget.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/shared_bytes.h"
#include "src/obs/metrics.h"
#include "src/storage/certificates.h"
#include "src/storage/intern_table.h"

namespace past {

enum class CachePolicy { kNone, kLru, kGreedyDualSize };

// One buffer per distinct cached content, shared by every cache of a
// network (an InternTable of byte buffers).
//
// Buffers are filed under the certificate's content_hash, but a hit compares
// the bytes in full: cached copies are not hash-checked (DESIGN §5), so a
// forged copy under a genuine certificate gets a buffer of its own and never
// reaches another cache.
class ContentTable {
 public:
  // Live buffers' bytes are the "cache.resident_bytes" gauge of `metrics`
  // (summed over every table on the registry).
  explicit ContentTable(MetricsRegistry& metrics);

  // A handle onto a live buffer filed under `content_hash` that holds exactly
  // `bytes`, or else onto a new copy of `bytes`. Empty content (a synthetic
  // file) takes no buffer.
  SharedBytes Intern(ByteSpan content_hash, ByteSpan bytes);

  // Live buffers.
  size_t buffer_count() const { return buffers_.size(); }

 private:
  InternTable<Bytes> buffers_;
};

struct CachedFile {
  SharedCertificate cert;
  SharedBytes content;
};

class Cache {
 public:
  // Hit/miss/insert/evict counts and the used-bytes gauge live only in the
  // shared "cache.*" instruments of `metrics` (aggregated across every cache
  // on the same registry). Content is shared through `contents` and
  // certificates through `certs`; both must outlive the cache.
  Cache(CachePolicy policy, MetricsRegistry& metrics, ContentTable& contents,
        CertificateTable& certs);

  // Inserts a file, evicting lower-priority entries while the cache exceeds
  // `available` bytes. Returns false if the policy is kNone, the file cannot
  // fit, or it is already cached. `content` and `cert` are copied only when
  // their tables hold no equal object.
  bool Insert(const FileCertificate& cert, ByteSpan content, uint64_t available);

  // Lookup; bumps the entry's priority on hit.
  const CachedFile* Get(const FileId& id);
  // The entry, without touching its priority or the hit/miss counts.
  const CachedFile* Peek(const FileId& id) const;
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
  ContentTable* contents_;
  CertificateTable* certs_;
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
