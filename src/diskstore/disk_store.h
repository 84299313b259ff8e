// DiskStore — the durable storage engine behind a PAST node's FileStore.
//
// An append-only, segment-based log (log_format.h) with an in-memory index
// mapping keys to record locations. Two keyspaces share the log: file
// replicas (PUT / REMOVE) and diverted-replica pointers (POINTER_PUT /
// POINTER_REMOVE). Values are opaque byte strings — the storage layer above
// serializes StoredFile / NodeDescriptor; the engine depends only on
// src/common and src/obs.
//
//  * Open() replays every segment in sequence order to rebuild the index,
//    truncating a torn tail (a crash mid-append) off the newest segment and
//    reporting mid-log corruption as StatusCode::kCorruption.
//  * Appends go to the active segment, which rolls over at
//    segment_target_bytes; sealed segments are fsynced and never rewritten.
//  * Overwrites and removes turn earlier records into garbage; when garbage
//    exceeds compact_garbage_ratio of the log, compaction rewrites the live
//    records into a fresh segment and deletes everything older.
//  * Durability: sync_every = 0 leaves fsync to explicit Sync() calls and
//    segment seals; sync_every = n fsyncs after every n-th append (n = 1 is
//    write-through). A record acknowledged after Sync() survives any crash.
//  * Write failures: a failed append is cut back off the log and a failed
//    segment write is deleted, so the store keeps serving and reopens
//    whole; after a failed fsync every mutation fails until reopen.
//
// Single-threaded, like the rest of the simulator.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/u160.h"
#include "src/diskstore/env.h"
#include "src/diskstore/log_format.h"
#include "src/obs/metrics.h"

namespace past {

struct DiskStoreOptions {
  // Roll the active segment once it grows past this many bytes.
  uint64_t segment_target_bytes = 4ULL << 20;
  // Compact when garbage bytes exceed this fraction of all record bytes...
  double compact_garbage_ratio = 0.5;
  // ...and at least this many bytes would be reclaimed.
  uint64_t compact_min_bytes = 1ULL << 20;
  // 0: fsync only on Sync() and segment seal; n: also after every n appends.
  uint32_t sync_every = 0;
  // Defaults to Env::Default(). Tests substitute a FaultInjectionEnv.
  Env* env = nullptr;
  // Shared registry for the disk.* instruments; when null, the store counts
  // into a registry of its own (DiskStore::metrics()).
  MetricsRegistry* metrics = nullptr;
};

class DiskStore {
 public:
  // Opens (creating if needed) the store in `dir` and replays the log.
  // Fails with kCorruption on a checksum-invalid record that is not a torn
  // tail, kUnavailable on I/O errors.
  static Result<std::unique_ptr<DiskStore>> Open(const std::string& dir,
                                                 const DiskStoreOptions& options);
  ~DiskStore();

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  // --- file keyspace. Put overwrites (last write wins). -----------------------
  StatusCode Put(const U160& key, ByteSpan value);
  StatusCode Remove(const U160& key);  // kNotFound when absent
  bool Has(const U160& key) const { return files_.count(key) > 0; }
  Result<Bytes> Get(const U160& key) const;
  std::vector<U160> Keys() const;
  size_t key_count() const { return files_.size(); }

  // --- pointer keyspace -------------------------------------------------------
  StatusCode PutPointer(const U160& key, ByteSpan value);
  StatusCode RemovePointer(const U160& key);
  bool HasPointer(const U160& key) const { return pointers_.count(key) > 0; }
  Result<Bytes> GetPointer(const U160& key) const;
  std::vector<U160> PointerKeys() const;
  size_t pointer_count() const { return pointers_.size(); }

  // Makes every acknowledged append durable.
  StatusCode Sync();
  // Rewrites live records into a fresh segment and deletes the rest,
  // regardless of the garbage thresholds.
  StatusCode Compact();

  // The registry the disk.* counts go to: options.metrics, or the store's
  // own. Bytes written, fsyncs, compactions, records replayed and torn tails
  // truncated by Open() are counted there and nowhere else.
  const MetricsRegistry& metrics() const { return *metrics_; }
  size_t segment_count() const { return segment_seqs_.size(); }
  // Record bytes a compaction would drop.
  uint64_t garbage_bytes() const { return garbage_bytes_; }
  const std::string& dir() const { return dir_; }

 private:
  struct IndexEntry {
    uint64_t seg = 0;         // segment sequence number
    uint64_t value_offset = 0;  // byte offset of the value within the file
    uint32_t value_len = 0;
    uint32_t record_len = 0;  // full on-disk record size (prefix + body)
  };
  using Index = std::unordered_map<U160, IndexEntry, U160Hash>;

  DiskStore(std::string dir, const DiskStoreOptions& options);

  StatusCode Replay();
  // Replays segment `seq`, adding the records it applies to `*replayed`.
  StatusCode ReplaySegment(uint64_t seq, bool is_last, uint64_t* replayed);
  // Applies one parsed record to the index and the live/garbage accounting.
  void ApplyRecord(const Record& record, const IndexEntry& entry);

  StatusCode Append(RecordType type, const U160& key, ByteSpan value);
  StatusCode OpenActiveSegment(uint64_t seq, uint64_t existing_size);
  StatusCode SealActiveSegment();
  // Removes segment `seq` after a failed write; if it cannot be removed, the
  // store stops taking writes and reports `cause` (see failed_).
  void Discard(uint64_t seq, StatusCode cause);
  // Compacts when the garbage thresholds say it is worthwhile.
  StatusCode MaybeCompact();
  // Writes every live record into new segment `seq` and syncs it, building
  // the index that will replace the current one; `live` sums record bytes.
  StatusCode WriteCompacted(uint64_t seq, Index* new_files, Index* new_pointers,
                            uint64_t* live);

  std::string SegmentPath(uint64_t seq) const;
  Result<Bytes> ReadValue(const Index& index, const U160& key) const;

  // Removal helper shared by both keyspaces.
  StatusCode RemoveFrom(Index* index, RecordType type, const U160& key);

  const std::string dir_;
  DiskStoreOptions options_;
  Env* env_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // only when options.metrics is null
  MetricsRegistry* metrics_;

  Index files_;
  Index pointers_;

  std::vector<uint64_t> segment_seqs_;  // ascending; back() is active
  // Null after a failed write left no active segment; the next append opens
  // a fresh one.
  std::unique_ptr<WritableFile> active_file_;
  uint64_t active_size_ = 0;
  uint64_t next_seq_ = 1;
  uint32_t appends_since_sync_ = 0;
  // The first write failure the store could not repair: a failed fsync (the
  // kernel may have dropped the unwritten pages, so a retry could report
  // success for bytes that never reached the disk) or a torn write it could
  // not cut off. Every later mutation returns it instead of acknowledging
  // records the log may not hold; reads keep working.
  StatusCode failed_ = StatusCode::kOk;

  // Record bytes a compaction would keep and drop; they drive MaybeCompact.
  uint64_t live_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;

  // The "disk.*" instruments in metrics_.
  Counter* m_bytes_written_;
  Counter* m_fsyncs_;
  Counter* m_compactions_;
  Counter* m_recovery_replayed_;
  Counter* m_torn_tails_;
  Gauge* m_segments_;
  // Wall-clock I/O timing, resolved only in PAST_PROF builds (null otherwise)
  // so default builds' metric dumps stay byte-identical.
  LogHistogram* m_append_us_ = nullptr;
  LogHistogram* m_fsync_us_ = nullptr;
};

}  // namespace past

