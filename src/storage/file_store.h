// FileStore — the primary replica store of a PAST node.
//
// Tracks the node's advertised capacity, the replicas it holds (primary and
// diverted), and pointers to replicas it diverted elsewhere (the indirection
// of the SOSP storage-management scheme). Content bytes may be empty for
// synthetic workloads; accounting always uses the certified file size.
//
// Replicas and pointers live in a StoreBackend: MemoryBackend by default, or
// DiskBackend for a node with a state directory. FileStore owns the PAST
// semantics either way — capacity accounting (rebuilt from the backend's
// recovered metadata on construction), duplicate and fit checks, and the
// store.* counts, which live only in the registry it is given.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/pastry/node_id.h"
#include "src/storage/store_backend.h"

namespace past {

class FileStore {
 public:
  // Accept/reject/error counts and the capacity/used-bytes gauges go to the
  // shared "store.*" instruments of `metrics` (aggregated across every store
  // on the same registry, giving system-wide utilization).
  FileStore(uint64_t capacity, MetricsRegistry& metrics);
  // Uses `backend` instead of a fresh MemoryBackend; anything it already
  // holds (a recovered DiskBackend) is counted into used() immediately.
  FileStore(uint64_t capacity, std::unique_ptr<StoreBackend> backend,
            MetricsRegistry& metrics);
  ~FileStore();

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  uint64_t free_space() const { return capacity_ - used_; }
  double utilization() const {
    return capacity_ == 0 ? 0.0 : static_cast<double>(used_) / capacity_;
  }

  // Stores a replica (empty content for a synthetic file). Fails with
  // kInsufficientStorage if it does not fit, kAlreadyExists on duplicate
  // fileId, and with the backend's status on an I/O error.
  StatusCode Put(StoredFile file, Bytes content = {});
  bool Has(const FileId& id) const { return backend_->Get(id) != nullptr; }
  const StoredFile* Get(const FileId& id) const { return backend_->Get(id); }
  // The replica's content: kNotFound when absent, the backend's status when
  // the read fails.
  Result<Bytes> ReadContent(const FileId& id) const;
  // Removes the replica and releases its space. Returns the freed size, or
  // nullopt if absent or the backend failed to remove it (an I/O error).
  std::optional<uint64_t> Remove(const FileId& id);

  // Diverted-replica pointers: fileId -> node actually holding the replica.
  // Durable backends may fail with kUnavailable on I/O errors. RemovePointer
  // returns false when the pointer is absent or the backend refused to drop
  // it (an I/O error; the pointer stays).
  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder);
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const;
  [[nodiscard]] bool RemovePointer(const FileId& id);

  std::vector<FileId> FileIds() const { return backend_->FileIds(); }
  size_t file_count() const { return backend_->file_count(); }
  size_t pointer_count() const { return backend_->pointer_count(); }

  // Flushes acknowledged writes to stable storage (no-op in memory).
  StatusCode Sync() { return backend_->Sync(); }
  StoreBackend* backend() { return backend_.get(); }

 private:
  void AccountUsed(int64_t delta);

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::unique_ptr<StoreBackend> backend_;

  // Shared registry instruments.
  Counter* puts_;
  Counter* rejects_;
  Counter* removes_;
  Counter* io_errors_;  // refused backend writes and failed content reads
  Gauge* used_bytes_;
  Gauge* capacity_bytes_;
};

// Admission policy from the SOSP storage-management scheme: a node accepts a
// replica only if the file is small relative to its remaining free space,
// with a stricter threshold for diverted replicas (which have already been
// pushed off their primary node).
struct StoragePolicy {
  double t_pri = 0.1;   // max size/free ratio for a primary replica
  double t_div = 0.05;  // max size/free ratio for a diverted replica

  bool AcceptPrimary(uint64_t size, uint64_t free_space) const {
    return size <= free_space &&
           static_cast<double>(size) <= t_pri * static_cast<double>(free_space);
  }
  bool AcceptDiverted(uint64_t size, uint64_t free_space) const {
    return size <= free_space &&
           static_cast<double>(size) <= t_div * static_cast<double>(free_space);
  }
};

}  // namespace past

