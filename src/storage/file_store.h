// FileStore — the primary replica store of a PAST node.
//
// Tracks the node's advertised capacity, the replicas it holds (primary and
// diverted), and pointers to replicas it diverted elsewhere (the indirection
// of the SOSP storage-management scheme). Content bytes may be empty for
// synthetic workloads; accounting always uses the certified file size.
//
// Every replica's metadata (StoredFile) and every pointer stay in memory.
// An in-memory store keeps each replica's content beside its metadata. A
// durable store (Open) writes every mutation through to one DiskStore before
// it changes the maps, keeps no content in memory and reads it back from the
// log, and on Open replays the log into the maps, so a restarted node
// recovers its replicas, its pointers and its used bytes. Each replica's
// certificate is a handle into a CertificateTable, shared with the network's
// other holders of that file. The store.* counts live only in the registry
// the store is given.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/diskstore/disk_store.h"
#include "src/obs/metrics.h"
#include "src/pastry/node_id.h"
#include "src/storage/certificates.h"

namespace past {

// A replica's metadata; its content is read with FileStore::ReadContent.
struct StoredFile {
  SharedCertificate cert;
  bool diverted = false;  // stored here on behalf of another node
  NodeDescriptor diverted_from;  // the node holding the pointer (if diverted)
};

class FileStore {
 public:
  // An in-memory store. Accept/reject/error counts and the capacity/used-bytes
  // gauges go to the shared "store.*" instruments of `metrics` (aggregated
  // across every store on the same registry, giving system-wide utilization).
  // Certificates are interned in `certs`, which must outlive the store.
  FileStore(uint64_t capacity, MetricsRegistry& metrics, CertificateTable& certs);
  // A durable store: opens (creating if needed) the log in `dir`, counting
  // its disk.* instruments into `metrics` too, and replays it into the maps,
  // counting every recovered replica into used() and interning its
  // certificate. Fails with kCorruption when a recovered record does not
  // decode or is filed under another file's id, or with whatever
  // DiskStore::Open reports.
  static Result<std::unique_ptr<FileStore>> Open(uint64_t capacity,
                                                 const std::string& dir,
                                                 DiskStoreOptions options,
                                                 MetricsRegistry& metrics,
                                                 CertificateTable& certs);
  ~FileStore();

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  uint64_t free_space() const { return capacity_ - used_; }
  double utilization() const {
    return capacity_ == 0 ? 0.0 : static_cast<double>(used_) / capacity_;
  }

  // Stores a replica (empty content for a synthetic file), holding the
  // table's object for its certificate. Fails with kInsufficientStorage if
  // it does not fit, kAlreadyExists on duplicate fileId, and with the disk's
  // status on an I/O error.
  StatusCode Put(StoredFile file, Bytes content = {});
  bool Has(const FileId& id) const { return files_.count(id) > 0; }
  // Null when absent. The pointer stays valid until the entry is mutated.
  const StoredFile* Get(const FileId& id) const;
  // The replica's content: kNotFound when absent, the disk's status when
  // the read fails.
  Result<Bytes> ReadContent(const FileId& id) const;
  // Removes the replica and releases its space. Returns the freed size, or
  // nullopt if absent or the disk refused to remove it.
  std::optional<uint64_t> Remove(const FileId& id);

  // Diverted-replica pointers: fileId -> node actually holding the replica.
  // A durable store fails with kUnavailable on I/O errors. RemovePointer
  // returns false when the pointer is absent or the disk refused to drop it
  // (the pointer stays).
  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder);
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const;
  [[nodiscard]] bool RemovePointer(const FileId& id);

  std::vector<FileId> FileIds() const;
  size_t file_count() const { return files_.size(); }
  size_t pointer_count() const { return pointers_.size(); }

  // Flushes acknowledged writes to stable storage (no-op in memory).
  StatusCode Sync() { return disk_ == nullptr ? StatusCode::kOk : disk_->Sync(); }

 private:
  // A replica, and its logged record: the certificate, the content, then
  // the diversion state. A pointer's record is the holder's NodeDescriptor.
  // A decoded record's certificate is a fresh object until interned.
  struct Entry {
    StoredFile file;
    Bytes content;  // always empty in a durable store: the log holds it

    static auto Fields(auto& e) {
      return std::tie(e.file.cert, e.content, e.file.diverted, e.file.diverted_from);
    }
  };

  FileStore(uint64_t capacity, std::unique_ptr<DiskStore> disk, MetricsRegistry& metrics,
            CertificateTable& certs);
  // Decodes everything the log recovered into the maps.
  StatusCode LoadRecovered();
  void AccountUsed(int64_t delta);

  CertificateTable* certs_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::unordered_map<U160, Entry, U160Hash> files_;
  std::unordered_map<U160, NodeDescriptor, U160Hash> pointers_;
  std::unique_ptr<DiskStore> disk_;  // null for an in-memory store

  // Shared registry instruments.
  Counter* puts_;
  Counter* rejects_;
  Counter* removes_;
  Counter* io_errors_;  // refused disk writes and failed content reads
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
