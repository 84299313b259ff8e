// StoreBackend — where a FileStore keeps its replicas and pointers.
//
// FileStore owns the PAST semantics (capacity accounting, duplicate and
// admission checks, store.* metrics); the backend is a dumb keyed container
// with two keyspaces. A replica's metadata (StoredFile) is always in memory;
// its content is read on demand, only where a reply carries the bytes.
// MemoryBackend is the default and holds everything in maps; DiskBackend
// (disk_backend.h) writes through to the durable log engine and reads
// content back from it, so a restarted node recovers its state.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/pastry/node_id.h"
#include "src/storage/certificates.h"

namespace past {

// A replica's metadata; its content lives in the backend (ReadContent).
struct StoredFile {
  FileCertificate cert;
  bool diverted = false;  // stored here on behalf of another node
  NodeDescriptor diverted_from;  // the node holding the pointer (if diverted)
};

class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  // Inserts or replaces the replica keyed by file.cert.file_id; `content`
  // may be empty in synthetic-content mode. Durable backends may fail with
  // kUnavailable on I/O errors.
  virtual StatusCode Put(StoredFile file, Bytes content) = 0;
  // Null when absent. The pointer stays valid until the entry is mutated.
  virtual const StoredFile* Get(const FileId& id) const = 0;
  // The replica's content: kNotFound whenever Get(id) is null; durable
  // backends may fail with kUnavailable or kCorruption on I/O errors.
  virtual Result<Bytes> ReadContent(const FileId& id) const = 0;
  [[nodiscard]] virtual bool Remove(const FileId& id) = 0;

  virtual StatusCode PutPointer(const FileId& id,
                                const NodeDescriptor& holder) = 0;
  virtual std::optional<NodeDescriptor> GetPointer(const FileId& id) const = 0;
  [[nodiscard]] virtual bool RemovePointer(const FileId& id) = 0;

  virtual std::vector<FileId> FileIds() const = 0;
  virtual size_t file_count() const = 0;
  virtual size_t pointer_count() const = 0;

  // Flushes acknowledged writes to stable storage (no-op in memory).
  virtual StatusCode Sync() { return StatusCode::kOk; }
};

class MemoryBackend : public StoreBackend {
 public:
  StatusCode Put(StoredFile file, Bytes content) override;
  const StoredFile* Get(const FileId& id) const override;
  Result<Bytes> ReadContent(const FileId& id) const override;
  [[nodiscard]] bool Remove(const FileId& id) override;

  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder) override;
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const override;
  [[nodiscard]] bool RemovePointer(const FileId& id) override;

  std::vector<FileId> FileIds() const override;
  size_t file_count() const override { return files_.size(); }
  size_t pointer_count() const override { return pointers_.size(); }

 private:
  struct Entry {
    StoredFile file;
    Bytes content;
  };
  std::unordered_map<U160, Entry, U160Hash> files_;
  std::unordered_map<U160, NodeDescriptor, U160Hash> pointers_;
};

}  // namespace past

