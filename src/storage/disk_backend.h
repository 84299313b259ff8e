// DiskBackend — a StoreBackend written through to the durable log engine.
//
// Every mutation is appended to the engine before the in-memory metadata is
// updated, so Open() on the same directory after a crash or restart rebuilds
// exactly the acknowledged (and, with sync, durable) state. Replica values
// are serialized StoredFiles with their content; pointer values are
// serialized NodeDescriptors.
//
// Memory holds only what every decision needs: each replica's StoredFile
// (certificate and diversion fields) and the pointer map, in a MemoryBackend
// whose entries carry no content. Content stays on disk and is read back
// through the engine by ReadContent.
#pragma once

#include <memory>
#include <string>

#include "src/diskstore/disk_store.h"
#include "src/storage/store_backend.h"

namespace past {

class DiskBackend : public StoreBackend {
 public:
  // Opens (creating if needed) the engine in `dir`, replays its log, and
  // decodes the recovered metadata. Fails with kCorruption when a recovered
  // value does not decode, or with whatever DiskStore::Open reports.
  static Result<std::unique_ptr<DiskBackend>> Open(
      const std::string& dir, const DiskStoreOptions& options);

  StatusCode Put(StoredFile file, Bytes content) override;
  const StoredFile* Get(const FileId& id) const override;
  Result<Bytes> ReadContent(const FileId& id) const override;
  [[nodiscard]] bool Remove(const FileId& id) override;

  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder) override;
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const override;
  [[nodiscard]] bool RemovePointer(const FileId& id) override;

  std::vector<FileId> FileIds() const override;
  size_t file_count() const override { return meta_.file_count(); }
  size_t pointer_count() const override { return meta_.pointer_count(); }

  StatusCode Sync() override { return engine_->Sync(); }

 private:
  explicit DiskBackend(std::unique_ptr<DiskStore> engine);

  // Decodes the metadata of everything the engine recovered.
  StatusCode LoadRecovered();

  std::unique_ptr<DiskStore> engine_;
  // Metadata and pointers; every replica is put here with empty content.
  MemoryBackend meta_;
};

}  // namespace past
