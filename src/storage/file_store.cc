#include "src/storage/file_store.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/serializer.h"

namespace past {

FileStore::FileStore(uint64_t capacity, MetricsRegistry& metrics, CertificateTable& certs)
    : FileStore(capacity, nullptr, metrics, certs) {}

FileStore::FileStore(uint64_t capacity, std::unique_ptr<DiskStore> disk,
                     MetricsRegistry& metrics, CertificateTable& certs)
    : certs_(&certs),
      capacity_(capacity),
      disk_(std::move(disk)),
      puts_(metrics.GetCounter("store.puts")),
      rejects_(metrics.GetCounter("store.rejects")),
      removes_(metrics.GetCounter("store.removes")),
      io_errors_(metrics.GetCounter("store.io_errors")),
      used_bytes_(metrics.GetGauge("store.used_bytes")),
      capacity_bytes_(metrics.GetGauge("store.capacity_bytes")) {
  capacity_bytes_->Add(static_cast<double>(capacity_));
}

Result<std::unique_ptr<FileStore>> FileStore::Open(uint64_t capacity,
                                                   const std::string& dir,
                                                   DiskStoreOptions options,
                                                   MetricsRegistry& metrics,
                                                   CertificateTable& certs) {
  options.metrics = &metrics;
  Result<std::unique_ptr<DiskStore>> disk = DiskStore::Open(dir, options);
  if (!disk.ok()) {
    return disk.status();
  }
  std::unique_ptr<FileStore> store(
      new FileStore(capacity, std::move(disk).value(), metrics, certs));
  if (StatusCode status = store->LoadRecovered(); status != StatusCode::kOk) {
    return status;
  }
  return store;
}

FileStore::~FileStore() {
  // The shared gauges outlive this store; give back its contribution so
  // system-wide utilization stays truthful across node restarts.
  capacity_bytes_->Sub(static_cast<double>(capacity_));
  used_bytes_->Sub(static_cast<double>(used_));
}

StatusCode FileStore::LoadRecovered() {
  for (const U160& key : disk_->Keys()) {
    Result<Bytes> value = disk_->Get(key);
    if (!value.ok()) {
      return value.status();
    }
    Entry entry;
    if (!DecodeRecord(value.value(), &entry) || entry.file.cert->file_id != key) {
      return StatusCode::kCorruption;
    }
    // A recovered replica counts against free space, so admission after a
    // restart sees the true free space.
    AccountUsed(static_cast<int64_t>(entry.file.cert->file_size));
    entry.file.cert = certs_->Intern(*entry.file.cert);
    files_[key] = Entry{std::move(entry.file), {}};
  }
  for (const U160& key : disk_->PointerKeys()) {
    Result<Bytes> value = disk_->GetPointer(key);
    if (!value.ok()) {
      return value.status();
    }
    NodeDescriptor holder;
    if (!DecodeRecord(value.value(), &holder)) {
      return StatusCode::kCorruption;
    }
    pointers_[key] = holder;
  }
  return StatusCode::kOk;
}

StatusCode FileStore::Put(StoredFile file, Bytes content) {
  const FileId id = file.cert->file_id;
  if (Has(id)) {
    rejects_->Inc();
    return StatusCode::kAlreadyExists;
  }
  const uint64_t size = file.cert->file_size;
  if (size > free_space()) {
    rejects_->Inc();
    return StatusCode::kInsufficientStorage;
  }
  file.cert = certs_->Intern(*file.cert);
  Entry entry{std::move(file), std::move(content)};
  if (disk_ != nullptr) {
    if (StatusCode status = disk_->Put(id, EncodeRecord(entry)); status != StatusCode::kOk) {
      rejects_->Inc();
      io_errors_->Inc();
      return status;
    }
    // A durable store keeps no content: the log holds it.
    entry.content = Bytes();
  }
  files_[id] = std::move(entry);
  AccountUsed(static_cast<int64_t>(size));
  puts_->Inc();
  return StatusCode::kOk;
}

const StoredFile* FileStore::Get(const FileId& id) const {
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : &it->second.file;
}

Result<Bytes> FileStore::ReadContent(const FileId& id) const {
  // The metadata decides what is held: the log also indexes a replica whose
  // Put failed after its record landed (a failed sync or compaction).
  auto it = files_.find(id);
  if (it == files_.end()) {
    return StatusCode::kNotFound;
  }
  if (disk_ == nullptr) {
    return it->second.content;
  }
  // kNotFound from the log is no I/O error: a Remove landed its tombstone
  // and then failed to sync, and the next Remove completes it.
  Result<Bytes> value = disk_->Get(id);
  if (!value.ok()) {
    if (value.status() != StatusCode::kNotFound) {
      io_errors_->Inc();
    }
    return value.status();
  }
  Entry entry;
  if (!DecodeRecord(value.value(), &entry)) {
    io_errors_->Inc();
    return StatusCode::kCorruption;
  }
  return std::move(entry.content);
}

std::optional<uint64_t> FileStore::Remove(const FileId& id) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return std::nullopt;
  }
  const uint64_t size = it->second.file.cert->file_size;
  PAST_CHECK(size <= used_);
  // kNotFound with the replica still in the map: an earlier Remove landed
  // its tombstone and then failed, so the log has already dropped it.
  if (disk_ != nullptr) {
    if (StatusCode status = disk_->Remove(id);
        status != StatusCode::kOk && status != StatusCode::kNotFound) {
      io_errors_->Inc();
      return std::nullopt;
    }
  }
  files_.erase(it);
  AccountUsed(-static_cast<int64_t>(size));
  removes_->Inc();
  return size;
}

std::vector<FileId> FileStore::FileIds() const {
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const auto& [id, entry] : files_) {
    out.push_back(id);
  }
  return out;
}

void FileStore::AccountUsed(int64_t delta) {
  used_ = static_cast<uint64_t>(static_cast<int64_t>(used_) + delta);
  used_bytes_->Add(static_cast<double>(delta));
}

StatusCode FileStore::PutPointer(const FileId& id, const NodeDescriptor& holder) {
  if (disk_ != nullptr) {
    if (StatusCode status = disk_->PutPointer(id, EncodeRecord(holder));
        status != StatusCode::kOk) {
      io_errors_->Inc();
      return status;
    }
  }
  pointers_[id] = holder;
  return StatusCode::kOk;
}

std::optional<NodeDescriptor> FileStore::GetPointer(const FileId& id) const {
  auto it = pointers_.find(id);
  if (it == pointers_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool FileStore::RemovePointer(const FileId& id) {
  auto it = pointers_.find(id);
  if (it == pointers_.end()) {
    return false;
  }
  if (disk_ != nullptr) {
    if (StatusCode status = disk_->RemovePointer(id);
        status != StatusCode::kOk && status != StatusCode::kNotFound) {
      io_errors_->Inc();
      return false;
    }
  }
  pointers_.erase(it);
  return true;
}

}  // namespace past
