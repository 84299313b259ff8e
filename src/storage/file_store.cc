#include "src/storage/file_store.h"

#include "src/common/check.h"

namespace past {

FileStore::FileStore(uint64_t capacity, MetricsRegistry& metrics)
    : FileStore(capacity, std::make_unique<MemoryBackend>(), metrics) {}

FileStore::FileStore(uint64_t capacity, std::unique_ptr<StoreBackend> backend,
                     MetricsRegistry& metrics)
    : capacity_(capacity),
      backend_(std::move(backend)),
      puts_(metrics.GetCounter("store.puts")),
      rejects_(metrics.GetCounter("store.rejects")),
      removes_(metrics.GetCounter("store.removes")),
      io_errors_(metrics.GetCounter("store.io_errors")),
      used_bytes_(metrics.GetGauge("store.used_bytes")),
      capacity_bytes_(metrics.GetGauge("store.capacity_bytes")) {
  PAST_CHECK(backend_ != nullptr);
  capacity_bytes_->Add(static_cast<double>(capacity_));
  // A recovered backend already holds replicas; account for them so
  // admission decisions after a restart see the true free space.
  for (const FileId& id : backend_->FileIds()) {
    const StoredFile* file = backend_->Get(id);
    PAST_CHECK(file != nullptr);
    AccountUsed(static_cast<int64_t>(file->cert.file_size));
  }
}

FileStore::~FileStore() {
  // The shared gauges outlive this store; give back its contribution so
  // system-wide utilization stays truthful across node restarts.
  capacity_bytes_->Sub(static_cast<double>(capacity_));
  used_bytes_->Sub(static_cast<double>(used_));
}

StatusCode FileStore::Put(StoredFile file, Bytes content) {
  const FileId id = file.cert.file_id;
  if (backend_->Get(id) != nullptr) {
    rejects_->Inc();
    return StatusCode::kAlreadyExists;
  }
  const uint64_t size = file.cert.file_size;
  if (size > free_space()) {
    rejects_->Inc();
    return StatusCode::kInsufficientStorage;
  }
  StatusCode status = backend_->Put(std::move(file), std::move(content));
  if (status != StatusCode::kOk) {
    rejects_->Inc();
    io_errors_->Inc();
    return status;
  }
  AccountUsed(static_cast<int64_t>(size));
  puts_->Inc();
  return StatusCode::kOk;
}

Result<Bytes> FileStore::ReadContent(const FileId& id) const {
  Result<Bytes> content = backend_->ReadContent(id);
  if (!content.ok() && content.status() != StatusCode::kNotFound) {
    io_errors_->Inc();
  }
  return content;
}

std::optional<uint64_t> FileStore::Remove(const FileId& id) {
  const StoredFile* file = backend_->Get(id);
  if (file == nullptr) {
    return std::nullopt;
  }
  uint64_t size = file->cert.file_size;
  PAST_CHECK(size <= used_);
  if (!backend_->Remove(id)) {
    io_errors_->Inc();
    return std::nullopt;
  }
  AccountUsed(-static_cast<int64_t>(size));
  removes_->Inc();
  return size;
}

void FileStore::AccountUsed(int64_t delta) {
  used_ = static_cast<uint64_t>(static_cast<int64_t>(used_) + delta);
  used_bytes_->Add(static_cast<double>(delta));
}

StatusCode FileStore::PutPointer(const FileId& id, const NodeDescriptor& holder) {
  StatusCode status = backend_->PutPointer(id, holder);
  if (status != StatusCode::kOk) {
    io_errors_->Inc();
  }
  return status;
}

std::optional<NodeDescriptor> FileStore::GetPointer(const FileId& id) const {
  return backend_->GetPointer(id);
}

bool FileStore::RemovePointer(const FileId& id) {
  if (!backend_->GetPointer(id).has_value()) {
    return false;
  }
  if (!backend_->RemovePointer(id)) {
    io_errors_->Inc();
    return false;
  }
  return true;
}

}  // namespace past
