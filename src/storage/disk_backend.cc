#include "src/storage/disk_backend.h"

#include <utility>

#include "src/common/serializer.h"
#include "src/pastry/messages.h"

namespace past {
namespace {

Bytes EncodeStoredFile(const StoredFile& file, ByteSpan content) {
  Writer w;
  file.cert.EncodeTo(&w);
  w.Blob(content);
  w.Bool(file.diverted);
  EncodeDescriptor(&w, file.diverted_from);
  return w.Take();
}

bool DecodeStoredFile(ByteSpan data, StoredFile* out, Bytes* content) {
  Reader r(data);
  return FileCertificate::DecodeFrom(&r, &out->cert) && r.Blob(content) &&
         r.Bool(&out->diverted) && DecodeDescriptor(&r, &out->diverted_from) &&
         r.AtEnd();
}

Bytes EncodePointer(const NodeDescriptor& holder) {
  Writer w;
  EncodeDescriptor(&w, holder);
  return w.Take();
}

bool DecodePointer(ByteSpan data, NodeDescriptor* out) {
  Reader r(data);
  return DecodeDescriptor(&r, out) && r.AtEnd();
}

}  // namespace

DiskBackend::DiskBackend(std::unique_ptr<DiskStore> engine)
    : engine_(std::move(engine)) {}

Result<std::unique_ptr<DiskBackend>> DiskBackend::Open(
    const std::string& dir, const DiskStoreOptions& options) {
  Result<std::unique_ptr<DiskStore>> engine = DiskStore::Open(dir, options);
  if (!engine.ok()) {
    return engine.status();
  }
  std::unique_ptr<DiskBackend> backend(
      new DiskBackend(std::move(engine).value()));
  StatusCode status = backend->LoadRecovered();
  if (status != StatusCode::kOk) {
    return status;
  }
  return backend;
}

StatusCode DiskBackend::LoadRecovered() {
  for (const U160& key : engine_->Keys()) {
    Result<Bytes> value = engine_->Get(key);
    if (!value.ok()) {
      return value.status();
    }
    StoredFile file;
    Bytes content;
    if (!DecodeStoredFile(ByteSpan(value.value().data(), value.value().size()),
                          &file, &content) ||
        file.cert.file_id != key) {
      return StatusCode::kCorruption;
    }
    if (StatusCode status = meta_.Put(std::move(file), {});
        status != StatusCode::kOk) {
      return status;
    }
  }
  for (const U160& key : engine_->PointerKeys()) {
    Result<Bytes> value = engine_->GetPointer(key);
    if (!value.ok()) {
      return value.status();
    }
    NodeDescriptor holder;
    if (!DecodePointer(ByteSpan(value.value().data(), value.value().size()),
                       &holder)) {
      return StatusCode::kCorruption;
    }
    if (StatusCode status = meta_.PutPointer(key, holder);
        status != StatusCode::kOk) {
      return status;
    }
  }
  return StatusCode::kOk;
}

StatusCode DiskBackend::Put(StoredFile file, Bytes content) {
  Bytes value = EncodeStoredFile(file, ByteSpan(content.data(), content.size()));
  StatusCode status =
      engine_->Put(file.cert.file_id, ByteSpan(value.data(), value.size()));
  if (status != StatusCode::kOk) {
    return status;
  }
  return meta_.Put(std::move(file), {});
}

const StoredFile* DiskBackend::Get(const FileId& id) const {
  return meta_.Get(id);
}

Result<Bytes> DiskBackend::ReadContent(const FileId& id) const {
  // The metadata decides what is held: the engine also indexes a replica
  // whose Put failed after its record landed (a failed sync or compaction).
  if (meta_.Get(id) == nullptr) {
    return StatusCode::kNotFound;
  }
  Result<Bytes> value = engine_->Get(id);
  if (!value.ok()) {
    return value.status();
  }
  StoredFile file;
  Bytes content;
  if (!DecodeStoredFile(ByteSpan(value.value().data(), value.value().size()),
                        &file, &content)) {
    return StatusCode::kCorruption;
  }
  return content;
}

bool DiskBackend::Remove(const FileId& id) {
  // kNotFound with the metadata still holding the replica: an earlier Remove
  // landed its record and then failed, so the engine has already dropped it.
  if (StatusCode status = engine_->Remove(id);
      status != StatusCode::kOk && status != StatusCode::kNotFound) {
    return false;
  }
  return meta_.Remove(id);
}

StatusCode DiskBackend::PutPointer(const FileId& id,
                                   const NodeDescriptor& holder) {
  Bytes value = EncodePointer(holder);
  StatusCode status =
      engine_->PutPointer(id, ByteSpan(value.data(), value.size()));
  if (status != StatusCode::kOk) {
    return status;
  }
  return meta_.PutPointer(id, holder);
}

std::optional<NodeDescriptor> DiskBackend::GetPointer(const FileId& id) const {
  return meta_.GetPointer(id);
}

bool DiskBackend::RemovePointer(const FileId& id) {
  if (StatusCode status = engine_->RemovePointer(id);
      status != StatusCode::kOk && status != StatusCode::kNotFound) {
    return false;
  }
  return meta_.RemovePointer(id);
}

std::vector<FileId> DiskBackend::FileIds() const { return meta_.FileIds(); }

}  // namespace past
