#include "src/storage/store_backend.h"

namespace past {

StatusCode MemoryBackend::Put(StoredFile file, Bytes content) {
  const FileId id = file.cert.file_id;
  files_[id] = Entry{std::move(file), std::move(content)};
  return StatusCode::kOk;
}

const StoredFile* MemoryBackend::Get(const FileId& id) const {
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : &it->second.file;
}

Result<Bytes> MemoryBackend::ReadContent(const FileId& id) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return StatusCode::kNotFound;
  }
  return it->second.content;
}

bool MemoryBackend::Remove(const FileId& id) { return files_.erase(id) > 0; }

StatusCode MemoryBackend::PutPointer(const FileId& id,
                                     const NodeDescriptor& holder) {
  pointers_[id] = holder;
  return StatusCode::kOk;
}

std::optional<NodeDescriptor> MemoryBackend::GetPointer(const FileId& id) const {
  auto it = pointers_.find(id);
  if (it == pointers_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool MemoryBackend::RemovePointer(const FileId& id) {
  return pointers_.erase(id) > 0;
}

std::vector<FileId> MemoryBackend::FileIds() const {
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const auto& [id, entry] : files_) {
    out.push_back(id);
  }
  return out;
}

}  // namespace past
