#include "src/diskstore/fault_env.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"

namespace past {

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string rel,
                    std::unique_ptr<WritableFile> base)
      : env_(env), rel_(std::move(rel)), base_(std::move(base)) {}
  ~FaultWritableFile() override = default;

  StatusCode Append(ByteSpan data) override {
    StatusCode status = base_->Append(data);
    if (status == StatusCode::kOk) {
      env_->RecordAppend(rel_, data);
    }
    return status;
  }

  StatusCode Sync() override {
    StatusCode status = base_->Sync();
    if (status == StatusCode::kOk) {
      env_->RecordSync(rel_);
    }
    return status;
  }

  StatusCode Close() override { return base_->Close(); }

 private:
  FaultInjectionEnv* env_;
  const std::string rel_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base, std::string base_dir)
    : base_(base), base_dir_(std::move(base_dir)) {}

std::string FaultInjectionEnv::Rel(const std::string& path) const {
  if (path.rfind(base_dir_ + "/", 0) == 0) {
    return path.substr(base_dir_.size() + 1);
  }
  return path;
}

void FaultInjectionEnv::RecordAppend(const std::string& rel, ByteSpan data) {
  const uint64_t offset = sizes_[rel];
  EnvOp op;
  op.kind = EnvOp::Kind::kWrite;
  op.path = rel;
  op.offset = offset;
  op.data.assign(data.begin(), data.end());
  ops_.push_back(std::move(op));
  sizes_[rel] = std::max(sizes_[rel], offset + data.size());
}

void FaultInjectionEnv::RecordSync(const std::string& rel) {
  EnvOp op;
  op.kind = EnvOp::Kind::kSync;
  op.path = rel;
  ops_.push_back(std::move(op));
}

StatusCode FaultInjectionEnv::CreateDirs(const std::string& dir) {
  return base_->CreateDirs(dir);
}

StatusCode FaultInjectionEnv::ListDir(const std::string& dir,
                                      std::vector<std::string>* names) {
  return base_->ListDir(dir, names);
}

StatusCode FaultInjectionEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<WritableFile> base_file;
  StatusCode status = base_->NewWritableFile(path, &base_file);
  if (status != StatusCode::kOk) {
    return status;
  }
  const std::string rel = Rel(path);
  if (sizes_.find(rel) == sizes_.end()) {
    // First time this env sees the file; it must not predate the env, or
    // the op log would not describe its full contents.
    uint64_t on_disk = 0;
    PAST_CHECK_MSG(base_->FileSize(path, &on_disk) == StatusCode::kNotFound || on_disk == 0,
                   "FaultInjectionEnv requires an initially empty directory");
    sizes_[rel] = 0;
    EnvOp op;
    op.kind = EnvOp::Kind::kCreate;
    op.path = rel;
    ops_.push_back(std::move(op));
  }
  *out = std::make_unique<FaultWritableFile>(this, rel, std::move(base_file));
  return StatusCode::kOk;
}

StatusCode FaultInjectionEnv::ReadFile(const std::string& path, Bytes* out) {
  return base_->ReadFile(path, out);
}

StatusCode FaultInjectionEnv::ReadRange(const std::string& path,
                                        uint64_t offset, size_t length,
                                        Bytes* out) {
  return base_->ReadRange(path, offset, length, out);
}

StatusCode FaultInjectionEnv::FileSize(const std::string& path,
                                       uint64_t* size) {
  return base_->FileSize(path, size);
}

StatusCode FaultInjectionEnv::RemoveFile(const std::string& path) {
  StatusCode status = base_->RemoveFile(path);
  if (status == StatusCode::kOk) {
    const std::string rel = Rel(path);
    sizes_.erase(rel);
    EnvOp op;
    op.kind = EnvOp::Kind::kRemove;
    op.path = rel;
    ops_.push_back(std::move(op));
  }
  return status;
}

StatusCode FaultInjectionEnv::TruncateFile(const std::string& path,
                                           uint64_t size) {
  StatusCode status = base_->TruncateFile(path, size);
  if (status == StatusCode::kOk) {
    const std::string rel = Rel(path);
    sizes_[rel] = size;
    EnvOp op;
    op.kind = EnvOp::Kind::kTruncate;
    op.path = rel;
    op.size = size;
    ops_.push_back(std::move(op));
  }
  return status;
}

StatusCode FaultInjectionEnv::Materialize(
    const std::string& target_dir, const MaterializeOptions& options) const {
  PAST_CHECK(options.op_count <= ops_.size());
  std::map<std::string, Bytes> model;
  for (size_t i = 0; i < options.op_count; ++i) {
    if (i == options.drop_op) {
      continue;
    }
    const EnvOp& op = ops_[i];
    switch (op.kind) {
      case EnvOp::Kind::kCreate:
        model.try_emplace(op.path);
        break;
      case EnvOp::Kind::kWrite: {
        size_t take = op.data.size();
        if (i + 1 == options.op_count &&
            options.torn_tail_bytes != SIZE_MAX) {
          take = std::min(take, options.torn_tail_bytes);
        }
        Bytes& file = model[op.path];
        // Zero-fill any gap a dropped earlier write left behind.
        if (file.size() < op.offset + take) {
          file.resize(op.offset + take, 0);
        }
        std::copy(op.data.begin(), op.data.begin() + take,
                  file.begin() + op.offset);
        break;
      }
      case EnvOp::Kind::kSync:
        break;
      case EnvOp::Kind::kRemove:
        model.erase(op.path);
        break;
      case EnvOp::Kind::kTruncate: {
        Bytes& file = model[op.path];
        file.resize(op.size, 0);
        break;
      }
    }
  }
  StatusCode status = base_->CreateDirs(target_dir);
  if (status != StatusCode::kOk) {
    return status;
  }
  for (const auto& [rel, content] : model) {
    std::unique_ptr<WritableFile> out;
    status = base_->NewWritableFile(target_dir + "/" + rel, &out);
    if (status != StatusCode::kOk) {
      return status;
    }
    status = out->Append(ByteSpan(content.data(), content.size()));
    if (status == StatusCode::kOk) {
      status = out->Close();
    }
    if (status != StatusCode::kOk) {
      return status;
    }
  }
  return StatusCode::kOk;
}

}  // namespace past
