// FlakyEnv — a test Env over the default one that fails the way a full or
// failing disk does (ENOSPC, EIO), reporting kUnavailable:
//  * space_left: the disk takes that many more bytes; an append that does
//    not fit writes the part that does and then fails, as a write(2) that
//    runs out of space does (0: every non-empty append fails);
//  * syncs_left: that many more fsyncs succeed, every later one fails;
//  * fail_reads: every ranged read fails.
// Open() still works (a fresh store replays nothing), so a test opens the
// store healthy and then turns the faults on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/diskstore/env.h"

namespace past {

class FlakyEnv : public Env {
 public:
  static constexpr int64_t kUnlimited = -1;
  int64_t space_left = kUnlimited;
  int64_t syncs_left = kUnlimited;
  bool fail_reads = false;

  StatusCode CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  StatusCode ListDir(const std::string& dir,
                     std::vector<std::string>* names) override {
    return base_->ListDir(dir, names);
  }
  StatusCode NewWritableFile(const std::string& path,
                             std::unique_ptr<WritableFile>* out) override {
    std::unique_ptr<WritableFile> file;
    StatusCode status = base_->NewWritableFile(path, &file);
    if (status == StatusCode::kOk) {
      *out = std::make_unique<File>(this, std::move(file));
    }
    return status;
  }
  StatusCode ReadFile(const std::string& path, Bytes* out) override {
    return base_->ReadFile(path, out);
  }
  StatusCode ReadRange(const std::string& path, uint64_t offset, size_t length,
                       Bytes* out) override {
    if (fail_reads) {
      return StatusCode::kUnavailable;
    }
    return base_->ReadRange(path, offset, length, out);
  }
  StatusCode FileSize(const std::string& path, uint64_t* size) override {
    return base_->FileSize(path, size);
  }
  StatusCode RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  StatusCode TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  class File : public WritableFile {
   public:
    File(FlakyEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    StatusCode Append(ByteSpan data) override {
      int64_t& space = env_->space_left;
      if (space == kUnlimited) {
        return base_->Append(data);
      }
      if (data.size() <= static_cast<uint64_t>(space)) {
        space -= static_cast<int64_t>(data.size());
        return base_->Append(data);
      }
      const size_t fits = static_cast<size_t>(space);
      space = 0;
      if (fits > 0) {
        IgnoreStatus(base_->Append(data.first(fits)));
      }
      return StatusCode::kUnavailable;
    }
    StatusCode Sync() override {
      int64_t& syncs = env_->syncs_left;
      if (syncs == 0) {
        return StatusCode::kUnavailable;
      }
      if (syncs != kUnlimited) {
        --syncs;
      }
      return base_->Sync();
    }
    StatusCode Close() override { return base_->Close(); }

   private:
    FlakyEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* base_ = Env::Default();
};

}  // namespace past
