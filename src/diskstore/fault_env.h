// Crash-injection Env for testing DiskStore recovery.
//
// FaultInjectionEnv forwards every operation to a base Env while recording
// the mutating ones (create / write / sync / remove / truncate) with their
// offsets and payloads. After driving a store through a workload, a test can
// Materialize() the state a crash would have left behind at ANY prefix of
// that operation log — optionally tearing the final write in half or
// dropping one write entirely (the lost bytes read back as zeros, the way a
// never-written page does) — into a fresh directory, then Open() a store
// there and check what recovery reconstructs.
//
// The env is meant to be pointed at an initially empty directory: the
// operation log is the sole source of truth for Materialize(). It is not
// synchronized: one thread drives the store and reads the log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/diskstore/env.h"

namespace past {

struct EnvOp {
  enum class Kind : uint8_t { kCreate, kWrite, kSync, kRemove, kTruncate };
  Kind kind;
  std::string path;  // relative to the env's base dir
  uint64_t offset = 0;  // kWrite: where the data lands
  uint64_t size = 0;    // kTruncate: resulting file size
  Bytes data;           // kWrite payload
};

struct MaterializeOptions {
  // Apply ops [0, op_count); the crash happens after the op_count-th op.
  size_t op_count = 0;
  // If the last applied op is a write, persist only its first
  // torn_tail_bytes bytes. SIZE_MAX = the write landed whole.
  size_t torn_tail_bytes = SIZE_MAX;
  // Drop the op at this index entirely (a write lost in the page cache);
  // bytes later writes did not cover read back as zeros. SIZE_MAX = none.
  size_t drop_op = SIZE_MAX;
};

class FaultInjectionEnv : public Env {
 public:
  // Records ops on paths under `base_dir`; everything still executes
  // against `base` for real.
  FaultInjectionEnv(Env* base, std::string base_dir);

  StatusCode CreateDirs(const std::string& dir) override;
  StatusCode ListDir(const std::string& dir,
                     std::vector<std::string>* names) override;
  StatusCode NewWritableFile(const std::string& path,
                             std::unique_ptr<WritableFile>* out) override;
  StatusCode ReadFile(const std::string& path, Bytes* out) override;
  StatusCode ReadRange(const std::string& path, uint64_t offset, size_t length,
                       Bytes* out) override;
  StatusCode FileSize(const std::string& path, uint64_t* size) override;
  StatusCode RemoveFile(const std::string& path) override;
  StatusCode TruncateFile(const std::string& path, uint64_t size) override;

  const std::vector<EnvOp>& ops() const { return ops_; }

  // Reconstructs the post-crash directory contents into `target_dir`
  // (created if needed, assumed empty) using `base` for the writes.
  StatusCode Materialize(const std::string& target_dir,
                         const MaterializeOptions& options) const;

 private:
  friend class FaultWritableFile;

  std::string Rel(const std::string& path) const;
  // Appends a write op at the file's current size.
  void RecordAppend(const std::string& rel, ByteSpan data);
  void RecordSync(const std::string& rel);

  Env* base_;
  const std::string base_dir_;
  std::vector<EnvOp> ops_;
  // Model of each file's current size, so appends know their offset.
  std::unordered_map<std::string, uint64_t> sizes_;
};

}  // namespace past

