// Filesystem abstraction for the disk storage engine.
//
// The engine never touches the OS directly: every file operation goes
// through an Env, so tests can substitute a FaultInjectionEnv (fault_env.h)
// that records the write stream and re-materializes it truncated at an
// arbitrary crash point. The default Env is a thin POSIX/stdio wrapper.
//
// All operations return StatusCode (kUnavailable for I/O errors) — disk
// failures are runtime conditions, never invariant violations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace past {

// A sequential append-only file handle. Append order defines the on-disk
// byte order; Sync makes everything appended so far durable.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual StatusCode Append(ByteSpan data) = 0;
  virtual StatusCode Sync() = 0;
  virtual StatusCode Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // Creates `dir` and any missing parents; kOk if it already exists.
  virtual StatusCode CreateDirs(const std::string& dir) = 0;
  // Names (not paths) of regular files directly inside `dir`.
  virtual StatusCode ListDir(const std::string& dir,
                             std::vector<std::string>* names) = 0;
  // Opens `path` for appending, creating it if absent (existing bytes are
  // preserved — recovery reopens the active segment).
  virtual StatusCode NewWritableFile(const std::string& path,
                                     std::unique_ptr<WritableFile>* out) = 0;
  virtual StatusCode ReadFile(const std::string& path, Bytes* out) = 0;
  virtual StatusCode ReadRange(const std::string& path, uint64_t offset,
                               size_t length, Bytes* out) = 0;
  virtual StatusCode FileSize(const std::string& path, uint64_t* size) = 0;
  virtual StatusCode RemoveFile(const std::string& path) = 0;
  // Shrinks `path` to `size` bytes (used to cut a torn tail off a log).
  virtual StatusCode TruncateFile(const std::string& path, uint64_t size) = 0;

  // The process-wide POSIX environment.
  static Env* Default();
};

}  // namespace past

