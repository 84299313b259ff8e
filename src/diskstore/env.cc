#include "src/diskstore/env.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace past {
namespace {

namespace fs = std::filesystem;

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  StatusCode Append(ByteSpan data) override {
    const uint8_t* p = data.data();
    size_t n = data.size();
    while (n > 0) {
      ssize_t written = ::write(fd_, p, n);
      if (written < 0) {
        if (errno == EINTR) {
          continue;
        }
        return StatusCode::kUnavailable;
      }
      p += written;
      n -= static_cast<size_t>(written);
    }
    return StatusCode::kOk;
  }

  StatusCode Sync() override {
    return ::fsync(fd_) == 0 ? StatusCode::kOk : StatusCode::kUnavailable;
  }

  StatusCode Close() override {
    if (fd_ < 0) {
      return StatusCode::kOk;
    }
    int rc = ::close(fd_);
    fd_ = -1;
    return rc == 0 ? StatusCode::kOk : StatusCode::kUnavailable;
  }

 private:
  int fd_;
};

class PosixEnv : public Env {
 public:
  StatusCode CreateDirs(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    return ec ? StatusCode::kUnavailable : StatusCode::kOk;
  }

  StatusCode ListDir(const std::string& dir,
                     std::vector<std::string>* names) override {
    names->clear();
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      return StatusCode::kUnavailable;
    }
    for (const auto& entry : it) {
      if (entry.is_regular_file(ec)) {
        names->push_back(entry.path().filename().string());
      }
    }
    return StatusCode::kOk;
  }

  StatusCode NewWritableFile(const std::string& path,
                             std::unique_ptr<WritableFile>* out) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
      return StatusCode::kUnavailable;
    }
    *out = std::make_unique<PosixWritableFile>(fd);
    return StatusCode::kOk;
  }

  StatusCode ReadFile(const std::string& path, Bytes* out) override {
    uint64_t size = 0;
    StatusCode status = FileSize(path, &size);
    if (status != StatusCode::kOk) {
      return status;
    }
    return ReadRange(path, 0, static_cast<size_t>(size), out);
  }

  StatusCode ReadRange(const std::string& path, uint64_t offset, size_t length,
                       Bytes* out) override {
    out->clear();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return StatusCode::kUnavailable;
    }
    out->resize(length);
    size_t done = 0;
    while (done < length) {
      ssize_t n = ::pread(fd, out->data() + done, length - done,
                          static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        ::close(fd);
        out->clear();
        // A short read means the caller's idea of the file is stale.
        return n == 0 ? StatusCode::kOutOfRange : StatusCode::kUnavailable;
      }
      done += static_cast<size_t>(n);
    }
    ::close(fd);
    return StatusCode::kOk;
  }

  StatusCode FileSize(const std::string& path, uint64_t* size) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return errno == ENOENT ? StatusCode::kNotFound : StatusCode::kUnavailable;
    }
    *size = static_cast<uint64_t>(st.st_size);
    return StatusCode::kOk;
  }

  StatusCode RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return errno == ENOENT ? StatusCode::kNotFound : StatusCode::kUnavailable;
    }
    return StatusCode::kOk;
  }

  StatusCode TruncateFile(const std::string& path, uint64_t size) override {
    return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0
               ? StatusCode::kOk
               : StatusCode::kUnavailable;
  }
};

}  // namespace

Env* Env::Default() {
  // lint:allow-global-state stateless singleton of syscall wrappers
  static PosixEnv env;
  return &env;
}

}  // namespace past
