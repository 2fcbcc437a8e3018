#include "wal/wal_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hdd {

// ---------------------------------------------------------------------------
// SimWalStorage

Result<std::string> SimWalStorage::Read(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return std::string();
  return it->second.durable + it->second.buffered;
}

Result<std::uint64_t> SimWalStorage::Size(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return std::uint64_t{0};
  return static_cast<std::uint64_t>(it->second.durable.size() +
                                    it->second.buffered.size());
}

Status SimWalStorage::Append(const std::string& name, std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[name].buffered.append(data);
  return Status::OK();
}

Status SimWalStorage::Sync(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fail_syncs_ > 0) {
    --fail_syncs_;
    return Status::IoError("injected sync failure on " + name);
  }
  File& file = files_[name];
  file.durable.append(file.buffered);
  file.buffered.clear();
  return Status::OK();
}

Status SimWalStorage::Truncate(const std::string& name, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  File& file = files_[name];
  if (size <= file.durable.size()) {
    file.durable.resize(size);
    file.buffered.clear();
  } else {
    file.buffered.resize(size - file.durable.size());
  }
  return Status::OK();
}

void SimWalStorage::Crash(Rng& rng) {
  std::lock_guard<std::mutex> lock(mu_);
  // Iteration order (std::map) is name-sorted, so the same seed loses the
  // same bytes — crashes replay like everything else in the simulator.
  for (auto& [name, file] : files_) {
    (void)name;
    const std::uint64_t keep =
        file.buffered.empty()
            ? 0
            : rng.NextBounded(
                  static_cast<std::uint64_t>(file.buffered.size()) + 1);
    file.durable.append(file.buffered.data(), keep);
    file.buffered.clear();
  }
}

std::uint64_t SimWalStorage::BufferedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, file] : files_) {
    (void)name;
    total += file.buffered.size();
  }
  return total;
}

void SimWalStorage::FailNextSyncs(int count) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_syncs_ = count;
}

// ---------------------------------------------------------------------------
// FileWalStorage

FileWalStorage::FileWalStorage(std::string dir) : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0755);  // best effort; Fd() surfaces real failures
}

FileWalStorage::~FileWalStorage() {
  for (auto& [name, fd] : fds_) {
    (void)name;
    ::close(fd);
  }
}

Result<int> FileWalStorage::Fd(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(name);
  if (it != fds_.end()) return it->second;
  const std::string path = dir_ + "/" + name;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  fds_[name] = fd;
  return fd;
}

Result<std::string> FileWalStorage::Read(const std::string& name) {
  HDD_ASSIGN_OR_RETURN(const int fd, Fd(name));
  std::string out;
  char buf[1 << 16];
  std::uint64_t offset = 0;
  for (;;) {
    const ssize_t n = ::pread(fd, buf, sizeof buf,
                              static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread " + name + ": " + std::strerror(errno));
    }
    if (n == 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
}

Result<std::uint64_t> FileWalStorage::Size(const std::string& name) {
  HDD_ASSIGN_OR_RETURN(const int fd, Fd(name));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("fstat " + name + ": " + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

Status FileWalStorage::Append(const std::string& name, std::string_view data) {
  HDD_ASSIGN_OR_RETURN(const int fd, Fd(name));
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write " + name + ": " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FileWalStorage::Sync(const std::string& name) {
  HDD_ASSIGN_OR_RETURN(const int fd, Fd(name));
  if (::fdatasync(fd) != 0) {
    return Status::IoError("fdatasync " + name + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status FileWalStorage::Truncate(const std::string& name, std::uint64_t size) {
  HDD_ASSIGN_OR_RETURN(const int fd, Fd(name));
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    return Status::IoError("ftruncate " + name + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace hdd
