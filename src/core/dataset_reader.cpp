#include "ptsbe/core/dataset_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "ptsbe/common/error.hpp"

namespace ptsbe::dataset {

const std::string& to_string(ViewMode mode) {
  static const std::string kNames[] = {"auto", "mmap", "stream"};
  return kNames[static_cast<std::uint8_t>(mode)];
}

ViewMode view_mode_from_string(const std::string& name) {
  if (name == "auto") return ViewMode::kAuto;
  if (name == "mmap") return ViewMode::kMmap;
  if (name == "stream") return ViewMode::kStream;
  throw precondition_error("unknown view mode '" + name +
                           "' (expected \"auto\", \"mmap\" or \"stream\")");
}

namespace {

/// A read-only mapping of the whole file: decoded like any in-memory bytes.
class MmapSource final : public MemorySource {
 public:
  MmapSource(const void* base, std::uint64_t size, std::string name)
      : MemorySource({static_cast<const char*>(base), size}, std::move(name)),
        base_(base) {}
  ~MmapSource() override { ::munmap(const_cast<void*>(base_), size()); }

 private:
  const void* base_;
};

/// pread at each offset; a file that shrinks mid-read surfaces as the same
/// truncation failure as an out-of-range offset.
class StreamSource final : public ByteSource {
 public:
  StreamSource(int fd, std::uint64_t size, std::string name)
      : ByteSource(std::move(name)), fd_(fd), size_(size) {}
  ~StreamSource() override { ::close(fd_); }
  [[nodiscard]] std::uint64_t size() const noexcept override { return size_; }
  void read_at(std::uint64_t offset, void* dst, std::size_t n) const override {
    PTSBE_CHECK(offset <= size_ && n <= size_ - offset,
                "truncated " + name());
    char* out = static_cast<char*>(dst);
    while (n > 0) {
      const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
      if (got < 0) {
        if (errno == EINTR) continue;
        throw runtime_failure("error reading " + name() + ": " +
                              std::strerror(errno));
      }
      PTSBE_CHECK(got != 0, "truncated " + name());
      out += got;
      offset += static_cast<std::uint64_t>(got);
      n -= static_cast<std::size_t>(got);
    }
  }

 private:
  int fd_;
  std::uint64_t size_;
};

std::unique_ptr<ByteSource> open_source(const std::string& path,
                                        ViewMode mode) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw runtime_failure("cannot open '" + path + "' for reading");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw runtime_failure("cannot stat '" + path + "'");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  std::string name = "dataset file '" + path + "'";
  if (mode != ViewMode::kStream && size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      // The mapping pins the bytes; the descriptor is no longer needed.
      ::close(fd);
      return std::make_unique<MmapSource>(base, size, std::move(name));
    }
    if (mode == ViewMode::kMmap) {
      ::close(fd);
      throw runtime_failure("cannot mmap '" + path +
                            "': " + std::strerror(errno));
    }
    // kAuto: fall through to the pread path.
  }
  return std::make_unique<StreamSource>(fd, size, std::move(name));
}

}  // namespace

Reader::Reader(const std::string& path, ViewMode mode)
    : source_(open_source(path, mode)) {
  mapped_ = dynamic_cast<const MmapSource*>(source_.get()) != nullptr;
  if (source_->size() < kHeaderBytes)
    throw runtime_failure("'" + path + "' is not a PTSB dataset");
  char magic[sizeof kFormatMagic];
  source_->read_at(0, magic, sizeof magic);
  if (std::memcmp(magic, kFormatMagic, sizeof magic) != 0)
    throw runtime_failure("'" + path + "' is not a PTSB dataset");
  std::uint32_t version = 0;
  source_->read_at(sizeof magic, &version, sizeof version);
  // A v2 block is a v3 plain block, so one decoder reads both versions.
  if (version < 2 || version > kFormatVersion)
    throw runtime_failure(
        "unsupported dataset version " + std::to_string(version) +
        (version == 1 ? " (version 1 embedded scheduler-dependent device "
                        "ids; regenerate the dataset)"
                      : ""));
  source_->read_at(sizeof magic + sizeof version, &num_batches_,
                   sizeof num_batches_);
  offset_ = kHeaderBytes;
  offsets_.push_back(offset_);
}

Reader::~Reader() = default;
Reader::Reader(Reader&&) noexcept = default;
Reader& Reader::operator=(Reader&&) noexcept = default;

bool Reader::next(be::TrajectoryBatch& out) {
  if (index_ >= num_batches_) return false;
  offset_ = decode_block(*source_, offset_, out);
  ++index_;
  if (index_ == offsets_.size()) offsets_.push_back(offset_);
  return true;
}

std::uint64_t Reader::offset_of(std::uint64_t index) {
  // Extend the lazy offset index by measuring each unvisited block.
  while (offsets_.size() <= index)
    offsets_.push_back(block_extent(*source_, offsets_.back()).end);
  return offsets_[index];
}

void Reader::seek_batch(std::uint64_t index) {
  PTSBE_REQUIRE(index <= num_batches_,
                "seek_batch(" + std::to_string(index) + ") past the " +
                    std::to_string(num_batches_) + "-batch dataset");
  offset_ = offset_of(index);
  index_ = index;
}

}  // namespace ptsbe::dataset
