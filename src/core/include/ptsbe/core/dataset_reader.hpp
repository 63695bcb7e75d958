#pragma once

/// \file dataset_reader.hpp
/// \brief Seekable, out-of-core reader for PTSB binary datasets — the one
/// reader of the format (`read_binary` is a loop over it).
///
/// `Reader` iterates format-v2 and v3 bytes one batch at a time, decoding
/// each block with the shared `decode_block` (a v2 block is a v3 plain
/// block, so one decoder reads both):
///
///  - **Header validation.** Bad magic and v1/future versions are rejected
///    with `runtime_failure`.
///  - **Bounded memory.** Only the batch currently being decoded is held,
///    and `block_extent` bounds every count by the remaining file size
///    before any allocation (a run block's expanded size also by
///    `kMaxBlockRecords`), so a hostile length field cannot force a huge
///    resize.
///  - **Two byte sources.** `Reader` maps the file read-only
///    (`ViewMode::kMmap`) so iteration touches only the pages it decodes,
///    with a `pread`-based fallback (`ViewMode::kStream`) for filesystems
///    where mapping fails; `kAuto` tries the map first. Decoded batches
///    are bit-identical across sources — both feed the same decoder.
///  - **Seekable.** Batches are variable-length, so `seek_batch` builds a
///    byte-offset index lazily by skip-scanning blocks with `block_extent`
///    (payloads are never read); re-seeking backwards is O(1) once indexed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset.hpp"

namespace ptsbe::dataset {

/// How `Reader` accesses the file's bytes.
enum class ViewMode : std::uint8_t {
  kAuto,    ///< mmap when the platform allows it, else the stream path.
  kMmap,    ///< memory-map read-only; \throws runtime_failure if impossible.
  kStream,  ///< pread each block (bounded-memory fallback).
};

/// Registry-style name ("auto" | "mmap" | "stream").
[[nodiscard]] const std::string& to_string(ViewMode mode);
/// \throws precondition_error for unknown names (the message lists all).
[[nodiscard]] ViewMode view_mode_from_string(const std::string& name);

/// Seekable streaming reader over one PTSB format-v2 or v3 file. Move-only;
/// not thread-safe (clone one per thread — sources are stateless under pread
/// and shared-mapping semantics, but the cursor is not).
class Reader {
 public:
  /// Open `path` and validate the dataset header.
  /// \throws runtime_failure for unreadable files, non-PTSB magic, and
  ///         v1/future versions.
  explicit Reader(const std::string& path, ViewMode mode = ViewMode::kAuto);
  ~Reader();
  Reader(Reader&&) noexcept;
  Reader& operator=(Reader&&) noexcept;
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Batches the header declares (a flushed-but-open StreamWriter file
  /// reads as its last flushed prefix; trailing unflushed bytes are
  /// ignored by construction).
  [[nodiscard]] std::uint64_t num_batches() const noexcept {
    return num_batches_;
  }

  /// Total file size in bytes.
  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    return source_->size();
  }

  /// True when the bytes are memory-mapped (diagnostics; `kAuto` resolves
  /// here).
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }

  /// Index of the batch the next `next()` call returns.
  [[nodiscard]] std::uint64_t position() const noexcept { return index_; }

  /// Decode the next batch into `out`. Returns false once `num_batches()`
  /// batches have been returned. `out`'s vectors are reused across calls,
  /// so a read loop allocates only on growth.
  /// \throws invariant_error on truncated or hostile-length blocks (the
  ///         file on disk violates what its own header promised).
  bool next(be::TrajectoryBatch& out);

  /// Position the cursor on batch `index` (0-based; == num_batches() pins
  /// the cursor at end). Skip-scans blocks forward from the last indexed
  /// batch with `block_extent`; never decodes payloads.
  /// \throws precondition_error when index > num_batches();
  ///         invariant_error on truncated blocks.
  void seek_batch(std::uint64_t index);

 private:
  [[nodiscard]] std::uint64_t offset_of(std::uint64_t index);

  std::unique_ptr<ByteSource> source_;
  bool mapped_ = false;
  std::uint64_t num_batches_ = 0;
  std::uint64_t index_ = 0;   ///< Next batch to decode.
  std::uint64_t offset_ = 0;  ///< Byte offset of batch `index_`.
  /// offsets_[i] = byte offset of batch i, for every batch visited so far
  /// (grown by next()/seek_batch(); offsets_[0] is the header size).
  std::vector<std::uint64_t> offsets_;
};

}  // namespace ptsbe::dataset
