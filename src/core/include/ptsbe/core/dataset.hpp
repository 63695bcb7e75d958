#pragma once

/// \file dataset.hpp
/// \brief Shot-dataset persistence with error-provenance labels.
///
/// The paper's target application is generating massive labelled datasets
/// (e.g. for training ML-based QEC decoders): each shot must carry the error
/// content of the trajectory it was sampled from — the supervision signal
/// physical hardware cannot provide. Two formats:
///
///  - CSV   — human-readable; one row per shot with its spec's branch list;
///  - binary — compact columnar blocks, one per trajectory batch, suitable
///    for the trillion-shot-scale corpora the paper reports.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ptsbe/core/batched_execution.hpp"

namespace ptsbe::dataset {

/// Binary-format framing: magic, current version, and the fixed header size
/// (magic + version + u64 batch count). These are part of the on-disk
/// contract — bump `kFormatVersion` on any incompatible layout change.
inline constexpr char kFormatMagic[4] = {'P', 'T', 'S', 'B'};
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::size_t kHeaderBytes =
    sizeof(kFormatMagic) + sizeof(kFormatVersion) + sizeof(std::uint64_t);

/// Most records a run-length block may expand to (2 GiB of records). A
/// 16-byte run can claim any count, so the decoder bounds the sum of a
/// block's counts by this before it allocates; the encoder writes a larger
/// batch plain, where the file's bytes bound the count instead.
inline constexpr std::uint64_t kMaxBlockRecords = std::uint64_t{1} << 28;

// ---------------------------------------------------------------------------
// The batch-block codec. A format-v3 file is the header followed by one
// *block* per trajectory batch, and a net BATCH frame's payload is exactly
// one block, so the disk and the wire share this single encoder/decoder
// pair. Every field is a little-endian u64 (probabilities as raw IEEE-754
// bits, so a block round-trips bit-identically):
//
//   spec_index, nominal_probability, realized_probability, shots,
//   num_branches, (site, branch) × num_branches,
//   then the records in one of two layouts, told apart by the top bit of
//   the count word:
//     plain (top bit clear):  num_records, record × num_records
//     runs  (top bit set):    2^63 | num_runs, (record, count) × num_runs
//
// Runs are maximal stretches of equal adjacent records, in shot order, so
// unsorted records (stabilizer, MPS) expand back exactly. The encoder picks
// whichever layout is strictly smaller, so the layout depends on the
// records alone. A plain block is byte for byte a format-v2 block, and the
// one decoder reads both versions.
//
// No field depends on scheduling. Format v1 also stored the id of the
// worker that prepared the batch, which broke byte identity across thread
// counts.

/// Receives the encoded bytes of one block as a few consecutive pieces.
using BlockWriter = std::function<void(const void* data, std::size_t size)>;

/// Encode `batch` as one block, in the run layout when its (record, count)
/// runs take strictly fewer bytes than its records and it has at most
/// `kMaxBlockRecords` records, else plain. One read pass over the records
/// collects the runs and gives up once they cannot win; a plain payload is
/// handed to `write` straight from `batch.records` (never copied). Empty
/// pieces are skipped.
void encode_block(const be::TrajectoryBatch& batch, const BlockWriter& write);

/// Random-access bytes that blocks are decoded from: a mapped or pread
/// dataset file (`Reader`) or an in-memory wire payload (`MemorySource`).
class ByteSource {
 public:
  /// `name` identifies the bytes in error messages ("dataset file 'x.bin'",
  /// "BATCH payload").
  explicit ByteSource(std::string name) : name_(std::move(name)) {}
  virtual ~ByteSource() = default;
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual std::uint64_t size() const noexcept = 0;
  /// Copy `n` bytes at `offset` into `dst`.
  /// \throws invariant_error when [offset, offset + n) is not in the source.
  virtual void read_at(std::uint64_t offset, void* dst,
                       std::size_t n) const = 0;

 private:
  std::string name_;
};

/// A ByteSource over bytes already in memory (not owned).
class MemorySource : public ByteSource {
 public:
  MemorySource(std::string_view bytes, std::string name)
      : ByteSource(std::move(name)), bytes_(bytes) {}
  [[nodiscard]] std::uint64_t size() const noexcept override {
    return bytes_.size();
  }
  void read_at(std::uint64_t offset, void* dst, std::size_t n) const override;

 private:
  std::string_view bytes_;
};

/// Where one block lies: its branch count, its record layout, the number
/// of entries after the count word, and the offset one past its end.
struct BlockExtent {
  std::uint64_t num_branches = 0;
  bool runs = false;              ///< Records stored as (record, count) runs.
  std::uint64_t num_entries = 0;  ///< Record words, or runs when `runs`.
  std::uint64_t end = 0;
};

/// Measure the block that starts at `offset` — the one length walk, shared
/// by `decode_block` and `Reader`'s skip-scan seek index. Reads only the two
/// count fields, learns the layout from the count word's tag, and bounds
/// each count by the bytes that remain before trusting it.
/// \throws invariant_error when the block does not fit in `source`.
[[nodiscard]] BlockExtent block_extent(const ByteSource& source,
                                       std::uint64_t offset);

/// Decode the block at `offset` into `out` and return the offset one past
/// it. Its extent is checked by `block_extent` before anything is allocated,
/// so a hostile count cannot force a huge resize; a run block's counts must
/// each be at least 1 and sum to at most `kMaxBlockRecords`, checked before
/// `out.records` is sized. `out`'s vectors are reused, so a decode loop
/// allocates only on growth.
/// \throws invariant_error on a truncated block or hostile counts.
std::uint64_t decode_block(const ByteSource& source, std::uint64_t offset,
                           be::TrajectoryBatch& out);

/// Write a BE result as CSV: columns
/// `trajectory,shot,record,nominal_probability,errors` where `errors` is a
/// semicolon-joined list of `site:branch` tokens.
/// \throws runtime_failure when the file cannot be written.
void write_csv(const std::string& path, const be::Result& result);

/// Write a BE result as the compact binary format (magic "PTSB", version 3:
/// version 2 dropped the scheduler-dependent per-batch device id, so the
/// bytes of a spec-ordered export depend only on the program, the specs
/// and the seed — never on thread count or scheduling; version 3 stores a
/// batch's records as (record, count) runs whenever that is smaller).
/// Implemented on top of `StreamWriter`, so the two paths cannot diverge:
/// streaming the same batch sequence produces a byte-identical file. (A
/// sink streaming under `threads > 1` receives batches in completion order
/// — same blocks, possibly permuted; append in `spec_index` order when
/// byte-stable files matter.)
/// \throws runtime_failure when the file cannot be written.
void write_binary(const std::string& path, const be::Result& result);

/// Incremental writer for the binary format — the dataset end of the
/// streaming pipeline (`be::execute_streaming`'s sink appends each batch as
/// it completes, so a trillion-shot corpus is exported without ever holding
/// a full `be::Result` in memory). The batch count in the header is patched
/// in by `close()` (or the destructor on *normal* scope exit); when the
/// writer is destroyed during exception unwinding — an aborted streaming
/// run — the header count stays 0, so the partial file can never be
/// mistaken for a complete corpus. Not thread-safe on its own, but
/// `execute_streaming` serialises sink calls, so `append` needs no
/// external locking there.
class StreamWriter {
 public:
  /// Open `path` and write the dataset header.
  /// \throws runtime_failure when the file cannot be opened.
  explicit StreamWriter(const std::string& path);

  /// On normal scope exit: closes best-effort (errors are swallowed — call
  /// `close()` to observe them). During exception unwinding: leaves the
  /// header unpatched, marking the file incomplete.
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Append one trajectory batch block (zero-probability unrealizable
  /// batches round-trip like any other: empty record payload, weight 0).
  /// \throws runtime_failure on write errors;
  ///         precondition_error after close().
  void append(const be::TrajectoryBatch& batch);

  /// Patch the header's batch count and flush. Idempotent.
  /// \throws runtime_failure on write errors.
  void close();

  /// Patch the header's batch count and flush *without* closing: after
  /// flush() returns, the bytes on disk are a complete, readable dataset
  /// of the batches appended so far, and further append() calls keep
  /// extending it. This is what lets the reader layer consume a stream
  /// that is still being written (the header count always describes a
  /// fully-written prefix — a flushed file never ends mid-batch).
  /// \throws runtime_failure on write errors;
  ///         precondition_error after close().
  void flush();

  /// Batches appended so far.
  [[nodiscard]] std::uint64_t batches_written() const noexcept {
    return count_;
  }

  /// Measurement records appended so far (across all batches).
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return records_;
  }

  /// Bytes written so far, header included — after flush()/close() this is
  /// exactly the file size, which is how the reader layer's tests pin a
  /// partially-written stream against the on-disk reality.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_;
  }

 private:
  std::string path_;
  std::ofstream os_;
  std::uint64_t count_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
  int uncaught_at_open_ = 0;
};

/// Read a binary dataset back (round-trip of write_binary; prepare/sample
/// timings are not persisted). Collects `Reader::next` over the file, so it
/// shares the reader's guards and never pre-sizes from the header's count.
/// \throws runtime_failure for unreadable, non-PTSB or wrong-version files;
///         invariant_error for truncated blocks or hostile length fields.
[[nodiscard]] be::Result read_binary(const std::string& path);

}  // namespace ptsbe::dataset
