#include "ptsbe/core/dataset.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/record_runs.hpp"
#include "ptsbe/core/dataset_reader.hpp"

namespace ptsbe::dataset {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the PTSB block codec is little-endian");
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t) &&
                  sizeof(BranchChoice) == 2 * sizeof(std::uint64_t) &&
                  std::is_trivially_copyable_v<BranchChoice>,
              "a branch pair is stored as its two u64 fields, in place");

/// Bytes of a block with no branches and no records.
constexpr std::uint64_t kBlockFixedBytes = 6 * sizeof(std::uint64_t);

/// The five fixed fields before the branch pairs.
struct BlockHead {
  std::uint64_t spec_index;
  double nominal_probability;
  double realized_probability;
  std::uint64_t shots;
  std::uint64_t num_branches;
};
static_assert(sizeof(BlockHead) == kBlockFixedBytes - sizeof(std::uint64_t));

constexpr std::uint64_t kPairBytes = sizeof(BranchChoice);
constexpr std::uint64_t kRecordBytes = sizeof(std::uint64_t);

/// Tag in the count word after the branch pairs: set, the low 63 bits count
/// (record, count) runs; clear, the word counts plain records.
constexpr std::uint64_t kRunTag = std::uint64_t{1} << 63;

/// One run of equal adjacent records, stored as its two u64 fields.
struct Run {
  std::uint64_t record;
  std::uint64_t count;
};
static_assert(sizeof(Run) == 2 * sizeof(std::uint64_t) &&
                  std::is_trivially_copyable_v<Run>,
              "a run is stored as its two u64 fields, in place");
constexpr std::uint64_t kRunBytes = sizeof(Run);

/// Byte offset of the header's batch-count field (after magic + version).
constexpr std::streamoff kBatchCountOffset =
    sizeof(kFormatMagic) + sizeof(kFormatVersion);

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Collect the runs of `records` into `runs` and return true when they take
/// strictly fewer bytes than the records (16·runs < 8·n) and expand to at
/// most kMaxBlockRecords. One read pass, which gives up as soon as the runs
/// can no longer win.
bool collect_runs(const std::vector<std::uint64_t>& records,
                  std::vector<Run>& runs) {
  const std::size_t n = records.size();
  if (n == 0 || n > kMaxBlockRecords) return false;
  for (std::size_t begin = 0; begin < n;) {
    if (2 * (runs.size() + 1) >= n) return false;
    const std::size_t end = run_end(records, begin);
    runs.push_back({records[begin], end - begin});
    begin = end;
  }
  return true;
}

/// Expand the `num_runs` runs stored at `at` into `records`. The first pass
/// checks every count (at least 1, summing to at most kMaxBlockRecords)
/// before `records` is sized; the second writes each run once. Runs are
/// read in fixed chunks, so nothing is allocated before the counts pass.
void expand_runs(const ByteSource& source, std::uint64_t at,
                 std::uint64_t num_runs, std::vector<std::uint64_t>& records) {
  Run chunk[256];
  const auto for_each_stored_run = [&](const auto& fn) {
    for (std::uint64_t done = 0; done < num_runs;) {
      const std::uint64_t k =
          std::min<std::uint64_t>(std::size(chunk), num_runs - done);
      source.read_at(at + kRunBytes * done, chunk, kRunBytes * k);
      for (std::uint64_t i = 0; i < k; ++i) fn(chunk[i]);
      done += k;
    }
  };
  std::uint64_t total = 0;
  for_each_stored_run([&](const Run& run) {
    PTSBE_CHECK(run.count >= 1 && run.count <= kMaxBlockRecords - total,
                "run block in " + source.name() +
                    " has a zero count or expands past " +
                    std::to_string(kMaxBlockRecords) + " records");
    total += run.count;
  });
  records.clear();
  records.reserve(total);
  for_each_stored_run([&records](const Run& run) {
    records.insert(records.end(), run.count, run.record);
  });
}

}  // namespace

void encode_block(const be::TrajectoryBatch& batch, const BlockWriter& write) {
  const auto piece = [&write](const void* data, std::size_t size) {
    if (size > 0) write(data, size);
  };
  const BlockHead head{batch.spec_index, batch.spec.nominal_probability,
                       batch.realized_probability, batch.spec.shots,
                       batch.spec.branches.size()};
  piece(&head, sizeof head);
  piece(batch.spec.branches.data(), kPairBytes * batch.spec.branches.size());
  std::vector<Run> runs;
  if (collect_runs(batch.records, runs)) {
    const std::uint64_t count_word = kRunTag | runs.size();
    piece(&count_word, sizeof count_word);
    piece(runs.data(), kRunBytes * runs.size());
  } else {
    const std::uint64_t num_records = batch.records.size();
    piece(&num_records, sizeof num_records);
    piece(batch.records.data(), kRecordBytes * num_records);
  }
}

void MemorySource::read_at(std::uint64_t offset, void* dst,
                           std::size_t n) const {
  PTSBE_CHECK(offset <= bytes_.size() && n <= bytes_.size() - offset,
              "truncated " + name());
  if (n > 0) std::memcpy(dst, bytes_.data() + offset, n);
}

BlockExtent block_extent(const ByteSource& source, std::uint64_t offset) {
  const std::uint64_t size = source.size();
  const std::string& name = source.name();
  PTSBE_CHECK(offset <= size && kBlockFixedBytes <= size - offset,
              "truncated " + name);
  BlockExtent extent;
  source.read_at(offset + offsetof(BlockHead, num_branches),
                 &extent.num_branches, sizeof extent.num_branches);
  // Where the records start, before adding the branch pairs.
  std::uint64_t at = offset + kBlockFixedBytes;
  PTSBE_CHECK(extent.num_branches <= (size - at) / kPairBytes,
              "batch block in " + name + " claims more branches than fit");
  at += kPairBytes * extent.num_branches;
  std::uint64_t count_word = 0;
  source.read_at(at - sizeof count_word, &count_word, sizeof count_word);
  extent.runs = (count_word & kRunTag) != 0;
  extent.num_entries = count_word & ~kRunTag;
  const std::uint64_t entry_bytes = extent.runs ? kRunBytes : kRecordBytes;
  PTSBE_CHECK(extent.num_entries <= (size - at) / entry_bytes,
              "batch block in " + name + " claims more " +
                  (extent.runs ? "runs" : "records") + " than fit");
  extent.end = at + entry_bytes * extent.num_entries;
  return extent;
}

std::uint64_t decode_block(const ByteSource& source, std::uint64_t offset,
                           be::TrajectoryBatch& out) {
  // Sizes come from the checked extent, never from a second read of the
  // count fields.
  const BlockExtent extent = block_extent(source, offset);
  BlockHead head{};
  source.read_at(offset, &head, sizeof head);
  out.spec_index = head.spec_index;
  out.spec.nominal_probability = head.nominal_probability;
  out.realized_probability = head.realized_probability;
  out.spec.shots = head.shots;
  out.spec.branches.resize(extent.num_branches);
  source.read_at(offset + sizeof head, out.spec.branches.data(),
                 kPairBytes * extent.num_branches);
  const std::uint64_t entries_at =
      offset + kBlockFixedBytes + kPairBytes * extent.num_branches;
  if (extent.runs) {
    expand_runs(source, entries_at, extent.num_entries, out.records);
  } else {
    out.records.resize(extent.num_entries);
    source.read_at(entries_at, out.records.data(),
                   kRecordBytes * extent.num_entries);
  }
  return extent.end;
}

void write_csv(const std::string& path, const be::Result& result) {
  std::ofstream os(path);
  if (!os) throw runtime_failure("cannot open '" + path + "' for writing");
  os << "trajectory,shot,record,nominal_probability,errors\n";
  for (const be::TrajectoryBatch& batch : result.batches) {
    std::string errors;
    for (std::size_t i = 0; i < batch.spec.branches.size(); ++i) {
      if (i) errors += ';';
      errors += std::to_string(batch.spec.branches[i].site) + ':' +
                std::to_string(batch.spec.branches[i].branch);
    }
    for (std::size_t s = 0; s < batch.records.size(); ++s) {
      os << batch.spec_index << ',' << s << ',' << batch.records[s] << ','
         << batch.spec.nominal_probability << ',' << errors << '\n';
    }
  }
  if (!os) throw runtime_failure("error while writing '" + path + "'");
}

void write_binary(const std::string& path, const be::Result& result) {
  StreamWriter writer(path);
  for (const be::TrajectoryBatch& batch : result.batches) writer.append(batch);
  writer.close();
}

StreamWriter::StreamWriter(const std::string& path)
    : path_(path),
      os_(path, std::ios::binary),
      uncaught_at_open_(std::uncaught_exceptions()) {
  if (!os_) throw runtime_failure("cannot open '" + path + "' for writing");
  os_.write(kFormatMagic, sizeof kFormatMagic);
  put(os_, kFormatVersion);
  put(os_, std::uint64_t{0});  // batch count, patched by flush()/close()
  bytes_ = kHeaderBytes;
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
}

StreamWriter::~StreamWriter() {
  // Unwinding from an aborted run: leave the header count 0 so the partial
  // file reads as incomplete rather than as a smaller complete corpus.
  if (std::uncaught_exceptions() > uncaught_at_open_) return;
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the file is left invalid, as documented.
  }
}

void StreamWriter::append(const be::TrajectoryBatch& batch) {
  PTSBE_REQUIRE(!closed_, "StreamWriter is closed");
  encode_block(batch, [this](const void* data, std::size_t size) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    bytes_ += size;
  });
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  ++count_;
  records_ += batch.records.size();
}

void StreamWriter::flush() {
  PTSBE_REQUIRE(!closed_, "StreamWriter is closed");
  os_.seekp(kBatchCountOffset);
  put(os_, count_);
  os_.flush();
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  // Return the put position to the end so the next append() extends the
  // file instead of overwriting the batch after the header.
  os_.seekp(0, std::ios::end);
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
}

void StreamWriter::close() {
  if (closed_) return;
  os_.seekp(kBatchCountOffset);
  put(os_, count_);
  os_.flush();
  closed_ = true;
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  os_.close();
}

be::Result read_binary(const std::string& path) {
  Reader reader(path);
  be::Result result;
  be::TrajectoryBatch batch;
  while (reader.next(batch)) result.batches.push_back(std::move(batch));
  return result;
}

}  // namespace ptsbe::dataset
