// Fuzz harness for the PTSB batch-block decoder (`dataset::decode_block`),
// which reads untrusted bytes behind `dataset::Reader` and
// `net::decode_batch`. The input is read two ways:
//
//  - as a dataset body: block after block through a `MemorySource`, the
//    way `Reader` walks a file;
//  - as one BATCH payload through `net::decode_batch`.
//
// Only the codec's structured errors may escape the decoder
// (`invariant_error` from the block walk, `ProtocolError(kProtocol)` from
// the wire), and every decoded block must satisfy the codec's properties;
// anything else aborts. Built two ways: with `replay_main.cpp` as a ctest
// that replays the committed corpus, and, under clang, with
// `-fsanitize=fuzzer` as a libFuzzer binary.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/net/protocol.hpp"

namespace {

using namespace ptsbe;

/// Records the run blocks of one input may expand to in all. A run block
/// can legitimately claim up to `dataset::kMaxBlockRecords` (2 GiB of
/// records); decoding that is correct, but a fuzzer would report the
/// allocation as out-of-memory, and many large blocks as a slow input.
constexpr std::uint64_t kHarnessRecords = std::uint64_t{1} << 22;

void require(bool property) {
  if (!property) std::abort();
}

/// True when the run blocks of `source` that pass the decoder's count
/// checks expand past kHarnessRecords in all: such an input is skipped.
bool expands_too_far(const dataset::MemorySource& source) {
  std::uint64_t all = 0;
  try {
    for (std::uint64_t offset = 0; offset < source.size();) {
      const dataset::BlockExtent extent = dataset::block_extent(source, offset);
      if (extent.runs) {
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < extent.num_entries; ++i) {
          // The count field of run i; runs end where the block ends.
          std::uint64_t count = 0;
          source.read_at(extent.end - 16 * (extent.num_entries - i) + 8,
                         &count, sizeof count);
          // The decoder rejects these counts before allocating, and stops.
          if (count == 0 || count > dataset::kMaxBlockRecords - total)
            return false;
          total += count;
        }
        all += total;
        if (all > kHarnessRecords) return true;
      }
      offset = extent.end;
    }
  } catch (const invariant_error&) {
  }
  return false;
}

std::string encode(const be::TrajectoryBatch& batch) {
  std::string bytes;
  dataset::encode_block(batch, [&bytes](const void* data, std::size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  });
  return bytes;
}

bool same_batch(const be::TrajectoryBatch& a, const be::TrajectoryBatch& b) {
  return a.spec_index == b.spec_index && a.spec.shots == b.spec.shots &&
         a.spec.branches == b.spec.branches && a.records == b.records &&
         std::memcmp(&a.realized_probability, &b.realized_probability,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.spec.nominal_probability,
                     &b.spec.nominal_probability, sizeof(double)) == 0;
}

/// A decoded block re-encodes to a block no larger than the one it came
/// from (the encoder picks the smaller layout), which decodes back to the
/// same batch.
void check_reencode(const be::TrajectoryBatch& batch,
                    std::uint64_t block_bytes) {
  const std::string again = encode(batch);
  require(again.size() <= block_bytes);
  be::TrajectoryBatch back;
  const dataset::MemorySource source(again, "re-encoded block");
  require(dataset::decode_block(source, 0, back) == again.size());
  require(same_batch(batch, back));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const dataset::MemorySource source(bytes, "fuzz input");
  if (expands_too_far(source)) return 0;

  try {
    be::TrajectoryBatch batch;
    for (std::uint64_t offset = 0; offset < size;) {
      const std::uint64_t end = dataset::decode_block(source, offset, batch);
      require(end == dataset::block_extent(source, offset).end);
      require(end > offset && end <= size);
      check_reencode(batch, end - offset);
      offset = end;
    }
  } catch (const invariant_error&) {
  }

  try {
    const be::TrajectoryBatch batch = net::decode_batch(bytes);
    require(net::encode_batch(batch).size() <= size);
  } catch (const net::ProtocolError& e) {
    require(e.code() == net::errc::kProtocol);
  }
  return 0;
}
