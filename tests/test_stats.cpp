// ptsbe::stats — out-of-core dataset analytics: the seekable Reader vs
// read_binary (both byte sources), StreamWriter flush-prefix semantics,
// ShotTable aggregation/serialisation determinism, the four BranchTab-style
// comparison metrics (exact zero at bitwise equality, hand-computed values
// elsewhere), the k-way shard merge under a memory budget, the serve
// engine's per-tenant ShotTable aggregate, and the net-loopback shard
// property (per-shard table merge == single-process table, byte for byte).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/dataset_reader.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/protocol.hpp"
#include "ptsbe/net/server.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/serve/engine.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/merge.hpp"
#include "ptsbe/stats/shot_table.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

test::TempFile temp_path(const std::string& name) {
  return test::temp_file("stats_" + name + ".bin");
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

be::TrajectoryBatch make_batch(std::size_t spec_index,
                               std::vector<BranchChoice> branches,
                               std::vector<std::uint64_t> records,
                               double nominal = 0.125) {
  be::TrajectoryBatch batch;
  batch.spec_index = spec_index;
  batch.spec.branches = std::move(branches);
  batch.spec.shots = records.size();
  batch.spec.nominal_probability = nominal;
  batch.realized_probability = nominal * 0.5;
  batch.records = std::move(records);
  return batch;
}

be::Result make_result() {
  be::Result result;
  result.batches.push_back(make_batch(0, {}, {0, 0, 1, 3}));
  result.batches.push_back(make_batch(1, {{2, 1}}, {1, 1, 1}, 0.0625));
  result.batches.push_back(make_batch(2, {{0, 3}, {4, 1}}, {}, 0.03125));
  result.batches.push_back(make_batch(3, {{1, 2}}, {7, 0, 7, 7, 2}, 0.25));
  return result;
}

void expect_batches_equal(const be::TrajectoryBatch& a,
                          const be::TrajectoryBatch& b) {
  EXPECT_EQ(a.spec_index, b.spec_index);
  EXPECT_EQ(a.spec.shots, b.spec.shots);
  EXPECT_EQ(a.spec.nominal_probability, b.spec.nominal_probability);
  EXPECT_EQ(a.realized_probability, b.realized_probability);
  ASSERT_EQ(a.spec.branches.size(), b.spec.branches.size());
  for (std::size_t i = 0; i < a.spec.branches.size(); ++i) {
    EXPECT_EQ(a.spec.branches[i].site, b.spec.branches[i].site);
    EXPECT_EQ(a.spec.branches[i].branch, b.spec.branches[i].branch);
  }
  EXPECT_EQ(a.records, b.records);
}

/// A small noisy GHZ chain as `.ptq` text (for the serve/net tests).
std::string ghz_ptq(unsigned qubits) {
  Circuit c(qubits);
  c.h(0);
  for (unsigned q = 0; q + 1 < qubits; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.02));
  noise.add_measurement_noise(channels::bit_flip(0.01));
  return io::write_circuit(noise.apply(c));
}

// ---------------------------------------------------------------------------
// Reader: round-trips, byte sources, header rejection, hostile inputs.
// ---------------------------------------------------------------------------

TEST(StatsReader, MatchesReadBinaryUnderBothByteSources) {
  const auto path = temp_path("roundtrip");
  const be::Result original = make_result();
  dataset::write_binary(path, original);
  const be::Result bulk = dataset::read_binary(path);

  for (const dataset::ViewMode mode :
       {dataset::ViewMode::kMmap, dataset::ViewMode::kStream}) {
    SCOPED_TRACE(dataset::to_string(mode));
    dataset::Reader reader(path, mode);
    EXPECT_EQ(reader.mapped(), mode == dataset::ViewMode::kMmap);
    EXPECT_EQ(reader.num_batches(), bulk.batches.size());
    EXPECT_EQ(reader.file_bytes(), slurp(path).size());
    be::TrajectoryBatch batch;
    std::size_t n = 0;
    while (reader.next(batch)) {
      ASSERT_LT(n, bulk.batches.size());
      expect_batches_equal(bulk.batches[n], batch);
      ++n;
    }
    EXPECT_EQ(n, bulk.batches.size());
    EXPECT_FALSE(reader.next(batch));  // stays exhausted
  }
}

TEST(StatsReader, AutoModeFallsSomewhereValid) {
  const auto path = temp_path("auto");
  dataset::write_binary(path, make_result());
  dataset::Reader reader(path);
  be::TrajectoryBatch batch;
  std::size_t n = 0;
  while (reader.next(batch)) ++n;
  EXPECT_EQ(n, 4u);
}

TEST(StatsReader, SeekIsExactInBothDirections) {
  const auto path = temp_path("seek");
  const be::Result original = make_result();
  dataset::write_binary(path, original);
  dataset::Reader reader(path);
  be::TrajectoryBatch batch;

  reader.seek_batch(2);  // forward skip-scan, nothing decoded yet
  EXPECT_EQ(reader.position(), 2u);
  ASSERT_TRUE(reader.next(batch));
  expect_batches_equal(original.batches[2], batch);

  reader.seek_batch(0);  // backward, O(1) once indexed
  ASSERT_TRUE(reader.next(batch));
  expect_batches_equal(original.batches[0], batch);

  reader.seek_batch(reader.num_batches());  // pin at end
  EXPECT_FALSE(reader.next(batch));

  EXPECT_THROW(reader.seek_batch(reader.num_batches() + 1),
               precondition_error);
}

TEST(StatsReader, RejectsForeignAndVersionedHeaders) {
  const auto path = temp_path("badheader");

  spit(path, "not a dataset at all");
  EXPECT_THROW(dataset::Reader{path}, runtime_failure);

  spit(path, "PT");  // shorter than any header
  EXPECT_THROW(dataset::Reader{path}, runtime_failure);

  // A version-1 file: same magic, rejected with the regeneration hint —
  // identical contract to read_binary.
  std::string v1("PTSB", 4);
  const std::uint32_t version = 1;
  const std::uint64_t count = 0;
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1.append(reinterpret_cast<const char*>(&count), sizeof(count));
  spit(path, v1);
  try {
    dataset::Reader reader(path);
    FAIL() << "v1 header accepted";
  } catch (const runtime_failure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported dataset version 1"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("regenerate"), std::string::npos);
  }
}

TEST(StatsReader, HostileLengthFieldsFailBeforeAllocation) {
  const auto path = temp_path("hostile");
  const auto v2_file = [](std::uint64_t count,
                          std::vector<std::uint64_t> body) {
    std::string bytes("PTSB", 4);
    const std::uint32_t version = dataset::kFormatVersion;
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    bytes.append(reinterpret_cast<const char*>(body.data()),
                 body.size() * sizeof(std::uint64_t));
    return bytes;
  };
  // Each file's counts claim more than its bytes could hold: num_branches
  // = 2^64-1, num_records = 2^36, and 2^40 batches over an empty body.
  // The fixed fields are spec_index, nominal, realized, shots, num_branches.
  const std::string hostile[] = {
      v2_file(1, {0, 0, 0, 4, std::numeric_limits<std::uint64_t>::max()}),
      v2_file(1, {0, 0, 0, 4, 0, std::uint64_t{1} << 36}),
      v2_file(std::uint64_t{1} << 40, {}),
  };
  for (const std::string& bytes : hostile) {
    spit(path, bytes);
    for (const dataset::ViewMode mode :
         {dataset::ViewMode::kMmap, dataset::ViewMode::kStream}) {
      SCOPED_TRACE(dataset::to_string(mode));
      dataset::Reader reader(path, mode);
      be::TrajectoryBatch batch;
      EXPECT_THROW(reader.next(batch), invariant_error);
      // The seek index measures blocks with the same guarded length walk.
      EXPECT_THROW(reader.seek_batch(1), invariant_error);
    }
  }
}

TEST(StatsReader, HostileRunBlocksFailBeforeAllocation) {
  // Format-v3 run blocks (count word 2^63 | runs, then (record, count)
  // pairs) whose counts lie. The fixed fields are spec_index, nominal,
  // realized, shots and num_branches = 0.
  constexpr std::uint64_t kRuns = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = dataset::kMaxBlockRecords;
  const auto block = [](std::vector<std::uint64_t> tail) {
    std::vector<std::uint64_t> words = {0, 0, 0, 4, 0};
    words.insert(words.end(), tail.begin(), tail.end());
    return std::string(reinterpret_cast<const char*>(words.data()),
                       words.size() * sizeof(std::uint64_t));
  };
  const auto v3_file = [](const std::string& body) {
    std::string bytes("PTSB", 4);
    const std::uint32_t version = dataset::kFormatVersion;
    const std::uint64_t count = 1;
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    return bytes + body;
  };
  struct Case {
    const char* name;
    std::string body;
    bool extent_fits;  ///< Only the decode's count checks can catch it.
  };
  const Case hostile[] = {
      {"more runs than bytes", block({kRuns | (std::uint64_t{1} << 40)}),
       false},
      {"half a run", block({kRuns | 1, 7}), false},
      {"zero count", block({kRuns | 2, 7, 3, 8, 0}), true},
      {"overflowing sum",
       block({kRuns | 2, 7, std::numeric_limits<std::uint64_t>::max(), 8, 2}),
       true},
      {"sum above kMaxBlockRecords",
       block({kRuns | 3, 1, kMax / 2, 2, kMax / 2, 3, 1}), true},
  };
  const auto path = temp_path("hostile_runs");
  for (const Case& c : hostile) {
    SCOPED_TRACE(c.name);
    spit(path, v3_file(c.body));
    for (const dataset::ViewMode mode :
         {dataset::ViewMode::kMmap, dataset::ViewMode::kStream}) {
      SCOPED_TRACE(dataset::to_string(mode));
      dataset::Reader reader(path, mode);
      be::TrajectoryBatch batch;
      EXPECT_THROW(reader.next(batch), invariant_error);
      // Nothing was sized from the counts.
      EXPECT_EQ(batch.records.capacity(), 0u);
      // The seek index walks lengths only: it refuses a block whose runs
      // cannot fit, and a block that fits is measured without decoding.
      if (c.extent_fits) {
        reader.seek_batch(1);
        EXPECT_EQ(reader.position(), 1u);
      } else {
        EXPECT_THROW(reader.seek_batch(1), invariant_error);
      }
    }
    try {
      (void)net::decode_batch(c.body);
      ADD_FAILURE() << "BATCH payload accepted";
    } catch (const net::ProtocolError& e) {
      EXPECT_EQ(e.code(), net::errc::kProtocol);
    }
  }
}

TEST(StatsReader, TruncatedTailIsReportedNotSilentlyDropped) {
  const auto path = temp_path("truncated");
  dataset::write_binary(path, make_result());
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 3));  // mid-record cut

  dataset::Reader reader(path);
  be::TrajectoryBatch batch;
  EXPECT_THROW({
    while (reader.next(batch)) {
    }
  }, invariant_error);
}

// ---------------------------------------------------------------------------
// StreamWriter: size accessors + the flushed-prefix regression.
// ---------------------------------------------------------------------------

TEST(StatsStreamWriter, AccessorsTrackAppends) {
  const auto path = temp_path("accessors");
  const be::Result original = make_result();
  {
    dataset::StreamWriter writer(path);
    EXPECT_EQ(writer.batches_written(), 0u);
    EXPECT_EQ(writer.record_count(), 0u);
    EXPECT_EQ(writer.bytes_written(), dataset::kHeaderBytes);
    for (const be::TrajectoryBatch& batch : original.batches)
      writer.append(batch);
    EXPECT_EQ(writer.batches_written(), 4u);
    EXPECT_EQ(writer.record_count(), 12u);
    writer.close();
    // After close the byte count is exactly the file size.
    EXPECT_EQ(writer.bytes_written(), slurp(path).size());
  }
}

TEST(StatsStreamWriter, NetBatchPayloadIsTheAppendedBlock) {
  // The wire and the disk share one block layout: a BATCH payload is
  // exactly the bytes StreamWriter appends for the same batch.
  const auto path = temp_path("wire_block");
  std::vector<be::TrajectoryBatch> batches = make_result().batches;
  // An unrealizable batch: no records, zero probabilities.
  batches.push_back(make_batch(4, {{3, 2}}, {}, 0.0));

  std::vector<std::uint64_t> ends;
  {
    dataset::StreamWriter writer(path);
    for (const be::TrajectoryBatch& batch : batches) {
      writer.append(batch);
      ends.push_back(writer.bytes_written());
    }
  }
  const std::string file = slurp(path);
  std::uint64_t begin = dataset::kHeaderBytes;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(net::encode_batch(batches[i]),
              file.substr(begin, ends[i] - begin));
    begin = ends[i];
  }
  EXPECT_EQ(begin, file.size());
}

TEST(StatsStreamWriter, FlushedPrefixReadsAsCompleteDataset) {
  // Regression for the out-of-core contract: a file whose final chunk was
  // flushed but where later appends never reached a close (an aborted
  // streaming run) must read back as exactly the flushed prefix.
  const auto path = temp_path("flush_prefix");
  const auto crashed = temp_path("flush_prefix_crashed");
  const be::Result original = make_result();

  dataset::StreamWriter writer(path);
  writer.append(original.batches[0]);
  writer.append(original.batches[1]);
  writer.flush();
  const std::uint64_t flushed_bytes = writer.bytes_written();
  EXPECT_EQ(flushed_bytes, slurp(path).size());  // flush hit the disk

  // More appends land after the flush and are never flushed or closed —
  // snapshot the on-disk state mid-stream, as a crash would leave it.
  writer.append(original.batches[2]);
  writer.append(original.batches[3]);
  writer.flush();  // flush data so the snapshot sees the trailing bytes
  {
    std::string on_disk = slurp(path);
    // Rewind the header count to the 2-batch flush point: the snapshot now
    // has trailing bytes beyond what its header declares.
    spit(crashed, on_disk);
    std::fstream patch(crashed,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4 + sizeof(std::uint32_t));
    const std::uint64_t two = 2;
    patch.write(reinterpret_cast<const char*>(&two), sizeof(two));
  }
  writer.close();

  dataset::Reader reader(crashed);
  EXPECT_EQ(reader.num_batches(), 2u);
  be::TrajectoryBatch batch;
  ASSERT_TRUE(reader.next(batch));
  expect_batches_equal(original.batches[0], batch);
  ASSERT_TRUE(reader.next(batch));
  expect_batches_equal(original.batches[1], batch);
  EXPECT_FALSE(reader.next(batch));  // trailing bytes ignored by contract

  // The fully-closed file still reads in full.
  EXPECT_EQ(dataset::Reader(path).num_batches(), 4u);
}

TEST(StatsStreamWriter, FlushAfterCloseIsRejected) {
  const auto path = temp_path("flush_closed");
  dataset::StreamWriter writer(path);
  writer.close();
  EXPECT_THROW(writer.flush(), precondition_error);
}

// ---------------------------------------------------------------------------
// ShotTable: aggregation, diff, normalise, serialisation determinism.
// ---------------------------------------------------------------------------

TEST(StatsShotTable, AddMergeDiffNormalise) {
  stats::ShotTable a;
  a.add(3);
  a.add(3);
  a.add(1);
  stats::ShotTable b;
  b.add(3);
  b.add(7, 2.0);

  stats::ShotTable merged = a;
  merged.merge(b);  // BranchTab_plusEquals semantics
  EXPECT_EQ(merged.total(), 6.0);
  EXPECT_EQ(merged.distinct(), 3u);
  EXPECT_EQ(merged.weight_of(3), 3.0);
  EXPECT_EQ(merged.weight_of(7), 2.0);
  EXPECT_EQ(merged.weight_of(42), 0.0);

  const stats::ShotTable d = merged.diff(a);
  EXPECT_EQ(d.weight_of(3), 1.0);
  EXPECT_EQ(d.weight_of(7), 2.0);
  EXPECT_FALSE(d.contains(1));       // exact-zero differences are dropped
  EXPECT_TRUE(a.diff(a).empty());    // self-diff is the empty table

  stats::ShotTable p = merged;
  p.normalise();
  EXPECT_DOUBLE_EQ(p.total(), 1.0);
  EXPECT_EQ(p.weight_of(3), 3.0 / 6.0);

  stats::ShotTable empty;
  EXPECT_THROW(empty.normalise(), precondition_error);
}

TEST(StatsShotTable, SerialisationIsByteStableAcrossInsertionOrder) {
  stats::ShotTable forward;
  stats::ShotTable backward;
  for (std::uint64_t r = 0; r < 64; ++r) forward.add(r * 37 % 101, 1.5);
  for (std::uint64_t r = 64; r-- > 0;) backward.add(r * 37 % 101, 1.5);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.serialize(), backward.serialize());

  const stats::ShotTable back =
      stats::ShotTable::deserialize(forward.serialize());
  EXPECT_EQ(back, forward);
  EXPECT_EQ(back.serialize(), forward.serialize());

  // add_batch adds each run of equal records in one step: the same bytes
  // as one add per record, for sorted and unsorted runs alike.
  const be::TrajectoryBatch repeats =
      make_batch(0, {}, {5, 5, 5, 2, 9, 9, 2, 2, 2, 2, 5, 0});
  stats::ShotTable by_batch;
  stats::ShotTable by_record;
  for (int pass = 0; pass < 2; ++pass) {
    by_batch.add_batch(repeats);
    for (const std::uint64_t r : repeats.records) by_record.add(r);
  }
  EXPECT_EQ(by_batch.serialize(), by_record.serialize());
}

TEST(StatsShotTable, DeserializeRejectsCorruptBytes) {
  EXPECT_THROW(stats::ShotTable::deserialize("junk"), invariant_error);
  stats::ShotTable t;
  t.add(5);
  std::string bytes = t.serialize();
  bytes.resize(bytes.size() - 1);  // truncate the last weight
  EXPECT_THROW(stats::ShotTable::deserialize(bytes), invariant_error);
}

TEST(StatsShotTable, TableOfFileMatchesTableOfResult) {
  const auto path = temp_path("table_of_file");
  const be::Result original = make_result();
  dataset::write_binary(path, original);
  const stats::ShotTable from_file = stats::table_of_file(path);
  const stats::ShotTable from_result = stats::table_of_result(original);
  EXPECT_EQ(from_file, from_result);
  EXPECT_EQ(from_file.total(), 12.0);
}

TEST(StatsShotTable, JsonTruncationIsDeterministic) {
  stats::ShotTable t;
  for (std::uint64_t r = 0; r < 10; ++r) t.add(r);
  const std::string full = stats::to_json(t);
  EXPECT_EQ(full.find("\"truncated\""), std::string::npos);
  const std::string cut = stats::to_json(t, 3);
  // Smallest records first, then the truncation marker.
  EXPECT_NE(cut.find("\"records\":{\"0\":1,\"1\":1,\"2\":1}"),
            std::string::npos)
      << cut;
  EXPECT_NE(cut.find("\"truncated\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Comparison metrics: exact zero at equality, hand-computed elsewhere.
// ---------------------------------------------------------------------------

TEST(StatsCompare, BitIdenticalTablesGiveExactlyZeroEverywhere) {
  stats::ShotTable t;
  // Awkward weights on purpose: the zero must come from o/e == 1.0 being
  // exact, not from the weights being round numbers.
  t.add(0, 3.0);
  t.add(5, 0.1);
  t.add(9, 1e-9);
  t.add(1234567, 7.25);
  const stats::Comparison c = stats::compare(t, t);
  EXPECT_EQ(c.kl_divergence, 0.0);
  EXPECT_EQ(c.chi_squared_cost, 0.0);
  EXPECT_EQ(c.poisson_log_cost, 0.0);
  EXPECT_EQ(c.total_variation, 0.0);
  EXPECT_TRUE(c.exact_match());
}

TEST(StatsCompare, HandComputedValues) {
  stats::ShotTable observed;
  observed.add(0, 3.0);
  observed.add(1, 1.0);
  stats::ShotTable expected;
  expected.add(0, 2.0);
  expected.add(1, 2.0);

  // Normalised: p = (3/4, 1/4), q = (1/2, 1/2).
  const double kl =
      0.75 * std::log(0.75 / 0.5) + 0.25 * std::log(0.25 / 0.5);
  EXPECT_DOUBLE_EQ(stats::kl_divergence(observed, expected), kl);

  // Raw counts: (3-2)^2/2 + (1-2)^2/2 = 1.
  EXPECT_DOUBLE_EQ(stats::chi_squared_cost(observed, expected), 1.0);

  // Deviance: 2*[3 ln(3/2) - 1] + 2*[1 ln(1/2) + 1].
  const double poisson = 2.0 * (3.0 * std::log(3.0 / 2.0) - 1.0) +
                         2.0 * (1.0 * std::log(0.5) + 1.0);
  EXPECT_DOUBLE_EQ(stats::poisson_log_cost(observed, expected), poisson);

  // TV: 0.5 * (|3/4-1/2| + |1/4-1/2|) = 0.25.
  EXPECT_DOUBLE_EQ(stats::total_variation(observed, expected), 0.25);
}

TEST(StatsCompare, ObservedSupportOutsideExpectationIsInfinite) {
  stats::ShotTable observed;
  observed.add(0, 1.0);
  observed.add(1, 1.0);
  stats::ShotTable expected;
  expected.add(0, 2.0);

  EXPECT_TRUE(std::isinf(stats::kl_divergence(observed, expected)));
  EXPECT_TRUE(std::isinf(stats::chi_squared_cost(observed, expected)));
  EXPECT_TRUE(std::isinf(stats::poisson_log_cost(observed, expected)));
  const double tv = stats::total_variation(observed, expected);
  EXPECT_TRUE(std::isfinite(tv));

  // The reverse direction stays finite: `expected`'s whole support lies
  // inside `observed`'s, so D(expected ‖ observed) = 1·ln(1/0.5) = ln 2.
  EXPECT_DOUBLE_EQ(stats::kl_divergence(expected, observed),
                   std::log(2.0));
  EXPECT_DOUBLE_EQ(tv, 0.5);
  const std::string json =
      stats::comparison_to_json(stats::compare(observed, expected));
  EXPECT_NE(json.find("\"kl_divergence\":\"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"exact_match\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// k-way merge: byte identity, ordering, the memory budget.
// ---------------------------------------------------------------------------

TEST(StatsMerge, RoundRobinShardsMergeBackToOriginalBytes) {
  const be::Result original = make_result();
  const auto whole = temp_path("merge_whole");
  dataset::write_binary(whole, original);

  const std::size_t kShards = 3;
  std::vector<test::TempFile> shards;
  std::vector<std::string> shard_paths;
  {
    std::vector<std::unique_ptr<dataset::StreamWriter>> writers;
    for (std::size_t s = 0; s < kShards; ++s) {
      shards.push_back(temp_path("merge_shard" + std::to_string(s)));
      shard_paths.push_back(shards.back());
      writers.push_back(
          std::make_unique<dataset::StreamWriter>(shard_paths.back()));
    }
    for (std::size_t i = 0; i < original.batches.size(); ++i)
      writers[i % kShards]->append(original.batches[i]);
    for (auto& w : writers) w->close();
  }

  const auto merged = temp_path("merge_out");
  const stats::MergeReport report =
      stats::merge_datasets(merged, shard_paths);
  EXPECT_EQ(report.inputs, kShards);
  EXPECT_EQ(report.batches, original.batches.size());
  EXPECT_EQ(report.records, 12u);
  EXPECT_EQ(report.bytes_out, slurp(merged).size());
  EXPECT_GT(report.peak_buffered_bytes, 0u);
  EXPECT_EQ(slurp(merged), slurp(whole));

  // Merging the merge with an empty shard is the identity.
  const auto empty_shard = temp_path("merge_empty");
  dataset::StreamWriter(empty_shard).close();
  const auto merged2 = temp_path("merge_out2");
  (void)stats::merge_datasets(merged2, {merged, empty_shard});
  EXPECT_EQ(slurp(merged2), slurp(whole));
}

TEST(StatsMerge, BudgetSmallerThanHeadBatchesThrows) {
  const be::Result original = make_result();
  const auto a = temp_path("budget_a");
  const auto b = temp_path("budget_b");
  dataset::write_binary(a, original);
  dataset::write_binary(b, original);

  stats::MergeOptions opts;
  opts.memory_budget_bytes = 8;  // cannot hold even one head batch
  const auto out = temp_path("budget_out");
  EXPECT_THROW(stats::merge_datasets(out, {a, b}, opts), runtime_failure);

  // A feasible budget reports a peak within it.
  opts.memory_budget_bytes = 1 << 20;
  const stats::MergeReport report =
      stats::merge_datasets(out, {a, b}, opts);
  EXPECT_LE(report.peak_buffered_bytes, opts.memory_budget_bytes);

  EXPECT_THROW(stats::merge_datasets(out, {}), precondition_error);
}

TEST(StatsMerge, BudgetCountsRunBlocksAtTheirDecodedSize) {
  // Each shard holds one batch of 100000 equal shots: one run, a block of
  // 64 bytes on disk, which decodes to 800 KB of records. Two such heads
  // overflow a 1 MiB budget however small their files are.
  const auto a = temp_path("runs_budget_a");
  const auto b = temp_path("runs_budget_b");
  for (std::size_t s = 0; s < 2; ++s) {
    be::Result shard;
    shard.batches.push_back(
        make_batch(s, {}, std::vector<std::uint64_t>(100000, 5)));
    dataset::write_binary(s == 0 ? a : b, shard);
  }
  EXPECT_EQ(slurp(a).size(), dataset::kHeaderBytes + 64);

  stats::MergeOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  const auto out = temp_path("runs_budget_out");
  EXPECT_THROW(stats::merge_datasets(out, {a, b}, opts), runtime_failure);

  // Room for both decoded heads: the peak is their decoded size.
  opts.memory_budget_bytes = 2 << 20;
  const stats::MergeReport report = stats::merge_datasets(out, {a, b}, opts);
  EXPECT_EQ(report.peak_buffered_bytes, 2 * (48 + 8 * 100000u));
  EXPECT_EQ(report.records, 200000u);
  EXPECT_EQ(report.bytes_out, dataset::kHeaderBytes + 2 * 64);
}

// ---------------------------------------------------------------------------
// Serve: the per-tenant ShotTable aggregate behind EngineStats.
// ---------------------------------------------------------------------------

TEST(StatsServe, TenantAggregateMatchesJobRecordsOnBothPaths) {
  serve::EngineConfig config;
  config.workers = 1;
  serve::Engine engine(config);

  serve::JobRequest req;
  req.circuit_text = ghz_ptq(3);
  req.tenant = "tab-tenant";
  req.seed = 7;
  req.strategy_config.nsamples = 100;
  req.strategy_config.nshots = 20;

  serve::JobHandle first = engine.submit(req);
  stats::ShotTable expected = stats::table_of_result(first.wait().result);

  // The same job streamed: the aggregate must keep growing identically
  // (streaming taps the sink path, not the materialised result).
  std::vector<std::uint64_t> streamed_records;
  serve::JobRequest streaming = req;
  streaming.stream_sink = [&](be::TrajectoryBatch&& batch) {
    for (const std::uint64_t r : batch.records)
      streamed_records.push_back(r);
  };
  serve::JobHandle second = engine.submit(streaming);
  second.wait();
  for (const std::uint64_t r : streamed_records) expected.add(r);

  const serve::EngineStats snapshot = engine.stats();
  const auto it = snapshot.tenants.find("tab-tenant");
  ASSERT_NE(it, snapshot.tenants.end());
  EXPECT_EQ(it->second.shots, expected);
  EXPECT_EQ(it->second.shot_overflow, 0u);
  EXPECT_EQ(it->second.shots.serialize(), expected.serialize());

  const std::string json = serve::stats_to_json(snapshot);
  EXPECT_NE(json.find("\"shots\": {\"total\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shot_overflow\": 0"), std::string::npos);
}

TEST(StatsServe, CapacityBoundSpillsNewRecordsToOverflow) {
  serve::EngineConfig config;
  config.workers = 1;
  config.tenant_shot_table_capacity = 1;  // one distinct record only
  serve::Engine engine(config);

  serve::JobRequest req;
  req.circuit_text = ghz_ptq(3);
  req.tenant = "bounded";
  req.seed = 7;
  req.strategy_config.nsamples = 100;
  req.strategy_config.nshots = 20;
  serve::JobHandle job = engine.submit(req);

  const stats::ShotTable full = stats::table_of_result(job.wait().result);
  ASSERT_GT(full.distinct(), 1u) << "workload too clean to test overflow";

  const serve::EngineStats snapshot = engine.stats();
  const serve::TenantStats& t = snapshot.tenants.at("bounded");
  EXPECT_EQ(t.shots.distinct(), 1u);
  EXPECT_GT(t.shot_overflow, 0u);
  // Tabulated + spilled covers every record exactly once.
  EXPECT_EQ(t.shots.total() + static_cast<double>(t.shot_overflow),
            full.total());

  // The engine applies the bound once per run of equal records. Replaying
  // the per-record rule over the streamed batches, in delivery order, must
  // give the same table bytes and overflow at every capacity: sorted
  // records (statevector) and unsorted ones (stabilizer), and capacities
  // that fill in the middle of a batch.
  for (const std::string backend : {"statevector", "stabilizer"}) {
    bool saw_unsorted = false;
    bool filled_mid_batch = false;
    for (const std::size_t capacity : {1, 2, 3, 5, 8}) {
      std::vector<std::vector<std::uint64_t>> delivered;
      serve::EngineConfig bounded = config;
      bounded.tenant_shot_table_capacity = capacity;
      serve::Engine streaming_engine(bounded);
      serve::JobRequest streaming = req;
      streaming.backend = backend;
      streaming.threads = 1;
      streaming.stream_sink = [&](be::TrajectoryBatch&& batch) {
        delivered.push_back(batch.records);
      };
      streaming_engine.submit(streaming).wait();

      stats::ShotTable replay;
      std::uint64_t overflow = 0;
      for (const std::vector<std::uint64_t>& records : delivered) {
        saw_unsorted |= !std::is_sorted(records.begin(), records.end());
        bool filled_in_batch = false;
        for (const std::uint64_t r : records) {
          const std::size_t before = replay.distinct();
          if (replay.contains(r) || before < capacity) {
            replay.add(r);
            filled_in_batch |=
                before < capacity && replay.distinct() == capacity;
          } else {
            ++overflow;
            filled_mid_batch |= filled_in_batch;
          }
        }
      }
      const serve::EngineStats streamed_stats = streaming_engine.stats();
      const serve::TenantStats& streamed = streamed_stats.tenants.at("bounded");
      EXPECT_EQ(streamed.shots.serialize(), replay.serialize())
          << backend << " capacity " << capacity;
      EXPECT_EQ(streamed.shot_overflow, overflow)
          << backend << " capacity " << capacity;
    }
    EXPECT_TRUE(filled_mid_batch) << backend;
    EXPECT_EQ(saw_unsorted, backend == "stabilizer");
  }
}

TEST(StatsServe, ZeroCapacityDisablesAggregation) {
  serve::EngineConfig config;
  config.workers = 1;
  config.tenant_shot_table_capacity = 0;
  serve::Engine engine(config);

  serve::JobRequest req;
  req.circuit_text = ghz_ptq(3);
  req.tenant = "off";
  req.seed = 7;
  req.strategy_config.nsamples = 50;
  req.strategy_config.nshots = 10;
  serve::JobHandle job = engine.submit(req);
  job.wait();

  const serve::EngineStats snapshot = engine.stats();
  const serve::TenantStats& t = snapshot.tenants.at("off");
  EXPECT_TRUE(t.shots.empty());
  EXPECT_EQ(t.shot_overflow, 0u);
}

// ---------------------------------------------------------------------------
// The net-loopback shard property: merging per-shard ShotTables equals the
// single-process table, byte for byte after re-serialisation — and the
// STATS frame carries the aggregate.
// ---------------------------------------------------------------------------

TEST(StatsNetLoopback, PerShardTableMergeEqualsSingleProcessTable) {
  serve::JobRequest req;
  req.circuit_text = ghz_ptq(4);
  req.tenant = "shard-prop";
  req.seed = 20260807;
  req.strategy_config.nsamples = 150;
  req.strategy_config.nshots = 40;

  // Two daemon processes' worth of servers serve the same job — their
  // results are bit-identical by the determinism contract, so slicing even
  // specs from A and odd specs from B yields genuine cross-process shards.
  net::Server daemon_a{{}};
  net::Server daemon_b{{}};
  net::ShardedClient client_a({daemon_a.endpoint()});
  net::ShardedClient client_b({daemon_b.endpoint()});
  const RunResult run_a = client_a.submit(req).run;
  const RunResult run_b = client_b.submit(req).run;

  const auto shard_even = temp_path("net_shard_even");
  const auto shard_odd = temp_path("net_shard_odd");
  {
    dataset::StreamWriter even(shard_even);
    dataset::StreamWriter odd(shard_odd);
    for (const be::TrajectoryBatch& batch : run_a.result.batches)
      if (batch.spec_index % 2 == 0) even.append(batch);
    for (const be::TrajectoryBatch& batch : run_b.result.batches)
      if (batch.spec_index % 2 == 1) odd.append(batch);
    even.close();
    odd.close();
  }

  // Also check the wire stats surface while the daemons are up.
  EXPECT_NE(client_a.stats_json(daemon_a.endpoint()).find("\"shots\""),
            std::string::npos);
  daemon_a.stop();
  daemon_b.stop();

  const RunResult local = Pipeline(io::parse_circuit(req.circuit_text))
                              .strategy(req.strategy, req.strategy_config)
                              .backend(req.backend, req.backend_config)
                              .seed(req.seed)
                              .run();
  const auto local_path = temp_path("net_local");
  local.to_binary(local_path);

  // Property 1: per-shard table merge == single-process table, and the
  // re-serialised bytes agree exactly.
  stats::ShotTable merged_tables = stats::table_of_file(shard_even);
  merged_tables.merge(stats::table_of_file(shard_odd));
  const stats::ShotTable single = stats::table_of_file(local_path);
  EXPECT_EQ(merged_tables, single);
  EXPECT_EQ(merged_tables.serialize(), single.serialize());
  EXPECT_TRUE(stats::compare(merged_tables, single).exact_match());

  // Property 2: the out-of-core file merge reproduces the single-process
  // dataset bytes themselves.
  const auto merged_path = temp_path("net_merged");
  (void)stats::merge_datasets(merged_path, {shard_even, shard_odd});
  EXPECT_EQ(slurp(merged_path), slurp(local_path));
}

}  // namespace
}  // namespace ptsbe
