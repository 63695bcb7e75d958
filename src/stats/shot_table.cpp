#include "ptsbe/stats/shot_table.hpp"

#include <cstdio>
#include <cstring>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/record_runs.hpp"

namespace ptsbe::stats {

namespace {

// 17 significant digits round-trip every finite double exactly (same
// formatting discipline as the .ptq writer), so the JSON for two bitwise-
// equal tables is character-identical.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr char kTableMagic[4] = {'P', 'T', 'S', 'T'};
constexpr std::uint32_t kTableVersion = 1;

template <typename T>
void put(std::string& out, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.append(p, sizeof(T));
}

template <typename T>
T get(const std::string& bytes, std::size_t& at) {
  PTSBE_CHECK(sizeof(T) <= bytes.size() - at, "truncated ShotTable bytes");
  T v{};
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  at += sizeof(T);
  return v;
}

}  // namespace

void ShotTable::add_batch(const be::TrajectoryBatch& batch) {
  for_each_run(batch.records, [this](std::uint64_t record, std::uint64_t n) {
    weights_[record] += static_cast<double>(n);
  });
}

ShotTable& ShotTable::merge(const ShotTable& other) {
  for (const auto& [record, weight] : other.weights_)
    weights_[record] += weight;
  return *this;
}

ShotTable ShotTable::diff(const ShotTable& other) const {
  ShotTable out;
  auto it = weights_.begin();
  auto jt = other.weights_.begin();
  while (it != weights_.end() || jt != other.weights_.end()) {
    std::uint64_t record = 0;
    double delta = 0.0;
    if (jt == other.weights_.end() ||
        (it != weights_.end() && it->first < jt->first)) {
      record = it->first;
      delta = it->second;
      ++it;
    } else if (it == weights_.end() || jt->first < it->first) {
      record = jt->first;
      delta = -jt->second;
      ++jt;
    } else {
      record = it->first;
      delta = it->second - jt->second;
      ++it;
      ++jt;
    }
    if (delta != 0.0) out.weights_[record] = delta;
  }
  return out;
}

void ShotTable::normalise() {
  const double sum = total();
  PTSBE_REQUIRE(sum > 0.0, "cannot normalise a ShotTable with total " +
                               fmt(sum));
  for (auto& [record, weight] : weights_) weight /= sum;
}

double ShotTable::total() const noexcept {
  double sum = 0.0;
  for (const auto& [record, weight] : weights_) sum += weight;
  return sum;
}

double ShotTable::weight_of(std::uint64_t record) const noexcept {
  const auto it = weights_.find(record);
  return it == weights_.end() ? 0.0 : it->second;
}

std::string ShotTable::serialize() const {
  std::string out;
  out.reserve(sizeof(kTableMagic) + sizeof(kTableVersion) +
              sizeof(std::uint64_t) + weights_.size() * 16);
  out.append(kTableMagic, sizeof(kTableMagic));
  put(out, kTableVersion);
  put(out, static_cast<std::uint64_t>(weights_.size()));
  for (const auto& [record, weight] : weights_) {
    put(out, record);
    put(out, weight);
  }
  return out;
}

ShotTable ShotTable::deserialize(const std::string& bytes) {
  std::size_t at = 0;
  PTSBE_CHECK(bytes.size() >= sizeof(kTableMagic) &&
                  std::memcmp(bytes.data(), kTableMagic,
                              sizeof(kTableMagic)) == 0,
              "not a serialized ShotTable");
  at += sizeof(kTableMagic);
  const auto version = get<std::uint32_t>(bytes, at);
  PTSBE_CHECK(version == kTableVersion,
              "unsupported ShotTable version " + std::to_string(version));
  const auto count = get<std::uint64_t>(bytes, at);
  PTSBE_CHECK(count <= (bytes.size() - at) / 16, "truncated ShotTable bytes");
  ShotTable table;
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto record = get<std::uint64_t>(bytes, at);
    PTSBE_CHECK(i == 0 || record > previous,
                "ShotTable bytes are not in ascending record order");
    previous = record;
    table.weights_[record] = get<double>(bytes, at);
  }
  return table;
}

ShotTable table_of_result(const be::Result& result) {
  ShotTable table;
  for (const be::TrajectoryBatch& batch : result.batches)
    table.add_batch(batch);
  return table;
}

ShotTable table_of_file(const std::string& path, dataset::ViewMode mode) {
  dataset::Reader reader(path, mode);
  ShotTable table;
  be::TrajectoryBatch batch;
  while (reader.next(batch)) table.add_batch(batch);
  return table;
}

std::string to_json(const ShotTable& table, std::size_t max_records) {
  std::string out = "{\"total\":" + fmt(table.total()) +
                    ",\"distinct\":" + std::to_string(table.distinct()) +
                    ",\"records\":{";
  std::size_t emitted = 0;
  bool truncated = false;
  for (const auto& [record, weight] : table.entries()) {
    if (max_records > 0 && emitted == max_records) {
      truncated = true;
      break;
    }
    if (emitted > 0) out += ',';
    out += '"' + std::to_string(record) + "\":" + fmt(weight);
    ++emitted;
  }
  out += '}';
  if (truncated) out += ",\"truncated\":true";
  out += '}';
  return out;
}

}  // namespace ptsbe::stats
