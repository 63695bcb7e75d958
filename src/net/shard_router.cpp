#include "ptsbe/net/shard_router.hpp"

#include <algorithm>

#include "ptsbe/common/error.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/serve/plan_cache.hpp"

namespace ptsbe::net {

namespace {

/// Ring position of virtual node `index` of shard `name`.
std::uint64_t vnode_hash(const std::string& name, std::size_t index) {
  return ShardRouter::hash64(name + '#' + std::to_string(index));
}

}  // namespace

ShardRouter::ShardRouter(std::size_t virtual_nodes)
    : virtual_nodes_(virtual_nodes) {
  PTSBE_REQUIRE(virtual_nodes > 0, "ShardRouter needs at least 1 vnode");
}

void ShardRouter::add_endpoint(const std::string& endpoint,
                               const std::string& name) {
  PTSBE_REQUIRE(!endpoint.empty(), "shard endpoint must be non-empty");
  const std::string& key = name.empty() ? endpoint : name;
  // A known name only moves to its new endpoint: its ring points stay.
  if (!shards_.insert_or_assign(key, endpoint).second) return;
  for (std::size_t i = 0; i < virtual_nodes_; ++i) {
    // On a (astronomically unlikely) vnode hash collision the earlier
    // shard keeps the slot; the ring stays consistent either way.
    ring_.emplace(vnode_hash(key, i), key);
  }
}

void ShardRouter::remove_endpoint(const std::string& name) {
  if (shards_.erase(name) == 0) return;
  for (std::size_t i = 0; i < virtual_nodes_; ++i) {
    const auto it = ring_.find(vnode_hash(name, i));
    if (it != ring_.end() && it->second == name) ring_.erase(it);
  }
}

const std::string& ShardRouter::route(std::uint64_t fingerprint) const {
  PTSBE_REQUIRE(!ring_.empty(), "ShardRouter has no endpoints");
  auto it = ring_.lower_bound(fingerprint);
  if (it == ring_.end()) it = ring_.begin();  // clockwise wraparound
  return shards_.at(it->second);
}

std::vector<std::string> ShardRouter::endpoints() const {
  std::vector<std::string> out;
  out.reserve(shards_.size());
  for (const auto& [name, endpoint] : shards_) out.push_back(endpoint);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t ShardRouter::fingerprint(const serve::JobRequest& job) {
  const NoisyCircuit parsed =
      io::parse_circuit(job.circuit_text, job.source_name);
  return hash64(serve::plan_cache_key(io::write_circuit(parsed), job.backend,
                                      job.backend_config));
}

std::uint64_t ShardRouter::hash64(const std::string& bytes) {
  // FNV-1a 64...
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // ...plus a murmur-style avalanche: FNV alone clusters short suffix
  // differences (like "#<vnode>") in the low bits, which would clump
  // virtual nodes on the ring.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace ptsbe::net
