#pragma once

/// \file shard_router.hpp
/// \brief Consistent-hash routing of jobs to daemon shards, keyed by the
/// plan-cache canonical-text fingerprint.
///
/// N `ptsbe_netd` processes behave as one service when every client routes
/// a given circuit to the same shard: that shard's LRU `ExecPlan` cache
/// then sees every repeat of the circuit (cache affinity), while distinct
/// circuits spread across the fleet. The router hashes the *plan-cache
/// key* — canonical `.ptq` text + backend name + BackendConfig — so two
/// textually different submissions of the same circuit (comments,
/// whitespace) still land on the same shard, exactly mirroring how
/// `serve::PlanCache` would coalesce them locally.
///
/// Standard consistent-hash ring with virtual nodes: each shard's name is
/// hashed onto the ring `virtual_nodes` times and a fingerprint routes to
/// the first node clockwise. Adding or removing one shard remaps only
/// ~1/N of the keyspace — no full fleet reshuffle on scale-out. The name
/// defaults to the shard's endpoint; a deployment that names its shards
/// keeps every route (and so plan-cache affinity) when a daemon restarts
/// on another port.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ptsbe/serve/engine.hpp"

namespace ptsbe::net {

/// One daemon of a fleet: the name the ring hashes (empty: the endpoint)
/// and the `host:port` it listens on.
struct Shard {
  std::string name;
  std::string endpoint;
};

/// Consistent-hash ring over shard names, routing to `host:port`
/// endpoints. Not thread-safe for concurrent mutation; build once, route
/// from anywhere.
class ShardRouter {
 public:
  /// \param virtual_nodes ring points per shard (more = smoother key
  /// distribution at slightly larger ring; 64 keeps the max/min shard
  /// load ratio under ~1.3 for small fleets).
  explicit ShardRouter(std::size_t virtual_nodes = 64);

  /// Add shard `name` at `endpoint`; an empty name is the endpoint
  /// (idempotent). Re-adding a name moves that shard to `endpoint` without
  /// changing which shard owns any fingerprint. \throws precondition_error
  /// when `endpoint` is empty.
  void add_endpoint(const std::string& endpoint, const std::string& name = {});
  /// Remove the shard named `name` — an unnamed shard by its endpoint
  /// (no-op when absent).
  void remove_endpoint(const std::string& name);

  /// Endpoint of the shard owning `fingerprint`. \throws
  /// precondition_error when the ring is empty.
  [[nodiscard]] const std::string& route(std::uint64_t fingerprint) const;

  /// Convenience: route a job directly.
  [[nodiscard]] const std::string& route(const serve::JobRequest& job) const {
    return route(fingerprint(job));
  }

  /// Distinct endpoints currently on the ring (sorted).
  [[nodiscard]] std::vector<std::string> endpoints() const;
  /// Shards on the ring.
  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }

  /// Routing fingerprint of a job: 64-bit hash of its plan-cache key
  /// (canonical circuit text + backend + config). \throws io::ParseError
  /// when the circuit text is malformed — route only validated jobs.
  [[nodiscard]] static std::uint64_t fingerprint(const serve::JobRequest& job);

  /// FNV-1a 64 with an avalanche finaliser — stable across platforms, so
  /// every client and every daemon agree on shard placement.
  [[nodiscard]] static std::uint64_t hash64(const std::string& bytes);

 private:
  std::size_t virtual_nodes_;
  std::map<std::uint64_t, std::string> ring_;  // vnode hash → shard name
  std::map<std::string, std::string> shards_;  // shard name → endpoint
};

}  // namespace ptsbe::net
