#pragma once

/// \file client.hpp
/// \brief Blocking clients for the `ptsbe::net` wire protocol.
///
/// `Client` speaks to one daemon; `ShardedClient` fans a fleet of daemons
/// out behind a `ShardRouter`, so N processes present the single-service
/// interface the ROADMAP's scale-out item asks for. Both reconstruct a
/// full `RunResult` from the streamed frames: BATCH frames are reassembled
/// by `spec_index` into spec order — exactly where `be::execute` places
/// them — so the records a remote caller sees are bit-identical to a local
/// `Pipeline::run` (timings excepted: wall-clock splits are measured, not
/// computed, and are not transported).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/net/protocol.hpp"
#include "ptsbe/net/shard_router.hpp"
#include "ptsbe/serve/engine.hpp"

namespace ptsbe::net {

/// Connection + patience knobs for one client.
struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Bound (ms) on establishing the TCP connection — a dead endpoint
  /// fails fast instead of hanging (pinned by the dead-port ctest smoke).
  int connect_timeout_ms = 5000;
  /// Receive-timeout tick (ms); a silent server fails a call after
  /// `frame_timeout_ms` of mid-frame stall.
  int io_timeout_ms = 250;
  int frame_timeout_ms = 30000;
  std::size_t max_payload = kDefaultMaxPayload;
  /// Bound (ms) on waiting for the first reply frame of a call (covers
  /// queue time ahead of slow jobs; raise for saturated servers).
  int reply_timeout_ms = 120000;
};

/// A structured failure the server reported (ERROR frame), or a local
/// protocol violation. `code()` is an `errc` string; parse failures carry
/// `line()`/`column()` (1-based within the submitted `.ptq` text).
class RemoteError : public runtime_failure {
 public:
  RemoteError(std::string code, const WireError& error)
      : runtime_failure(error.message),
        code_(std::move(code)),
        line_(error.line),
        column_(error.column) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::string code_;
  std::size_t line_;
  std::size_t column_;
};

/// One remote job's outcome: the reconstructed run plus wire-level
/// diagnostics.
struct RemoteRun {
  std::uint64_t job_id = 0;
  bool plan_cache_hit = false;
  std::size_t num_batches = 0;
  RunResult run;
};

/// Blocking client for one daemon. Connects lazily on first call; not
/// thread-safe (one connection, one in-flight call). A call that fails
/// before reading its whole reply (a timeout, an oversize or malformed
/// frame, a framing ERROR) drops the connection, so the next call
/// reconnects instead of reading the rest of the old reply; an
/// engine-level ERROR (quota, rejected, parse, …) ends its reply and keeps
/// the connection.
class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  /// Run one job remotely and reconstruct its RunResult.
  /// \throws RemoteError for server-reported failures (rejections, quota,
  ///         parse errors, drain) and protocol violations;
  ///         runtime_failure when the endpoint is unreachable.
  RemoteRun submit(const serve::JobRequest& job);

  /// The server's EngineStats snapshot as JSON (per-tenant included).
  std::string stats_json();

  /// Liveness round-trip. \throws runtime_failure when unreachable.
  void ping();

  /// Drop the connection (reconnects lazily on the next call).
  void close();

  [[nodiscard]] const ClientConfig& config() const noexcept {
    return config_;
  }

 private:
  void ensure_connected();
  /// Read the next frame, failing after reply_timeout_ms of idle.
  FdStream::ReadStatus next_frame(Frame& out, const char* waiting_for);

  ClientConfig config_;
  std::unique_ptr<FdStream> stream_;
};

/// Fleet client: routes every job to the shard owning its plan-cache
/// fingerprint, so repeat circuits always hit the same daemon's ExecPlan
/// cache. Connections are opened lazily per endpoint. Not thread-safe.
class ShardedClient {
 public:
  /// \param endpoints `host:port` shard addresses (≥1), each shard named
  ///        by its endpoint.
  /// \param base connection knobs applied to every shard (host/port
  ///        fields are overridden per endpoint).
  explicit ShardedClient(const std::vector<std::string>& endpoints,
                         ClientConfig base = {},
                         std::size_t virtual_nodes = 64);
  /// Named shards (≥1): routes follow the names, not the endpoints.
  explicit ShardedClient(const std::vector<Shard>& shards,
                         ClientConfig base = {},
                         std::size_t virtual_nodes = 64);

  /// Route `job` to its shard and run it there.
  RemoteRun submit(const serve::JobRequest& job);

  /// The shard a job would be routed to (diagnostics / tests).
  [[nodiscard]] const std::string& route(const serve::JobRequest& job) const {
    return router_.route(job);
  }

  /// Stats JSON from one shard.
  std::string stats_json(const std::string& endpoint);

  [[nodiscard]] std::vector<std::string> endpoints() const {
    return router_.endpoints();
  }

 private:
  Client& shard(const std::string& endpoint);

  ClientConfig base_;
  ShardRouter router_;
  std::map<std::string, Client> clients_;
};

}  // namespace ptsbe::net
