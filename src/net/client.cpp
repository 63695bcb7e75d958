#include "ptsbe/net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

namespace ptsbe::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw runtime_failure(std::string(what) + ": " + std::strerror(errno));
}

/// Connect with a hard timeout: non-blocking connect + poll, then back to
/// blocking mode. A dead endpoint (filtered port, unreachable host) fails
/// within `timeout_ms` instead of the kernel's multi-minute SYN retries.
int connect_with_timeout(const std::string& host, std::uint16_t port,
                         int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw runtime_failure("bad host address '" + host + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");

  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno(("connect " + host + ':' + std::to_string(port)).c_str());
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      throw runtime_failure("connect " + host + ':' + std::to_string(port) +
                            ": timed out after " +
                            std::to_string(timeout_ms) + " ms");
    }
    int err = 0;
    socklen_t len = sizeof err;
    (void)::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      throw runtime_failure("connect " + host + ':' + std::to_string(port) +
                            ": " + std::strerror(err));
    }
  }

  (void)::fcntl(fd, F_SETFL, flags);  // back to blocking I/O
  return fd;
}

/// Drops a client's connection unless the call read its whole reply. An
/// exception that leaves mid-exchange (a timeout, an oversize or malformed
/// frame, an undecodable batch) would otherwise leave the rest of the reply
/// in the socket for the next call to misread, and the server blocked
/// sending it; after a close the next call reconnects.
class ReplyGuard {
 public:
  explicit ReplyGuard(Client& client) : client_(client) {}
  ~ReplyGuard() {
    if (!complete_) client_.close();
  }
  ReplyGuard(const ReplyGuard&) = delete;
  ReplyGuard& operator=(const ReplyGuard&) = delete;

  /// The reply has been read to its end; keep the connection.
  void complete() noexcept { complete_ = true; }

 private:
  Client& client_;
  bool complete_ = false;
};

}  // namespace

Client::Client(ClientConfig config) : config_(std::move(config)) {}
Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

void Client::close() { stream_.reset(); }

void Client::ensure_connected() {
  if (stream_) return;
  const int fd = connect_with_timeout(config_.host, config_.port,
                                      config_.connect_timeout_ms);
  stream_ = std::make_unique<FdStream>(fd, config_.max_payload,
                                       config_.frame_timeout_ms,
                                       config_.io_timeout_ms);
}

FdStream::ReadStatus Client::next_frame(Frame& out, const char* waiting_for) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::milliseconds(config_.reply_timeout_ms);
  for (;;) {
    const FdStream::ReadStatus status = stream_->read_frame(out);
    if (status != FdStream::ReadStatus::kIdle) return status;
    if (clock::now() >= deadline) {
      throw runtime_failure(std::string("timed out waiting for ") +
                            waiting_for + " from " + config_.host + ':' +
                            std::to_string(config_.port));
    }
  }
}

RemoteRun Client::submit(const serve::JobRequest& job) {
  PTSBE_REQUIRE(job.tenant.find_first_of(" \n") == std::string::npos,
                "tenant label must not contain spaces or newlines");
  ensure_connected();
  ReplyGuard guard(*this);

  stream_->write_frame(Frame{"SUBMIT",
                             {job.tenant, serve::to_string(job.priority)},
                             encode_submit_payload(job)});

  RemoteRun out;
  std::vector<be::TrajectoryBatch> batches;
  bool acked = false;
  Frame frame;
  for (;;) {
    if (next_frame(frame, acked ? "result frames" : "ACK") ==
        FdStream::ReadStatus::kEof) {
      throw runtime_failure("server closed the connection mid-job");
    }
    if (frame.type == "ERROR") {
      const std::string code =
          frame.args.empty() ? errc::kFailed : frame.args.front();
      const WireError error = decode_error(frame.payload);
      // An ERROR frame ends the exchange. Framing errors poison the
      // stream; engine-level failures leave it at a frame boundary.
      if (code != errc::kProtocol && code != errc::kOversize)
        guard.complete();
      throw RemoteError(code, error);
    }
    if (frame.type == "ACK") {
      acked = true;
    } else if (frame.type == "BATCH") {
      batches.push_back(decode_batch(frame.payload));
    } else if (frame.type == "RESULT") {
      const ResultMeta meta = decode_result_meta(frame.payload);
      out.job_id = meta.job_id;
      out.plan_cache_hit = meta.plan_cache_hit;
      out.num_batches = meta.num_batches;
      out.run.strategy = meta.strategy;
      out.run.backend = meta.backend;
      out.run.weighting = meta.weighting;
      out.run.num_specs = static_cast<std::size_t>(meta.num_specs);
    } else if (frame.type == "DONE") {
      break;
    } else {
      throw RemoteError(errc::kProtocol,
                        {"unexpected frame '" + frame.type +
                             "' during SUBMIT exchange",
                         0, 0});
    }
  }

  if (batches.size() != out.run.num_specs ||
      batches.size() != out.num_batches) {
    throw RemoteError(errc::kProtocol,
                      {"batch count mismatch: streamed " +
                           std::to_string(batches.size()) + ", RESULT says " +
                           std::to_string(out.num_batches) + " of " +
                           std::to_string(out.run.num_specs) + " specs",
                       0, 0});
  }

  // Reassemble completion-order frames into spec order — the exact
  // placement `be::execute` uses, so the materialised result is
  // bit-identical to the local path.
  out.run.result.batches.resize(batches.size());
  std::vector<bool> placed(batches.size(), false);
  for (be::TrajectoryBatch& batch : batches) {
    const std::size_t index = batch.spec_index;
    if (index >= placed.size() || placed[index]) {
      throw RemoteError(errc::kProtocol,
                        {"bad batch spec_index " + std::to_string(index),
                         0, 0});
    }
    placed[index] = true;
    out.run.result.batches[index] = std::move(batch);
  }
  guard.complete();
  return out;
}

std::string Client::stats_json() {
  ensure_connected();
  ReplyGuard guard(*this);
  stream_->write_frame(Frame{"STATS", {}, ""});
  Frame frame;
  if (next_frame(frame, "STATS reply") == FdStream::ReadStatus::kEof) {
    throw runtime_failure("server closed the connection");
  }
  if (frame.type != "STATS") {
    throw RemoteError(errc::kProtocol,
                      {"expected STATS reply, got '" + frame.type + "'", 0,
                       0});
  }
  guard.complete();
  return std::move(frame.payload);
}

void Client::ping() {
  ensure_connected();
  ReplyGuard guard(*this);
  stream_->write_frame(Frame{"PING", {}, ""});
  Frame frame;
  if (next_frame(frame, "PONG") == FdStream::ReadStatus::kEof ||
      frame.type != "PONG") {
    throw runtime_failure("ping failed");
  }
  guard.complete();
}

// ---------------------------------------------------------------------------
// ShardedClient

ShardedClient::ShardedClient(const std::vector<std::string>& endpoints,
                             ClientConfig base, std::size_t virtual_nodes)
    : base_(std::move(base)), router_(virtual_nodes) {
  PTSBE_REQUIRE(!endpoints.empty(), "ShardedClient needs >= 1 endpoint");
  for (const std::string& endpoint : endpoints) {
    router_.add_endpoint(endpoint);
  }
}

ShardedClient::ShardedClient(const std::vector<Shard>& shards,
                             ClientConfig base, std::size_t virtual_nodes)
    : base_(std::move(base)), router_(virtual_nodes) {
  PTSBE_REQUIRE(!shards.empty(), "ShardedClient needs >= 1 shard");
  for (const Shard& shard : shards) {
    router_.add_endpoint(shard.endpoint, shard.name);
  }
}

Client& ShardedClient::shard(const std::string& endpoint) {
  const auto it = clients_.find(endpoint);
  if (it != clients_.end()) return it->second;

  const std::size_t colon = endpoint.rfind(':');
  PTSBE_REQUIRE(colon != std::string::npos && colon + 1 < endpoint.size(),
                "endpoint must be host:port, got '" + endpoint + "'");
  const std::string_view port_tok =
      std::string_view(endpoint).substr(colon + 1);
  unsigned port = 0;
  const auto [ptr, ec] =
      std::from_chars(port_tok.data(), port_tok.data() + port_tok.size(), port);
  PTSBE_REQUIRE(ec == std::errc{} && ptr == port_tok.data() + port_tok.size() &&
                    port >= 1 && port <= 65535,
                "endpoint port must be a number in [1, 65535], got '" +
                    endpoint + "'");
  ClientConfig config = base_;
  config.host = endpoint.substr(0, colon);
  config.port = static_cast<std::uint16_t>(port);
  return clients_.emplace(endpoint, Client(std::move(config))).first->second;
}

RemoteRun ShardedClient::submit(const serve::JobRequest& job) {
  return shard(router_.route(job)).submit(job);
}

std::string ShardedClient::stats_json(const std::string& endpoint) {
  return shard(endpoint).stats_json();
}

}  // namespace ptsbe::net
