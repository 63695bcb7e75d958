#include "ptsbe/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "ptsbe/io/ptq.hpp"

namespace ptsbe::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw runtime_failure(std::string(what) + ": " + std::strerror(errno));
}

/// Wire error code for an engine-side admission refusal.
const char* reject_errc(serve::RejectReason reason) {
  switch (reason) {
    case serve::RejectReason::kTenantQuota:
      return errc::kQuota;
    case serve::RejectReason::kShutdown:
      return errc::kShuttingDown;
    case serve::RejectReason::kQueueFull:
    case serve::RejectReason::kNone:
      break;
  }
  return errc::kRejected;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)),
                                      engine_(config_.engine) {
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.listen_host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw runtime_failure("bad listen address '" + config_.listen_host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno(("bind/listen " + endpoint()).c_str());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

std::string Server::endpoint() const {
  return config_.listen_host + ':' + std::to_string(port_);
}

void Server::begin_drain() { draining_.store(true); }

bool Server::draining() const noexcept { return draining_.load(); }

void Server::stop() {
  MutexLock lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;

  begin_drain();
  stopping_.store(true);
  // Wake the accept loop's poll().
  const char byte = 'x';
  (void)!::write(wake_pipe_[1], &byte, 1);
  accept_thread_.join();

  // Drain: every admitted job finishes and streams its frames; connection
  // threads then observe draining_ on their next idle tick and exit.
  engine_.shutdown();
  reap_connections(/*join_all=*/true);

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void Server::reap_connections(bool join_all) {
  std::list<Connection> finished;
  {
    MutexLock lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (join_all || it->done->load()) {
        finished.splice(finished.end(), conns_, it++);
      } else {
        ++it;
      }
    }
  }
  for (Connection& conn : finished) conn.thread.join();
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;  // listener is gone; nothing sane left to do
    }
    if (stopping_.load() || (fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (draining_.load()) {
      ::close(fd);  // refusing new work; existing connections drain
      continue;
    }

    reap_connections(/*join_all=*/false);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    MutexLock lock(conns_mutex_);
    conns_.push_back(Connection{std::move(thread), std::move(done)});
  }
}

void Server::serve_connection(int fd) {
  FdStream stream(fd, config_.max_payload, config_.frame_timeout_ms,
                  config_.idle_poll_ms);

  try {
    Frame frame;
    for (;;) {
      FdStream::ReadStatus status;
      try {
        status = stream.read_frame(frame);
      } catch (const ProtocolError& e) {
        // Malformed framing: reply with structure, then close — after a
        // framing violation the byte stream cannot be resynchronised.
        stream.write_frame(Frame{"ERROR",
                                 {e.code()},
                                 encode_error({e.what(), 0, 0})});
        return;
      }
      if (status == FdStream::ReadStatus::kEof) return;
      if (status == FdStream::ReadStatus::kIdle) {
        if (draining_.load()) return;
        continue;
      }

      if (frame.type == "PING") {
        stream.write_frame(Frame{"PONG", {}, ""});
      } else if (frame.type == "STATS") {
        stream.write_frame(
            Frame{"STATS", {}, serve::stats_to_json(engine_.stats())});
      } else if (frame.type == "SUBMIT") {
        if (!handle_submit(stream, frame)) return;
      } else {
        stream.write_frame(
            Frame{"ERROR",
                  {errc::kProtocol},
                  encode_error({"unknown frame type '" + frame.type + "'",
                                0, 0})});
      }
    }
  } catch (const std::exception&) {
    // Peer vanished mid-write (or an unexpected failure): drop the
    // connection; the engine-side job, if any, already reached a terminal
    // state before we got here.
  }
}

bool Server::handle_submit(FdStream& stream, Frame& frame) {
  const auto wire_error = [&stream](const char* code, WireError error) {
    stream.write_frame(Frame{"ERROR", {code}, encode_error(error)});
  };

  if (frame.args.size() != 2) {
    wire_error(errc::kProtocol,
               {"SUBMIT wants '<tenant> <priority>' args", 0, 0});
    return true;
  }

  serve::JobRequest job;
  try {
    job = decode_submit_payload(frame.payload);
    job.priority = serve::priority_from_string(frame.args[1]);
  } catch (const ProtocolError& e) {
    wire_error(e.code().c_str(), {e.what(), 0, 0});
    return true;
  } catch (const std::exception& e) {  // priority_from_string
    wire_error(errc::kProtocol, {e.what(), 0, 0});
    return true;
  }
  job.tenant = frame.args[0];
  if (job.source_name.empty()) job.source_name = job.tenant + ".ptq";

  // A draining server refuses new admissions with the distinct status even
  // before stop() flips the engine itself into shutdown — in-flight jobs
  // keep streaming on their own connections meanwhile.
  if (draining_.load()) {
    wire_error(errc::kShuttingDown, {"server is draining", 0, 0});
    return true;
  }

  // Kept past the move into submit(): a validation failure is classified
  // by re-parsing (failure path only — the hot path never parses twice).
  const std::string circuit_text = job.circuit_text;
  const std::string source_name = job.source_name;

  // The engine worker streams each batch straight onto this connection's
  // socket. Single-writer discipline: ACK is written *before* submit, and
  // this thread then blocks in wait() until the job is terminal, so the
  // worker is the only writer while BATCH frames flow. `num_batches` is
  // read only after wait() — the job's terminal-state handoff orders it.
  std::size_t num_batches = 0;
  job.stream_sink = [&stream, &num_batches](be::TrajectoryBatch&& batch) {
    stream.write_frame(Frame{"BATCH", {}, encode_batch(batch)});
    ++num_batches;
  };

  stream.write_frame(Frame{"ACK", {}, ""});
  serve::JobHandle handle = engine_.submit(std::move(job));

  serve::JobStatus status = handle.status();
  if (status == serve::JobStatus::kRejected) {
    wire_error(reject_errc(handle.reject_reason()), {handle.error(), 0, 0});
    return true;
  }
  if (status != serve::JobStatus::kFailed) {
    try {
      handle.wait();
    } catch (const std::exception&) {
      // kFailed/kCancelled — classified below via status().
    }
    status = handle.status();
  }

  if (status == serve::JobStatus::kDone) {
    const RunResult& run = handle.result();
    ResultMeta meta;
    meta.job_id = handle.id();
    meta.strategy = run.strategy;
    meta.backend = run.backend;
    meta.weighting = run.weighting;
    meta.num_specs = run.num_specs;
    meta.num_batches = num_batches;
    meta.plan_cache_hit = handle.plan_cache_hit();
    stream.write_frame(Frame{"RESULT", {}, encode_result_meta(meta)});
    stream.write_frame(Frame{"DONE", {}, ""});
    return true;
  }

  // Failed (or cancelled) job: emit a structured error. Parse failures
  // carry ParseError's line:column, 1-based within the `.ptq` section.
  WireError error{handle.error(), 0, 0};
  const char* code = errc::kFailed;
  try {
    (void)io::parse_circuit(circuit_text, source_name);
  } catch (const io::ParseError& pe) {
    code = errc::kParse;
    error = {pe.what(), pe.line(), pe.column()};
  } catch (const std::exception&) {
    // Parsed-but-invalid programs (or non-parse validation failures) keep
    // the engine's diagnostic.
  }
  wire_error(code, error);
  return true;
}

}  // namespace ptsbe::net
