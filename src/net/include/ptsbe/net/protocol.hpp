#pragma once

/// \file protocol.hpp
/// \brief The `ptsbe::net` wire protocol — length-prefixed, line-oriented
/// frames carrying `.ptq` jobs and streamed trajectory batches.
///
/// Every frame is one ASCII header line plus a raw payload:
///
/// ```
/// <TYPE> [<arg> ...] <payload-length>\n
/// <payload-length bytes of payload>
/// ```
///
/// The header line is at most `kMaxHeaderBytes` bytes; tokens are
/// space-separated and the *last* token is always the payload length in
/// decimal bytes. Frames the client sends:
///
///  - `SUBMIT <tenant> <priority> <len>` — one job. The payload is zero or
///    more `key=value` job-config lines, then a line containing exactly
///    `circuit`, then the `.ptq` text verbatim (so `ParseError`
///    line:column positions are relative to the `.ptq` section).
///  - `STATS 0` — request the engine's per-tenant counters as JSON.
///  - `PING 0` — liveness probe.
///
/// Frames the server sends (per SUBMIT, in order):
///
///  - `ACK 0` — the frame was read and the job is being admitted.
///  - `BATCH <len>` — one `be::TrajectoryBatch` as exactly one PTSB
///    format-v3 block (the bytes `dataset::StreamWriter` appends for it),
///    streamed off the engine's `BatchSink` path as the worker completes
///    it (completion order; reassemble by `spec_index`). A block stores
///    its records as (record, count) runs when that is smaller, so a
///    batch's frame grows with its distinct outcomes, not its shots.
///  - `RESULT <len>` — run metadata (`key=value` lines: job_id, strategy,
///    backend, weighting, schedules, num_specs, num_batches,
///    plan_cache_hit).
///  - `DONE 0` — job complete.
///  - `ERROR <code> <len>` — structured failure instead of the above; the
///    payload is `key=value` lines (`message=` always; `line=`/`column=`
///    for parse errors, 1-based within the `.ptq` section of the SUBMIT
///    payload). Codes are in `ptsbe::net::errc`.
///  - `STATS <len>` / `PONG 0` — replies to STATS / PING.
///
/// Batch payloads go through the dataset block codec
/// (`dataset::encode_block` / `decode_block`): little-endian u64 fields with
/// doubles as raw IEEE-754 bit patterns, and records either plain or as
/// runs in shot order, so a batch round-trips *bit-identically* — the
/// loopback determinism matrix pins served bytes to standalone
/// `Pipeline::run`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/serve/engine.hpp"

namespace ptsbe::net {

/// Protocol revision (bumped on incompatible frame changes; 2 made the
/// BATCH payload a PTSB format-v2 block, 3 a format-v3 block, which may
/// store its records as runs; 4 dropped the RESULT frame's
/// schedule_requested and schedule_executed keys).
inline constexpr int kProtocolVersion = 4;
/// Hard bound on one header line, including the trailing newline.
inline constexpr std::size_t kMaxHeaderBytes = 256;
/// Default bound on one frame payload (servers reject bigger with
/// `errc::kOversize`; configurable per server).
inline constexpr std::size_t kDefaultMaxPayload = 8u << 20;

/// ERROR-frame codes — the wire's distinct-status vocabulary.
namespace errc {
inline constexpr const char* kProtocol = "protocol";  ///< Malformed frame.
inline constexpr const char* kOversize = "oversize";  ///< Payload too large.
inline constexpr const char* kParse = "parse";  ///< Bad `.ptq` / job config.
inline constexpr const char* kRejected = "rejected";  ///< Queue full.
inline constexpr const char* kQuota = "quota";  ///< Tenant quota exhausted.
inline constexpr const char* kShuttingDown = "shutting-down";  ///< Draining.
inline constexpr const char* kFailed = "failed";  ///< Execution error.
}  // namespace errc

/// One wire frame (header type + args, raw payload).
struct Frame {
  std::string type;
  std::vector<std::string> args;
  std::string payload;
};

/// Protocol violation (malformed header, truncated payload, oversize,
/// undecodable batch). `code()` is the `errc` value a server replies with.
class ProtocolError : public runtime_failure {
 public:
  ProtocolError(std::string code, const std::string& message)
      : runtime_failure(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// Buffered frame reader/writer over one connected socket. Owns the fd
/// (closed on destruction) and does its socket setup, so the server and
/// the client configure their ends identically:
///
///  - `TCP_NODELAY` is always set. `write_frame` hands each frame to one
///    `send` and the peer waits for whole frames, so Nagle's algorithm
///    can only add latency: it holds a small frame until the previous one
///    is ACKed, and the peer's delayed ACK stretches that to tens of
///    milliseconds per served job. (The option is ignored on non-TCP
///    sockets.)
///  - A positive `recv_timeout_ms` becomes the fd's SO_RCVTIMEO; 0 keeps
///    the socket's own.
///
/// Reads honour SO_RCVTIMEO: a timeout *between* frames surfaces as kIdle
/// (so a server can poll its drain flag); a timeout *inside* a frame keeps
/// waiting until `frame_timeout_ms`, then throws — a stalled half-frame
/// can never pin a connection thread forever. Not thread-safe for
/// concurrent reads or concurrent writes; one reader plus one writer
/// thread is fine (sockets are full-duplex), which is exactly the server's
/// streaming split.
class FdStream {
 public:
  explicit FdStream(int fd, std::size_t max_payload = kDefaultMaxPayload,
                    int frame_timeout_ms = 30000, int recv_timeout_ms = 0);
  ~FdStream();
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  enum class ReadStatus {
    kFrame,  ///< `out` holds a complete frame.
    kEof,    ///< Peer closed cleanly at a frame boundary.
    kIdle,   ///< Receive timeout with no partial frame pending.
  };

  /// Read one frame. \throws ProtocolError on malformed/truncated/oversize
  /// input; runtime_failure on socket errors.
  ReadStatus read_frame(Frame& out);

  /// Write one frame (handles partial sends; MSG_NOSIGNAL).
  /// \throws runtime_failure when the peer is gone.
  void write_frame(const Frame& frame);

  /// Close the fd early (idempotent; destructor also closes).
  void close();

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  /// Pull more bytes into buf_. Returns false on EOF; throws on error;
  /// loops over EINTR; surfaces receive timeouts via `timed_out`.
  bool fill(bool& timed_out);

  int fd_;
  std::size_t max_payload_;
  int frame_timeout_ms_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< Consumed prefix of buf_.
};

/// Serialise one trajectory batch as the BATCH payload: one PTSB format-v3
/// block (`dataset::encode_block`), so wire and disk bytes are identical.
[[nodiscard]] std::string encode_batch(const be::TrajectoryBatch& batch);

/// Decode a BATCH payload (`dataset::decode_block`).
/// \throws ProtocolError(errc::kProtocol) on a truncated or hostile block
///         (including run counts of zero or summing past
///         `dataset::kMaxBlockRecords`) or trailing bytes after it.
[[nodiscard]] be::TrajectoryBatch decode_batch(std::string_view bytes);

/// Serialise the pipeline configuration of `job` (strategy/backend/
/// schedule/threads/seed + strategy-config knobs + fuse flag) as the
/// `key=value` header lines of a SUBMIT payload, followed by the circuit
/// text. `tenant`, `priority` and `stream_sink` ride elsewhere (frame args
/// / server-side) and are not encoded.
[[nodiscard]] std::string encode_submit_payload(const serve::JobRequest& job);

/// Parse a SUBMIT payload back into a JobRequest (circuit_text + config;
/// tenant/priority left at defaults for the caller to fill from the frame
/// args). \throws ProtocolError(errc::kParse) on malformed config lines.
[[nodiscard]] serve::JobRequest decode_submit_payload(std::string_view payload);

/// Run metadata carried by the RESULT frame.
struct ResultMeta {
  std::uint64_t job_id = 0;
  std::string strategy;
  std::string backend;
  be::Weighting weighting = be::Weighting::kDrawWeighted;
  std::uint64_t num_specs = 0;
  std::uint64_t num_batches = 0;
  bool plan_cache_hit = false;
};

[[nodiscard]] std::string encode_result_meta(const ResultMeta& meta);
/// \throws ProtocolError on malformed/missing fields.
[[nodiscard]] ResultMeta decode_result_meta(std::string_view payload);

/// Wire names for be::Weighting ("draw-weighted" | "probability-weighted").
[[nodiscard]] const std::string& weighting_to_string(be::Weighting weighting);
/// \throws ProtocolError for unknown names.
[[nodiscard]] be::Weighting weighting_from_string(const std::string& name);

/// `key=value` lines of an ERROR payload (message always; line/column for
/// parse errors, 1-based within the `.ptq` section of the SUBMIT payload).
struct WireError {
  std::string message;
  std::size_t line = 0;    ///< 0 = no position.
  std::size_t column = 0;  ///< 0 = no position.
};

[[nodiscard]] std::string encode_error(const WireError& error);
[[nodiscard]] WireError decode_error(std::string_view payload);

}  // namespace ptsbe::net
