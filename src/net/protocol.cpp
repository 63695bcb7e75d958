#include "ptsbe/net/protocol.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "ptsbe/core/dataset.hpp"

namespace ptsbe::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw runtime_failure(std::string(what) + ": " + std::strerror(errno));
}

// ---------------------------------------------------------------------------
// key=value text codec helpers. Doubles use hexfloat (%a / strtod), which is
// exact for every finite IEEE-754 value — the config a job ran under must not
// drift through decimal formatting.

void put_kv(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

void put_kv_u64(std::string& out, const char* key, std::uint64_t value) {
  put_kv(out, key, std::to_string(value));
}

void put_kv_f64(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  put_kv(out, key, buf);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw ProtocolError(errc::kParse, "bad integer for '" + key + "': '" +
                                          value + "'");
  }
  return out;
}

double parse_f64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty()) {
    throw ProtocolError(errc::kParse,
                        "bad number for '" + key + "': '" + value + "'");
  }
  return out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw ProtocolError(errc::kParse,
                      "bad flag for '" + key + "': '" + value +
                          "' (want 0|1|true|false)");
}

/// Split `text` into lines (without terminators), invoking `fn(line)` for
/// each; returns the offset just past the last consumed line when `fn`
/// returns false (the "rest is verbatim" cut point for the circuit section).
template <typename Fn>
std::size_t for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    const std::size_t next = (eol == std::string_view::npos)
                                 ? text.size()
                                 : eol + 1;
    if (eol == std::string_view::npos) eol = text.size();
    if (!fn(text.substr(pos, eol - pos))) return next;
    pos = next;
  }
  return pos;
}

}  // namespace

// ---------------------------------------------------------------------------
// FdStream

FdStream::FdStream(int fd, std::size_t max_payload, int frame_timeout_ms,
                   int recv_timeout_ms)
    : fd_(fd), max_payload_(max_payload), frame_timeout_ms_(frame_timeout_ms) {
  PTSBE_REQUIRE(fd >= 0, "FdStream needs a connected socket");
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  buf_.reserve(4096);
}

FdStream::~FdStream() { close(); }

void FdStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FdStream::fill(bool& timed_out) {
  timed_out = false;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      timed_out = true;
      return true;
    }
    throw_errno("recv");
  }
}

FdStream::ReadStatus FdStream::read_frame(Frame& out) {
  using clock = std::chrono::steady_clock;
  // Armed once a partial frame is buffered: from that point the peer has
  // frame_timeout_ms_ to deliver the rest, idle ticks notwithstanding.
  clock::time_point deadline{};
  bool deadline_armed = false;

  const auto pending = [&] { return buf_.size() - pos_; };
  // `mid_frame` marks the payload stage: the header is consumed, so even
  // zero buffered bytes means the peer owes us data — EOF is a protocol
  // error and the frame deadline arms on the first timeout tick. Only the
  // header stage with nothing buffered counts as a frame boundary.
  const auto pump = [&](const char* stage, bool mid_frame) {
    bool timed_out = false;
    if (!fill(timed_out)) {
      if (!mid_frame && pending() == 0) {
        return false;  // clean EOF at a frame boundary
      }
      throw ProtocolError(errc::kProtocol,
                          std::string("connection closed mid-frame (") +
                              stage + ")");
    }
    if (timed_out) {
      if (!mid_frame && pending() == 0) return true;  // idle between frames
      if (!deadline_armed) {
        deadline_armed = true;
        deadline = clock::now() + std::chrono::milliseconds(frame_timeout_ms_);
      } else if (clock::now() >= deadline) {
        throw ProtocolError(errc::kProtocol,
                            std::string("frame stalled mid-read (") + stage +
                                ")");
      }
    }
    return true;
  };

  // Reclaim the consumed prefix so long-lived connections don't grow buf_.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 65536) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }

  // 1. Header line.
  std::size_t eol;
  for (;;) {
    eol = buf_.find('\n', pos_);
    if (eol != std::string::npos) break;
    if (pending() >= kMaxHeaderBytes) {
      throw ProtocolError(errc::kProtocol, "header line exceeds " +
                                               std::to_string(kMaxHeaderBytes) +
                                               " bytes");
    }
    const bool had_partial = pending() > 0;
    if (!pump("header", /*mid_frame=*/false)) return ReadStatus::kEof;
    if (!had_partial && pending() == 0) return ReadStatus::kIdle;
  }
  if (eol - pos_ + 1 > kMaxHeaderBytes) {
    throw ProtocolError(errc::kProtocol, "header line exceeds " +
                                             std::to_string(kMaxHeaderBytes) +
                                             " bytes");
  }

  // 2. Tokenise: TYPE [args...] LEN.
  out.type.clear();
  out.args.clear();
  std::vector<std::string> tokens;
  {
    std::size_t start = pos_;
    for (std::size_t i = pos_; i <= eol; ++i) {
      if (i == eol || buf_[i] == ' ') {
        if (i > start) tokens.emplace_back(buf_, start, i - start);
        start = i + 1;
      }
    }
  }
  if (tokens.size() < 2) {
    throw ProtocolError(errc::kProtocol,
                        "malformed header: want '<TYPE> [...args] <len>'");
  }
  std::size_t payload_len = 0;
  {
    const std::string& len_tok = tokens.back();
    const auto [ptr, ec] = std::from_chars(
        len_tok.data(), len_tok.data() + len_tok.size(), payload_len);
    if (ec != std::errc{} || ptr != len_tok.data() + len_tok.size()) {
      throw ProtocolError(errc::kProtocol,
                          "malformed payload length '" + len_tok + "'");
    }
  }
  if (payload_len > max_payload_) {
    throw ProtocolError(errc::kOversize,
                        "payload of " + std::to_string(payload_len) +
                            " bytes exceeds limit of " +
                            std::to_string(max_payload_));
  }
  out.type = std::move(tokens.front());
  out.args.assign(std::make_move_iterator(tokens.begin() + 1),
                  std::make_move_iterator(tokens.end() - 1));
  pos_ = eol + 1;

  // 3. Payload. The header is consumed, so the peer owes `payload_len`
  // bytes: a stall here — even before the first payload byte — is bounded
  // by the frame deadline, and EOF is a mid-frame protocol error.
  while (pending() < payload_len) {
    (void)pump("payload", /*mid_frame=*/true);  // throws on EOF and stalls
  }
  out.payload.assign(buf_, pos_, payload_len);
  pos_ += payload_len;
  return ReadStatus::kFrame;
}

void FdStream::write_frame(const Frame& frame) {
  std::string wire = frame.type;
  for (const std::string& arg : frame.args) {
    wire += ' ';
    wire += arg;
  }
  wire += ' ';
  wire += std::to_string(frame.payload.size());
  wire += '\n';
  if (wire.size() > kMaxHeaderBytes) {
    throw ProtocolError(errc::kProtocol, "outgoing header exceeds " +
                                             std::to_string(kMaxHeaderBytes) +
                                             " bytes");
  }
  wire += frame.payload;

  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Batch codec

std::string encode_batch(const be::TrajectoryBatch& batch) {
  std::string out;
  dataset::encode_block(batch, [&out](const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  });
  return out;
}

be::TrajectoryBatch decode_batch(std::string_view bytes) {
  be::TrajectoryBatch batch;
  std::uint64_t end = 0;
  try {
    end = dataset::decode_block(dataset::MemorySource(bytes, "BATCH payload"),
                                0, batch);
  } catch (const invariant_error& e) {
    throw ProtocolError(errc::kProtocol, e.what());
  }
  if (end != bytes.size()) {
    throw ProtocolError(errc::kProtocol, "trailing bytes after batch payload");
  }
  return batch;
}

// ---------------------------------------------------------------------------
// SUBMIT payload codec

std::string encode_submit_payload(const serve::JobRequest& job) {
  // A newline inside a key=value field would inject extra config lines
  // into the payload (mirrors the tenant-label check in Client::submit).
  const auto reject_newlines = [](const char* key, const std::string& value) {
    if (value.find('\n') != std::string::npos) {
      throw ProtocolError(errc::kParse, std::string("job field '") + key +
                                            "' must not contain newlines");
    }
  };
  reject_newlines("source", job.source_name);
  reject_newlines("strategy", job.strategy);
  reject_newlines("backend", job.backend);

  std::string out;
  if (!job.source_name.empty()) put_kv(out, "source", job.source_name);
  put_kv(out, "strategy", job.strategy);
  put_kv(out, "backend", job.backend);
  put_kv(out, "schedule", be::to_string(job.schedule));
  put_kv_u64(out, "threads", job.threads);
  put_kv_u64(out, "seed", job.seed);
  put_kv_u64(out, "nsamples", job.strategy_config.nsamples);
  put_kv_u64(out, "nshots", job.strategy_config.nshots);
  put_kv(out, "merge", job.strategy_config.merge_duplicates ? "1" : "0");
  put_kv_f64(out, "p_min", job.strategy_config.p_min);
  put_kv_f64(out, "p_max", job.strategy_config.p_max);
  put_kv_f64(out, "cutoff", job.strategy_config.probability_cutoff);
  put_kv_u64(out, "max_results", job.strategy_config.max_results);
  put_kv_u64(out, "total_shots", job.strategy_config.total_shots);
  put_kv_f64(out, "boost", job.strategy_config.boost);
  put_kv_u64(out, "radius", job.strategy_config.radius);
  put_kv(out, "fuse", job.backend_config.fuse_gates ? "1" : "0");
  put_kv_u64(out, "mps_max_bond", job.backend_config.mps.max_bond);
  put_kv_f64(out, "mps_trunc", job.backend_config.mps.truncation_error);
  out += "circuit\n";
  out += job.circuit_text;
  return out;
}

serve::JobRequest decode_submit_payload(std::string_view payload) {
  serve::JobRequest job;
  bool saw_marker = false;
  const std::size_t circuit_at =
      for_each_line(payload, [&](std::string_view line) {
        if (line == "circuit") {
          saw_marker = true;
          return false;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
          throw ProtocolError(errc::kParse,
                              "malformed job-config line '" +
                                  std::string(line) +
                                  "' (want key=value, or 'circuit')");
        }
        const std::string key(line.substr(0, eq));
        const std::string value(line.substr(eq + 1));
        try {
          if (key == "source") {
            job.source_name = value;
          } else if (key == "strategy") {
            job.strategy = value;
          } else if (key == "backend") {
            job.backend = value;
          } else if (key == "schedule") {
            job.schedule = be::schedule_from_string(value);
          } else if (key == "threads") {
            job.threads = static_cast<std::size_t>(parse_u64(key, value));
          } else if (key == "seed") {
            job.seed = parse_u64(key, value);
          } else if (key == "nsamples") {
            job.strategy_config.nsamples =
                static_cast<std::size_t>(parse_u64(key, value));
          } else if (key == "nshots") {
            job.strategy_config.nshots = parse_u64(key, value);
          } else if (key == "merge") {
            job.strategy_config.merge_duplicates = parse_bool(key, value);
          } else if (key == "p_min") {
            job.strategy_config.p_min = parse_f64(key, value);
          } else if (key == "p_max") {
            job.strategy_config.p_max = parse_f64(key, value);
          } else if (key == "cutoff") {
            job.strategy_config.probability_cutoff = parse_f64(key, value);
          } else if (key == "max_results") {
            job.strategy_config.max_results =
                static_cast<std::size_t>(parse_u64(key, value));
          } else if (key == "total_shots") {
            job.strategy_config.total_shots = parse_u64(key, value);
          } else if (key == "boost") {
            job.strategy_config.boost = parse_f64(key, value);
          } else if (key == "radius") {
            job.strategy_config.radius =
                static_cast<unsigned>(parse_u64(key, value));
          } else if (key == "fuse") {
            job.backend_config.fuse_gates = parse_bool(key, value);
          } else if (key == "mps_max_bond") {
            job.backend_config.mps.max_bond =
                static_cast<std::size_t>(parse_u64(key, value));
          } else if (key == "mps_trunc") {
            job.backend_config.mps.truncation_error = parse_f64(key, value);
          } else {
            throw ProtocolError(errc::kParse,
                                "unknown job-config key '" + key + "'");
          }
        } catch (const ProtocolError&) {
          throw;
        } catch (const std::exception& e) {
          // e.g. schedule_from_string precondition_error → wire parse error.
          throw ProtocolError(errc::kParse, e.what());
        }
        return true;
      });
  if (!saw_marker) {
    throw ProtocolError(errc::kParse,
                        "SUBMIT payload has no 'circuit' marker line");
  }
  job.circuit_text.assign(payload.substr(circuit_at));
  return job;
}

// ---------------------------------------------------------------------------
// RESULT metadata codec

std::string encode_result_meta(const ResultMeta& meta) {
  std::string out;
  put_kv_u64(out, "job_id", meta.job_id);
  put_kv(out, "strategy", meta.strategy);
  put_kv(out, "backend", meta.backend);
  put_kv(out, "weighting", weighting_to_string(meta.weighting));
  put_kv_u64(out, "num_specs", meta.num_specs);
  put_kv_u64(out, "num_batches", meta.num_batches);
  put_kv(out, "plan_cache_hit", meta.plan_cache_hit ? "1" : "0");
  return out;
}

ResultMeta decode_result_meta(std::string_view payload) {
  ResultMeta meta;
  for_each_line(payload, [&](std::string_view line) {
    if (line.empty()) return true;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ProtocolError(errc::kProtocol, "malformed RESULT line '" +
                                               std::string(line) + "'");
    }
    const std::string key(line.substr(0, eq));
    const std::string value(line.substr(eq + 1));
    try {
      if (key == "job_id") {
        meta.job_id = parse_u64(key, value);
      } else if (key == "strategy") {
        meta.strategy = value;
      } else if (key == "backend") {
        meta.backend = value;
      } else if (key == "weighting") {
        meta.weighting = weighting_from_string(value);
      } else if (key == "num_specs") {
        meta.num_specs = parse_u64(key, value);
      } else if (key == "num_batches") {
        meta.num_batches = parse_u64(key, value);
      } else if (key == "plan_cache_hit") {
        meta.plan_cache_hit = parse_bool(key, value);
      } else {
        throw ProtocolError(errc::kProtocol,
                            "unknown RESULT key '" + key + "'");
      }
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception& e) {
      throw ProtocolError(errc::kProtocol, e.what());
    }
    return true;
  });
  return meta;
}

// ---------------------------------------------------------------------------
// Weighting names

const std::string& weighting_to_string(be::Weighting weighting) {
  static const std::string kDraw = "draw-weighted";
  static const std::string kProb = "probability-weighted";
  return weighting == be::Weighting::kDrawWeighted ? kDraw : kProb;
}

be::Weighting weighting_from_string(const std::string& name) {
  if (name == "draw-weighted") return be::Weighting::kDrawWeighted;
  if (name == "probability-weighted") return be::Weighting::kProbabilityWeighted;
  throw ProtocolError(errc::kProtocol,
                      "unknown weighting '" + name +
                          "' (want draw-weighted|probability-weighted)");
}

// ---------------------------------------------------------------------------
// ERROR payload codec. `message` is last and consumes the rest of the
// payload, so multi-line diagnostics survive intact.

std::string encode_error(const WireError& error) {
  std::string out;
  if (error.line > 0) put_kv_u64(out, "line", error.line);
  if (error.column > 0) put_kv_u64(out, "column", error.column);
  out += "message=";
  out += error.message;
  return out;
}

WireError decode_error(std::string_view payload) {
  WireError error;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    static constexpr std::string_view kMessage = "message=";
    if (payload.compare(pos, kMessage.size(), kMessage) == 0) {
      error.message.assign(payload.substr(pos + kMessage.size()));
      return error;
    }
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    const std::size_t eq = line.find('=');
    if (eq != std::string_view::npos) {
      const std::string key(line.substr(0, eq));
      const std::string value(line.substr(eq + 1));
      if (key == "line") {
        error.line = static_cast<std::size_t>(parse_u64(key, value));
      } else if (key == "column") {
        error.column = static_cast<std::size_t>(parse_u64(key, value));
      }
    }
    pos = eol + 1;
  }
  return error;
}

}  // namespace ptsbe::net
