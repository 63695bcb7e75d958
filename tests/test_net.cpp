// The ptsbe::net wire layer: frame codecs, the consistent-hash shard
// router, and the loopback determinism matrix — results served over TCP
// (across both priority lanes and two shard daemons) must be bit-identical,
// records AND dataset bytes, to a standalone Pipeline::run. Malformed wire
// input (truncated frames, oversized payloads, bad `.ptq` bodies) must
// come back as structured ERROR frames, never a crash or a wedged
// connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ptsbe/core/dataset.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/server.hpp"
#include "ptsbe/net/shard_router.hpp"
#include "ptsbe/noise/channels.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

/// The shared workload: GHZ(n) with depolarizing gate noise and bit-flip
/// readout noise, as canonical `.ptq` text (what a tenant would submit).
std::string ghz_ptq(unsigned qubits, double p = 0.02) {
  Circuit circuit(qubits);
  circuit.h(0);
  for (unsigned q = 0; q + 1 < qubits; ++q) circuit.cx(q, q + 1);
  circuit.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(p));
  noise.add_measurement_noise(channels::bit_flip(p / 2));
  return io::write_circuit(noise.apply(circuit));
}

serve::JobRequest ghz_request(unsigned qubits = 4) {
  serve::JobRequest req;
  req.circuit_text = ghz_ptq(qubits);
  req.strategy_config.nsamples = 300;
  req.strategy_config.nshots = 100;
  req.seed = 7;
  return req;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Bit-exact batch equality (records, weights, spec identity).
void expect_same_result(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.result.batches.size(), b.result.batches.size());
  for (std::size_t i = 0; i < a.result.batches.size(); ++i) {
    const be::TrajectoryBatch& x = a.result.batches[i];
    const be::TrajectoryBatch& y = b.result.batches[i];
    EXPECT_EQ(x.spec_index, y.spec_index);
    EXPECT_EQ(x.spec.branches, y.spec.branches);
    EXPECT_EQ(x.spec.shots, y.spec.shots);
    EXPECT_EQ(x.records, y.records) << "batch " << i;
    EXPECT_EQ(x.realized_probability, y.realized_probability);
  }
  EXPECT_EQ(a.weighting, b.weighting);
}

net::ClientConfig client_for(const net::Server& server) {
  net::ClientConfig config;
  config.host = "127.0.0.1";
  config.port = server.port();
  config.connect_timeout_ms = 5000;
  return config;
}

// ---------------------------------------------------------------------------
// Frame codecs (no sockets).
// ---------------------------------------------------------------------------

TEST(NetProtocol, BatchCodecRoundTripsBitExactly) {
  be::TrajectoryBatch batch;
  batch.spec_index = 5;
  batch.spec.shots = 12345;
  batch.spec.nominal_probability = 0.1;  // not exactly representable
  batch.spec.branches = {{2, 1}, {7, 3}};
  batch.realized_probability = 1.0 / 3.0;
  batch.records = {0, 0xffffffffffffffffULL, 0x0123456789abcdefULL};

  const std::string bytes = net::encode_batch(batch);
  const be::TrajectoryBatch back = net::decode_batch(bytes);
  EXPECT_EQ(back.spec_index, batch.spec_index);
  EXPECT_EQ(back.spec.shots, batch.spec.shots);
  EXPECT_EQ(back.spec.branches, batch.spec.branches);
  EXPECT_EQ(back.records, batch.records);
  // Doubles as raw bit patterns, not formatted text.
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &batch.realized_probability, 8);
  std::memcpy(&b, &back.realized_probability, 8);
  EXPECT_EQ(a, b);
  std::memcpy(&a, &batch.spec.nominal_probability, 8);
  std::memcpy(&b, &back.spec.nominal_probability, 8);
  EXPECT_EQ(a, b);
}

TEST(NetProtocol, BatchDecodeRejectsMalformedBytes) {
  const std::string good = net::encode_batch(be::TrajectoryBatch{});
  EXPECT_THROW((void)net::decode_batch(good.substr(0, good.size() - 1)),
               net::ProtocolError);
  EXPECT_THROW((void)net::decode_batch(good + 'x'), net::ProtocolError);
  EXPECT_THROW((void)net::decode_batch(""), net::ProtocolError);
  // A huge claimed count must be rejected up front, not allocated.
  std::string hostile(5 * 8, '\0');
  hostile[32] = '\x7f';  // nbranches = enormous
  EXPECT_THROW((void)net::decode_batch(hostile), net::ProtocolError);
}

TEST(NetProtocol, SubmitPayloadRoundTripsJobConfig) {
  serve::JobRequest job = ghz_request(3);
  job.source_name = "alice.ptq";
  job.strategy = "band";
  job.backend = "mps";
  job.schedule = be::Schedule::kSharedPrefix;
  job.threads = 3;
  job.seed = 0xdeadbeefcafeULL;
  job.strategy_config.merge_duplicates = false;
  job.strategy_config.p_min = 1e-9;
  job.strategy_config.p_max = 0.3;
  job.strategy_config.probability_cutoff = 2.5e-7;
  job.strategy_config.max_results = 17;
  job.strategy_config.total_shots = 90001;
  job.strategy_config.boost = 2.75;
  job.strategy_config.radius = 2;
  job.backend_config.fuse_gates = true;
  job.backend_config.mps.max_bond = 32;
  job.backend_config.mps.truncation_error = 3e-11;

  const serve::JobRequest back =
      net::decode_submit_payload(net::encode_submit_payload(job));
  EXPECT_EQ(back.circuit_text, job.circuit_text);
  EXPECT_EQ(back.source_name, job.source_name);
  EXPECT_EQ(back.strategy, job.strategy);
  EXPECT_EQ(back.backend, job.backend);
  EXPECT_EQ(back.schedule, job.schedule);
  EXPECT_EQ(back.threads, job.threads);
  EXPECT_EQ(back.seed, job.seed);
  EXPECT_EQ(back.strategy_config.nsamples, job.strategy_config.nsamples);
  EXPECT_EQ(back.strategy_config.nshots, job.strategy_config.nshots);
  EXPECT_EQ(back.strategy_config.merge_duplicates,
            job.strategy_config.merge_duplicates);
  EXPECT_EQ(back.strategy_config.p_min, job.strategy_config.p_min);
  EXPECT_EQ(back.strategy_config.p_max, job.strategy_config.p_max);
  EXPECT_EQ(back.strategy_config.probability_cutoff,
            job.strategy_config.probability_cutoff);
  EXPECT_EQ(back.strategy_config.max_results,
            job.strategy_config.max_results);
  EXPECT_EQ(back.strategy_config.total_shots,
            job.strategy_config.total_shots);
  EXPECT_EQ(back.strategy_config.boost, job.strategy_config.boost);
  EXPECT_EQ(back.strategy_config.radius, job.strategy_config.radius);
  EXPECT_EQ(back.backend_config.fuse_gates, job.backend_config.fuse_gates);
  EXPECT_EQ(back.backend_config.mps.max_bond,
            job.backend_config.mps.max_bond);
  EXPECT_EQ(back.backend_config.mps.truncation_error,
            job.backend_config.mps.truncation_error);
}

TEST(NetProtocol, SubmitPayloadRejectsMalformedConfig) {
  const auto code_of = [](const std::string& payload) -> std::string {
    try {
      (void)net::decode_submit_payload(payload);
    } catch (const net::ProtocolError& e) {
      return e.code();
    }
    return "(no throw)";
  };
  EXPECT_EQ(code_of("seed=1\n"), net::errc::kParse);  // no circuit marker
  EXPECT_EQ(code_of("not a kv line\ncircuit\nptq 1\n"), net::errc::kParse);
  EXPECT_EQ(code_of("bogus_key=1\ncircuit\nptq 1\n"), net::errc::kParse);
  EXPECT_EQ(code_of("seed=notanumber\ncircuit\nptq 1\n"), net::errc::kParse);
  EXPECT_EQ(code_of("schedule=bogus\ncircuit\nptq 1\n"), net::errc::kParse);
  EXPECT_EQ(code_of("fuse=2\ncircuit\nptq 1\n"), net::errc::kParse);
}

TEST(NetProtocol, SubmitEncodeRejectsNewlinesInStringFields) {
  // A '\n' inside a string field would inject extra key=value lines into
  // the SUBMIT payload — rejected at encode time, like the tenant label.
  serve::JobRequest job = ghz_request(3);
  job.source_name = "evil\nseed=999";
  EXPECT_THROW((void)net::encode_submit_payload(job), net::ProtocolError);
  job = ghz_request(3);
  job.strategy = "band\nmerge=0";
  EXPECT_THROW((void)net::encode_submit_payload(job), net::ProtocolError);
  job = ghz_request(3);
  job.backend = "mps\nfuse=1";
  EXPECT_THROW((void)net::encode_submit_payload(job), net::ProtocolError);
}

TEST(NetProtocol, ResultMetaAndErrorPayloadsRoundTrip) {
  net::ResultMeta meta;
  meta.job_id = 42;
  meta.strategy = "band";
  meta.backend = "mps";
  meta.weighting = be::Weighting::kProbabilityWeighted;
  meta.num_specs = 9;
  meta.num_batches = 9;
  meta.plan_cache_hit = true;
  const net::ResultMeta back =
      net::decode_result_meta(net::encode_result_meta(meta));
  EXPECT_EQ(back.job_id, meta.job_id);
  EXPECT_EQ(back.strategy, meta.strategy);
  EXPECT_EQ(back.backend, meta.backend);
  EXPECT_EQ(back.weighting, meta.weighting);
  EXPECT_EQ(back.num_specs, meta.num_specs);
  EXPECT_EQ(back.num_batches, meta.num_batches);
  EXPECT_EQ(back.plan_cache_hit, meta.plan_cache_hit);

  const net::WireError parse_error =
      net::decode_error(net::encode_error({"x.ptq:3:1: bad gate", 3, 1}));
  EXPECT_EQ(parse_error.message, "x.ptq:3:1: bad gate");
  EXPECT_EQ(parse_error.line, 3u);
  EXPECT_EQ(parse_error.column, 1u);

  // Message is last and consumes the rest: newlines survive.
  const net::WireError multi =
      net::decode_error(net::encode_error({"line one\nline two", 0, 0}));
  EXPECT_EQ(multi.message, "line one\nline two");
  EXPECT_EQ(multi.line, 0u);
}

// ---------------------------------------------------------------------------
// Socket setup: the server's accepted fd and the client's connected fd are
// both wrapped in an FdStream, which sends every frame at once
// (TCP_NODELAY) and sets the owner's receive tick.
// ---------------------------------------------------------------------------

/// The fd's (TCP_NODELAY, SO_RCVTIMEO in ms) as the kernel reports them.
std::pair<int, long> socket_setup(int fd) {
  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  timeval tv{};
  len = sizeof tv;
  EXPECT_EQ(::getsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, &len), 0);
  return {nodelay, tv.tv_sec * 1000L + tv.tv_usec / 1000L};
}

TEST(NetSocket, FdStreamSetsNoDelayAndReceiveTimeoutOnBothEnds) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  sockaddr* const any_addr = reinterpret_cast<sockaddr*>(&addr);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::bind(listener, any_addr, addr_len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, any_addr, &addr_len), 0);
  const int client_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(client_fd, any_addr, addr_len), 0);
  const int server_fd = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  ASSERT_GE(server_fd, 0);

  // Whole seconds read back exactly at any kernel tick rate.
  net::FdStream client(client_fd, net::kDefaultMaxPayload, 30000, 1000);
  net::FdStream server(server_fd, net::kDefaultMaxPayload, 30000, 3000);
  EXPECT_EQ(socket_setup(client.fd()), std::make_pair(1, 1000L));
  EXPECT_EQ(socket_setup(server.fd()), std::make_pair(1, 3000L));

  client.write_frame(net::Frame{"PING", {}, ""});
  net::Frame frame;
  ASSERT_EQ(server.read_frame(frame), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(frame.type, "PING");

  // Without a timeout argument the socket keeps its own receive timeout.
  const int own_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const timeval two_s{2, 0};
  ASSERT_EQ(::setsockopt(own_fd, SOL_SOCKET, SO_RCVTIMEO, &two_s, sizeof two_s),
            0);
  const net::FdStream own(own_fd);
  EXPECT_EQ(socket_setup(own.fd()), std::make_pair(1, 2000L));
}

// ---------------------------------------------------------------------------
// Shard router.
// ---------------------------------------------------------------------------

TEST(NetShardRouter, ConsistentRoutingWithMinimalRemapping) {
  net::ShardRouter router(64);
  router.add_endpoint("10.0.0.1:7411");
  router.add_endpoint("10.0.0.2:7411");
  router.add_endpoint("10.0.0.3:7411");
  ASSERT_EQ(router.size(), 3u);

  // Deterministic and reasonably spread.
  std::map<std::string, int> load;
  std::map<std::uint64_t, std::string> assignment;
  for (std::uint64_t key = 0; key < 600; ++key) {
    const std::uint64_t fp = net::ShardRouter::hash64(std::to_string(key));
    const std::string& owner = router.route(fp);
    EXPECT_EQ(owner, router.route(fp));  // stable
    ++load[owner];
    assignment[fp] = owner;
  }
  EXPECT_EQ(load.size(), 3u);
  for (const auto& [endpoint, count] : load) {
    EXPECT_GT(count, 600 / 10) << endpoint;  // no starved shard
  }

  // Removing one shard only remaps that shard's keys.
  router.remove_endpoint("10.0.0.2:7411");
  ASSERT_EQ(router.size(), 2u);
  for (const auto& [fp, owner] : assignment) {
    if (owner != "10.0.0.2:7411") {
      EXPECT_EQ(router.route(fp), owner);
    } else {
      EXPECT_NE(router.route(fp), "10.0.0.2:7411");
    }
  }
}

TEST(NetShardRouter, NamedShardKeepsItsRoutesAtANewEndpoint) {
  net::ShardRouter router(64);
  router.add_endpoint("10.0.0.1:7411", "alpha");
  router.add_endpoint("10.0.0.2:7411", "beta");
  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t key = 0; key < 600; ++key) {
    const std::uint64_t fp = net::ShardRouter::hash64(std::to_string(key));
    before[fp] = router.route(fp);
  }

  // "alpha" restarts on another port: every key it owned follows it, and
  // no other key moves.
  router.add_endpoint("10.0.0.1:7522", "alpha");
  ASSERT_EQ(router.size(), 2u);
  EXPECT_EQ(router.endpoints(),
            (std::vector<std::string>{"10.0.0.1:7522", "10.0.0.2:7411"}));
  int moved = 0;
  for (const auto& [fp, owner] : before) {
    if (owner == "10.0.0.1:7411") {
      EXPECT_EQ(router.route(fp), "10.0.0.1:7522");
      ++moved;
    } else {
      EXPECT_EQ(router.route(fp), owner);
    }
  }
  EXPECT_GT(moved, 600 / 10);

  router.remove_endpoint("alpha");
  ASSERT_EQ(router.size(), 1u);
  for (const auto& [fp, owner] : before) {
    EXPECT_EQ(router.route(fp), "10.0.0.2:7411");
  }
}

TEST(NetShardRouter, ShardedClientRejectsBadEndpointPorts) {
  // Non-numeric and out-of-range ports must fail with the project's
  // precondition diagnostic, not a raw std::stoul throw or a silent
  // uint16_t truncation ('70000' must not become port 4464).
  for (const char* endpoint :
       {"127.0.0.1:notaport", "127.0.0.1:70000", "127.0.0.1:0",
        "127.0.0.1:7411x"}) {
    net::ShardedClient fleet({endpoint});
    EXPECT_THROW((void)fleet.stats_json(endpoint), precondition_error)
        << endpoint;
  }
}

TEST(NetShardRouter, FingerprintUsesPlanCacheCanonicalText) {
  serve::JobRequest job = ghz_request(4);
  // Formatting differences collapse to the same canonical text, hence the
  // same shard — exactly how PlanCache would coalesce them.
  serve::JobRequest reformatted = job;
  reformatted.circuit_text =
      "# a comment\n\n" + job.circuit_text + "\n# trailing\n";
  EXPECT_EQ(net::ShardRouter::fingerprint(job),
            net::ShardRouter::fingerprint(reformatted));

  // Different backend config = different plan = different fingerprint.
  serve::JobRequest fused = job;
  fused.backend_config.fuse_gates = true;
  EXPECT_NE(net::ShardRouter::fingerprint(job),
            net::ShardRouter::fingerprint(fused));

  serve::JobRequest other = job;
  other.circuit_text = ghz_ptq(5);
  EXPECT_NE(net::ShardRouter::fingerprint(job),
            net::ShardRouter::fingerprint(other));

  serve::JobRequest malformed;
  malformed.circuit_text = "ptq 1\nbogus\n";
  EXPECT_THROW((void)net::ShardRouter::fingerprint(malformed), io::ParseError);
}

// ---------------------------------------------------------------------------
// The loopback determinism matrix: strategy × backend × schedule × threads
// × priority lane, submitted through TWO daemon processes' worth of
// servers behind the shard router — records and dataset bytes must equal a
// standalone Pipeline::run, bit for bit.
// ---------------------------------------------------------------------------

struct WireCell {
  unsigned qubits;
  const char* strategy;
  const char* backend;
  be::Schedule schedule;
  std::size_t threads;
  serve::Priority priority;
};

TEST(NetLoopback, DeterminismMatrixAcrossLanesAndShards) {
  const std::vector<WireCell> cells = {
      {3, "probabilistic", "statevector", be::Schedule::kIndependent, 1,
       serve::Priority::kNormal},
      {4, "probabilistic", "statevector", be::Schedule::kSharedPrefix, 2,
       serve::Priority::kHigh},
      {5, "probabilistic", "mps", be::Schedule::kIndependent, 2,
       serve::Priority::kNormal},
      {6, "probabilistic", "stabilizer", be::Schedule::kSharedPrefix, 1,
       serve::Priority::kHigh},
      {4, "band", "statevector", be::Schedule::kSharedPrefix, 2,
       serve::Priority::kHigh},
      {5, "band", "mps", be::Schedule::kSharedPrefix, 1,
       serve::Priority::kNormal},
      {3, "proportional", "statevector", be::Schedule::kIndependent, 2,
       serve::Priority::kNormal},
      {3, "enumerate", "densmat", be::Schedule::kIndependent, 1,
       serve::Priority::kHigh},
  };
  const auto request_for = [&](const WireCell& cell) {
    serve::JobRequest req;
    req.circuit_text = ghz_ptq(cell.qubits);
    req.strategy = cell.strategy;
    req.backend = cell.backend;
    req.schedule = cell.schedule;
    req.threads = cell.threads;
    req.priority = cell.priority;
    req.tenant = std::string("tenant-") + cell.strategy;
    req.seed = 20260807;
    req.strategy_config.nsamples = 200;
    req.strategy_config.nshots = 50;
    req.strategy_config.p_min = 1e-9;
    req.strategy_config.p_max = 1.0;
    req.strategy_config.probability_cutoff = 1e-6;
    return req;
  };

  net::ServerConfig server_config;
  server_config.engine.workers = 2;
  server_config.engine.plan_cache_capacity = 8;
  net::Server shard_a(server_config);
  net::Server shard_b(server_config);
  net::ShardedClient fleet(
      {{"alpha", shard_a.endpoint()}, {"beta", shard_b.endpoint()}});

  // The matrix only pins multi-process behaviour if both shards actually
  // serve traffic. Named shards keep the split off the ephemeral ports.
  std::map<std::string, int> shard_load;
  for (const WireCell& cell : cells) {
    ++shard_load[fleet.route(request_for(cell))];
  }
  ASSERT_EQ(shard_load.size(), 2u)
      << "matrix circuits all hash to one shard; vary the qubit counts";

  bool lanes[2] = {false, false};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const WireCell& cell = cells[i];
    SCOPED_TRACE(std::string(cell.strategy) + "/" + cell.backend + "/" +
                 be::to_string(cell.schedule) + "/t" +
                 std::to_string(cell.threads) + "/" +
                 serve::to_string(cell.priority));
    lanes[static_cast<int>(cell.priority)] = true;

    const serve::JobRequest req = request_for(cell);
    const net::RemoteRun remote = fleet.submit(req);
    const RunResult standalone =
        Pipeline(io::parse_circuit(req.circuit_text))
            .strategy(req.strategy, req.strategy_config)
            .backend(req.backend, req.backend_config)
            .schedule(req.schedule)
            .threads(req.threads)
            .seed(req.seed)
            .run();
    expect_same_result(standalone, remote.run);
    EXPECT_EQ(remote.run.num_specs, standalone.num_specs);

    // Dataset bytes, not just records: the full export path agrees even
    // after a TCP round trip.
    const auto path_a =
        test::temp_file("net_det_a_" + std::to_string(i) + ".bin");
    const auto path_b =
        test::temp_file("net_det_b_" + std::to_string(i) + ".bin");
    standalone.to_binary(path_a);
    remote.run.to_binary(path_b);
    EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  }
  EXPECT_TRUE(lanes[0]);
  EXPECT_TRUE(lanes[1]);

  // Both shards report served jobs in their stats JSON.
  for (const std::string& endpoint : fleet.endpoints()) {
    const std::string json = fleet.stats_json(endpoint);
    EXPECT_EQ(json.find("\"served\": 0,"), std::string::npos)
        << endpoint << " served nothing: " << json;
  }
  shard_a.stop();
  shard_b.stop();
}

// A spec of millions of shots used to need 8 bytes per shot in its BATCH
// frame, past the default 8 MiB payload cap. As runs it is a few hundred
// bytes, and the served result still equals the local one byte for byte.
TEST(NetLoopback, MultiMillionShotSpecFitsTheDefaultFrameCap) {
  net::ServerConfig config;
  config.engine.workers = 1;
  net::Server server(config);
  net::Client client(client_for(server));

  serve::JobRequest req = ghz_request(4);
  req.strategy_config.nsamples = 64;
  req.strategy_config.nshots = std::uint64_t{1} << 16;
  const net::RemoteRun remote = client.submit(req);
  const RunResult standalone =
      Pipeline(io::parse_circuit(req.circuit_text))
          .strategy(req.strategy, req.strategy_config)
          .backend(req.backend, req.backend_config)
          .schedule(req.schedule)
          .threads(req.threads)
          .seed(req.seed)
          .run();
  expect_same_result(standalone, remote.run);
  std::size_t largest = 0;
  for (const be::TrajectoryBatch& batch : remote.run.result.batches)
    largest = std::max(largest, batch.records.size());
  EXPECT_GE(largest, std::size_t{1} << 21);
  EXPECT_GT(8 * largest, net::kDefaultMaxPayload);

  const auto path_a = test::temp_file("net_big_a.bin");
  const auto path_b = test::temp_file("net_big_b.bin");
  standalone.to_binary(path_a);
  remote.run.to_binary(path_b);
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  server.stop();
}

// A call that fails mid-reply must drop its connection: the rest of the
// reply would otherwise be read as the next call's frames, and the server
// would sit blocked sending it.
TEST(NetLoopback, OversizeBatchClosesTheStreamAndTheNextCallReconnects) {
  net::ServerConfig config;
  config.engine.workers = 1;
  net::Server server(config);
  net::ClientConfig small = client_for(server);
  small.max_payload = 4096;
  net::Client client(small);

  // H on all 12 qubits: a few thousand shots are nearly all distinct, so
  // the one batch stays plain and its frame is far past 4 KiB.
  Circuit circuit(12);
  for (unsigned q = 0; q < 12; ++q) circuit.h(q);
  circuit.measure_all();
  serve::JobRequest wide;
  wide.circuit_text = io::write_circuit(NoiseModel{}.apply(circuit));
  wide.strategy_config.nsamples = 1;
  wide.strategy_config.nshots = 3000;
  try {
    (void)client.submit(wide);
    ADD_FAILURE() << "a BATCH frame past max_payload must be refused";
  } catch (const net::ProtocolError& e) {
    EXPECT_EQ(e.code(), net::errc::kOversize) << e.what();
  }

  const net::RemoteRun next = client.submit(ghz_request(3));
  EXPECT_GT(next.run.result.total_shots(), 0u);
  server.stop();
}

TEST(NetLoopback, RepeatCircuitKeepsPlanCacheAffinity) {
  net::ServerConfig config;
  config.engine.workers = 1;
  net::Server shard_a(config);
  net::Server shard_b(config);
  net::ShardedClient fleet({shard_a.endpoint(), shard_b.endpoint()});

  const serve::JobRequest req = ghz_request(4);
  const net::RemoteRun first = fleet.submit(req);
  const net::RemoteRun second = fleet.submit(req);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit)
      << "repeat circuit must be routed to the shard holding its plan";
  expect_same_result(first.run, second.run);
  shard_a.stop();
  shard_b.stop();
}

// ---------------------------------------------------------------------------
// Malformed wire input: structured ERROR frames, never a crash or a wedged
// connection.
// ---------------------------------------------------------------------------

/// Read frames until the server replies (skipping idle ticks), with a
/// bounded number of attempts so a silent server fails the test instead of
/// hanging it.
net::FdStream::ReadStatus read_reply(net::FdStream& stream, net::Frame& out) {
  for (int i = 0; i < 100; ++i) {
    const net::FdStream::ReadStatus status = stream.read_frame(out);
    if (status != net::FdStream::ReadStatus::kIdle) return status;
  }
  return net::FdStream::ReadStatus::kIdle;
}

/// A raw connected FdStream (client side) with a short receive tick, for
/// byte-level abuse of a server's port.
std::unique_ptr<net::FdStream> raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    throw runtime_failure("raw connect failed");
  }
  timeval tv{0, 100000};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return std::make_unique<net::FdStream>(fd);
}

class NetMalformedInput : public ::testing::Test {
 protected:
  void SetUp() override {
    net::ServerConfig config;
    config.engine.workers = 1;
    config.max_payload = 1 << 20;
    server_ = std::make_unique<net::Server>(config);
  }

  std::unique_ptr<net::FdStream> raw_connection() {
    net::Client probe(client_for(*server_));
    probe.ping();  // cheap way to prove the server is up
    return raw_connect(server_->port());
  }

  std::unique_ptr<net::Server> server_;
};

TEST_F(NetMalformedInput, TruncatedFrameGetsProtocolError) {
  auto stream = raw_connection();
  // Header claims 100 payload bytes; deliver 10 and half-close. The server
  // must answer with a structured ERROR frame, not crash or hang.
  const std::string bytes = "SUBMIT alice normal 100\n0123456789";
  ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(stream->fd(), SHUT_WR);

  net::Frame reply;
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(reply.type, "ERROR");
  ASSERT_EQ(reply.args.size(), 1u);
  EXPECT_EQ(reply.args[0], net::errc::kProtocol);
  EXPECT_NE(net::decode_error(reply.payload).message.find("mid-frame"),
            std::string::npos);
}

TEST_F(NetMalformedInput, EofRightAfterHeaderIsMidFrameError) {
  auto stream = raw_connection();
  // Header claims 100 payload bytes; half-close before sending ANY of
  // them. The header is consumed, so this is a truncated frame — not a
  // clean disconnect — and must come back as a structured ERROR.
  const std::string bytes = "SUBMIT alice normal 100\n";
  ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(stream->fd(), SHUT_WR);

  net::Frame reply;
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(reply.type, "ERROR");
  ASSERT_EQ(reply.args.size(), 1u);
  EXPECT_EQ(reply.args[0], net::errc::kProtocol);
  EXPECT_NE(net::decode_error(reply.payload).message.find("mid-frame"),
            std::string::npos);
}

TEST(NetMalformedInputStall, HeaderThenPayloadStallIsDroppedAndStopCompletes) {
  net::ServerConfig config;
  config.engine.workers = 1;
  config.idle_poll_ms = 50;
  config.frame_timeout_ms = 300;
  auto server = std::make_unique<net::Server>(config);

  // A complete header claiming a payload, then total silence with the
  // socket held open: the frame deadline must arm even though zero payload
  // bytes ever arrive, the server must drop the connection with a
  // structured ERROR within frame_timeout_ms (plus poll ticks), and a
  // subsequent stop() must not block on the stalled connection thread.
  auto stream = raw_connect(server->port());
  const std::string bytes = "SUBMIT alice normal 100\n";
  ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  using clock = std::chrono::steady_clock;
  const auto sent_at = clock::now();
  net::Frame reply;
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  const auto replied_at = clock::now();
  EXPECT_EQ(reply.type, "ERROR");
  ASSERT_EQ(reply.args.size(), 1u);
  EXPECT_EQ(reply.args[0], net::errc::kProtocol);
  EXPECT_NE(net::decode_error(reply.payload).message.find("stalled"),
            std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(replied_at -
                                                                  sent_at)
                .count(),
            5000);

  // The socket is still open on our side; stop() must still complete
  // promptly because the connection thread already gave up on the frame.
  const auto stop_at = clock::now();
  server->stop();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                clock::now() - stop_at)
                .count(),
            5000);
}

TEST_F(NetMalformedInput, OversizedPayloadGetsOversizeError) {
  auto stream = raw_connection();
  const std::string bytes = "SUBMIT alice normal 999999999\n";
  ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  net::Frame reply;
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(reply.type, "ERROR");
  ASSERT_EQ(reply.args.size(), 1u);
  EXPECT_EQ(reply.args[0], net::errc::kOversize);
}

TEST_F(NetMalformedInput, GarbageHeadersGetProtocolError) {
  {
    auto stream = raw_connection();
    const std::string bytes = "GARBAGE\n";
    ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    net::Frame reply;
    ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
    EXPECT_EQ(reply.type, "ERROR");
    EXPECT_EQ(reply.args.at(0), net::errc::kProtocol);
  }
  {
    auto stream = raw_connection();
    // A header with no newline within the bound: rejected at the cap.
    const std::string bytes(net::kMaxHeaderBytes + 16, 'x');
    ASSERT_EQ(::send(stream->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    net::Frame reply;
    ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
    EXPECT_EQ(reply.type, "ERROR");
    EXPECT_EQ(reply.args.at(0), net::errc::kProtocol);
  }
}

TEST_F(NetMalformedInput, BadPtqBodyGetsParseErrorWithPosition) {
  net::Client client(client_for(*server_));
  serve::JobRequest bad = ghz_request();
  bad.circuit_text = "ptq 1\nqubits 2\nhh 0\n";
  bad.source_name = "tenant.ptq";
  try {
    (void)client.submit(bad);
    FAIL() << "malformed .ptq must be rejected";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::errc::kParse);
    // ParseError's line:column, relative to the `.ptq` section.
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 1u);
    EXPECT_NE(std::string(e.what()).find("tenant.ptq:3:1"),
              std::string::npos);
  }

  // The connection survives a rejected job: the next submit succeeds.
  const net::RemoteRun good = client.submit(ghz_request());
  EXPECT_GT(good.run.result.total_shots(), 0u);

  // And the engine counted the failure, not a crash.
  const serve::EngineStats stats = server_->stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 1u);
}

TEST_F(NetMalformedInput, UnknownFrameTypeKeepsConnectionUsable) {
  auto stream = raw_connection();
  stream->write_frame(net::Frame{"BOGUS", {}, ""});
  net::Frame reply;
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(reply.type, "ERROR");
  EXPECT_EQ(reply.args.at(0), net::errc::kProtocol);

  stream->write_frame(net::Frame{"PING", {}, ""});
  ASSERT_EQ(read_reply(*stream, reply), net::FdStream::ReadStatus::kFrame);
  EXPECT_EQ(reply.type, "PONG");
}

// ---------------------------------------------------------------------------
// QoS over the wire: tenant quotas and the stats JSON.
// ---------------------------------------------------------------------------

TEST(NetLoopback, TenantQuotaRejectsWithQuotaCode) {
  net::ServerConfig config;
  config.engine.workers = 1;
  config.engine.tenant_quota = 1;
  net::Server server(config);

  // A heavy job (many samples, few shots — long runtime but small BATCH
  // frames) keeps tenant "alice" at her outstanding quota while the second
  // submission arrives on another connection.
  serve::JobRequest heavy = ghz_request(14);
  heavy.tenant = "alice";
  heavy.strategy_config.nsamples = 1500;
  heavy.strategy_config.nshots = 50;

  // The thread hands any exception back, and std::jthread joins on every
  // exit path, so a failure here is reported rather than terminating.
  net::RemoteRun heavy_run;
  std::exception_ptr heavy_error;
  std::atomic<bool> heavy_done{false};
  std::jthread first([&] {
    try {
      net::Client client(client_for(server));
      heavy_run = client.submit(heavy);
    } catch (...) {
      heavy_error = std::current_exception();
    }
    heavy_done = true;
  });
  const auto rethrow_heavy = [&heavy_error] {
    if (!heavy_error) return;
    try {
      std::rethrow_exception(heavy_error);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the heavy submit threw: " << e.what();
    }
  };
  // Submit the moment the heavy job is observed holding alice's quota slot —
  // a fixed sleep would race against how fast the kernels burn through it.
  for (;;) {
    const serve::EngineStats running = server.stats();
    const auto it = running.tenants.find("alice");
    if (it != running.tenants.end() && it->second.outstanding >= 1) break;
    if (heavy_done) {
      rethrow_heavy();
      FAIL() << "the heavy job finished before it was seen running";
    }
    std::this_thread::yield();
  }

  net::Client client(client_for(server));
  serve::JobRequest second = ghz_request(4);
  second.tenant = "alice";
  try {
    (void)client.submit(second);
    ADD_FAILURE() << "quota must reject the second outstanding job";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::errc::kQuota);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "alice's second submit threw: " << e.what();
  }

  // A different tenant is not affected by alice's quota. Its job queues
  // behind the heavy one on the single worker.
  serve::JobRequest other = ghz_request(4);
  other.tenant = "bob";
  try {
    EXPECT_GT(client.submit(other).run.result.total_shots(), 0u);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "bob's submit threw: " << e.what();
  }

  first.join();
  rethrow_heavy();
  EXPECT_GT(heavy_run.run.result.total_shots(), 0u);

  const serve::EngineStats stats = server.stats();
  EXPECT_EQ(stats.tenants.at("alice").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("alice").completed, 1u);
  EXPECT_EQ(stats.tenants.at("bob").completed, 1u);
  server.stop();
}

TEST(NetLoopback, StatsJsonReportsPerTenantCounters) {
  net::ServerConfig config;
  config.engine.workers = 1;
  net::Server server(config);
  net::Client client(client_for(server));

  serve::JobRequest a = ghz_request(3);
  a.tenant = "alice";
  serve::JobRequest b = ghz_request(3);
  b.tenant = "bob";
  (void)client.submit(a);
  (void)client.submit(a);
  (void)client.submit(b);

  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"tenants\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"alice\": {\"admitted\": 2,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bob\": {\"admitted\": 1,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_high_water\": 1"), std::string::npos) << json;
  server.stop();
}

// ---------------------------------------------------------------------------
// Graceful drain over the wire.
// ---------------------------------------------------------------------------

TEST(NetLoopback, DrainRejectsNewAdmissionsAndFinishesInFlight) {
  net::ServerConfig config;
  config.engine.workers = 1;
  config.idle_poll_ms = 50;
  net::Server server(config);

  // An in-flight heavy job, submitted before the drain begins (many
  // samples, few shots: long runtime, small BATCH frames).
  serve::JobRequest heavy = ghz_request(14);
  heavy.strategy_config.nsamples = 1500;
  heavy.strategy_config.nshots = 50;
  net::RemoteRun heavy_run;
  std::thread in_flight([&] {
    net::Client client(client_for(server));
    heavy_run = client.submit(heavy);
  });
  // Wait until the heavy job is actually running (admitted and dequeued)
  // instead of sleeping a fixed interval: a fixed sleep is both flaky on a
  // loaded box (frame not yet arrived) and slow on a fast one.
  const auto running_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const serve::EngineStats mid = server.stats();
    if (mid.submitted >= 1 && mid.queue_depth == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), running_deadline)
        << "heavy job never started running";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // A connection established before the drain: its SUBMIT must be refused
  // with the *distinct* shutting-down status once draining. The request is
  // built up front so the frame lands well inside the connection's first
  // idle-poll tick after the drain flag flips.
  net::Client established(client_for(server));
  established.ping();
  const serve::JobRequest late_job = ghz_request(3);
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  try {
    (void)established.submit(late_job);
    ADD_FAILURE() << "drain must reject new admissions";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::errc::kShuttingDown);
  }

  // stop() blocks until the in-flight job has streamed everything.
  server.stop();
  in_flight.join();
  EXPECT_GT(heavy_run.run.result.total_shots(), 0u);

  // Bit-identical even though the server was draining while it ran.
  const RunResult standalone = Pipeline(io::parse_circuit(heavy.circuit_text))
                                   .strategy(heavy.strategy,
                                             heavy.strategy_config)
                                   .backend(heavy.backend,
                                            heavy.backend_config)
                                   .schedule(heavy.schedule)
                                   .threads(heavy.threads)
                                   .seed(heavy.seed)
                                   .run();
  expect_same_result(standalone, heavy_run.run);

  // The listener is gone: fresh connections fail fast.
  net::ClientConfig dead = client_for(server);
  dead.connect_timeout_ms = 1000;
  net::Client late(dead);
  EXPECT_THROW(late.ping(), runtime_failure);
}

}  // namespace
}  // namespace ptsbe
