// The served-small-jobs workload: closed-loop blocking clients against an
// in-process `net::Server` on loopback, plus the in-process engine stream
// and the byte-identity check against a local run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/protocol.hpp"
#include "ptsbe/net/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = ptsbe::net;
namespace serve = ptsbe::serve;

namespace {

struct ServeSizes {
  unsigned qubits = 12;
  std::size_t hot = 6;      ///< Hot circuits, repeated through the stream.
  std::size_t tenants = 4;  ///< Hot circuit v belongs to tenant v % tenants.
  double one_off_rate = 0.1;  ///< Share of jobs with a never-repeated circuit.
  std::size_t nsamples = 150;
  std::uint64_t nshots = 100;
  std::size_t stream_length = 4096;  ///< Jobs generated; the loop wraps.
};

ServeSizes serve_sizes(bool toy) {
  ServeSizes size;
  if (toy) {
    size.qubits = 5;
    size.nsamples = 20;
    size.nshots = 10;
    size.stream_length = 256;
  }
  return size;
}

serve::JobRequest make_job(std::string text, std::size_t tenant,
                           const ServeSizes& size, std::uint64_t seed) {
  serve::JobRequest req;
  req.circuit_text = std::move(text);
  req.tenant = "tenant-" + std::to_string(tenant);
  req.strategy_config.nsamples = size.nsamples;
  req.strategy_config.nshots = size.nshots;
  req.seed = seed;
  return req;
}

/// The seeded job stream: hot circuits in random order, with one-off
/// circuits (plan-cache misses) mixed in at `one_off_rate`. The hot
/// circuits are the same for every seed (they carry most of the work); the
/// seed picks the order, tenants, job seeds and the
/// one-off circuits.
JobStream make_job_stream(const ServeSizes& size, std::uint64_t seed) {
  ptsbe::RngStream rng(seed);
  std::vector<std::string> hot_texts;
  for (std::size_t v = 0; v < size.hot; ++v)
    hot_texts.push_back(dressed_ghz_ptq(size.qubits, static_cast<unsigned>(v), 0.0));
  JobStream stream;
  for (std::size_t v = 0; v < size.hot; ++v)
    stream.hot.push_back(
        make_job(hot_texts[v], v % size.tenants, size, rng.uniform_index(1u << 30)));
  for (std::size_t j = 0; j < size.stream_length; ++j) {
    const std::uint64_t job_seed = rng.uniform_index(1u << 30);
    if (rng.uniform() < size.one_off_rate) {
      const auto variant = static_cast<unsigned>(size.hot + j);
      stream.jobs.push_back(make_job(
          dressed_ghz_ptq(size.qubits, variant, rng.uniform(0.0, 0.05)),
          rng.uniform_index(size.tenants), size, job_seed));
    } else {
      const std::size_t v = rng.uniform_index(size.hot);
      stream.jobs.push_back(make_job(hot_texts[v], v % size.tenants, size, job_seed));
    }
  }
  return stream;
}

/// Closed loop shared by the remote and in-process streams: `clients`
/// threads each open a session (`run_one.open()`) and then run jobs back
/// to back (`run_one.run(session, request, job id, local stats)`).
template <typename RunOne>
StreamStats closed_loop(const JobStream& stream, std::size_t clients,
                        double seconds, std::size_t max_jobs, Tracer& tracer,
                        const RunOne& run_one) {
  StreamStats out;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  out.start_ns = tracer.now_ns();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      StreamStats local;
      typename RunOne::Session session = run_one.open();
      for (;;) {
        const std::size_t j = next.fetch_add(1);
        if (j >= max_jobs || since(start) >= seconds) break;
        ++local.attempted;
        try {
          run_one.run(session, stream.jobs[j % stream.jobs.size()], j + 1, local);
        } catch (const std::exception& e) {
          ++local.failed;
          std::fprintf(stderr, "job %zu (client %zu) failed: %s\n", j, c, e.what());
        }
      }
      const std::lock_guard<std::mutex> lock(mutex);
      out.latency_ms.insert(out.latency_ms.end(), local.latency_ms.begin(),
                            local.latency_ms.end());
      out.attempted += local.attempted;
      out.failed += local.failed;
      out.shots += local.shots;
      out.batches += local.batches;
      out.batch_bytes += local.batch_bytes;
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = since(start);
  out.end_ns = tracer.now_ns();
  return out;
}

/// One remote job per call, over one connection per client thread.
struct RemoteJob {
  using Session = std::unique_ptr<net::Client>;
  std::uint16_t port;
  bool count_bytes;
  Tracer& tracer;

  [[nodiscard]] Session open() const {
    net::ClientConfig config;
    config.port = port;
    return std::make_unique<net::Client>(config);
  }
  void run(Session& client, const serve::JobRequest& req, std::uint64_t job,
           StreamStats& local) const {
    net::RemoteRun remote;
    const Clock::time_point t = Clock::now();
    {
      const auto span = tracer.span("net.job", 0, job);
      remote = client->submit(req);
    }
    local.latency_ms.push_back(1e3 * since(t));
    local.shots += remote.run.result.total_shots();
    local.batches += remote.num_batches;
    if (count_bytes)
      for (const ptsbe::be::TrajectoryBatch& batch : remote.run.result.batches)
        local.batch_bytes += net::encode_batch(batch).size();
  }
};

/// One in-process job per call: Engine::submit, then wait.
struct EngineJob {
  using Session = int;
  serve::Engine& engine;
  Tracer& tracer;

  [[nodiscard]] Session open() const { return 0; }
  void run(Session&, const serve::JobRequest& req, std::uint64_t job,
           StreamStats& local) const {
    std::uint64_t shots = 0;
    const Clock::time_point t = Clock::now();
    {
      const auto span = tracer.span("serve.job", 0, job);
      const serve::JobHandle handle = engine.submit(req);
      shots = handle.wait().result.total_shots();  // throws unless kDone
    }
    local.latency_ms.push_back(1e3 * since(t));
    local.shots += shots;
  }
};

}  // namespace

StreamStats run_remote_stream(const JobStream& stream, std::uint16_t port,
                              std::size_t clients, double seconds,
                              std::size_t max_jobs, bool count_bytes,
                              Tracer& tracer) {
  return closed_loop(stream, clients, seconds, max_jobs, tracer,
                     RemoteJob{port, count_bytes, tracer});
}

StreamStats run_engine_stream(const JobStream& stream, serve::Engine& engine,
                              std::size_t clients, double seconds,
                              std::size_t max_jobs, Tracer& tracer) {
  return closed_loop(stream, clients, seconds, max_jobs, tracer,
                     EngineJob{engine, tracer});
}

serve::EngineConfig engine_config(std::size_t workers) {
  serve::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 256;  // above the client count: nothing is shed
  config.plan_cache_capacity = 32;
  return config;
}

ServeLayers serve_probe(const JobStream& stream, std::size_t workers,
                        std::size_t clients, double seconds,
                        std::size_t max_jobs, bool warm, Tracer& tracer) {
  ServeLayers out;
  {
    serve::Engine engine(engine_config(workers));
    if (warm)
      for (const serve::JobRequest& req : stream.hot) (void)engine.submit(req).wait();
    const serve::EngineStats before = engine.stats();
    out.engine = run_engine_stream(stream, engine, clients, seconds, max_jobs, tracer);
    const serve::EngineStats after = engine.stats();
    const double hits =
        static_cast<double>(after.plan_cache_hits - before.plan_cache_hits);
    const double misses =
        static_cast<double>(after.plan_cache_misses - before.plan_cache_misses);
    const double submitted = static_cast<double>(after.submitted - before.submitted);
    const double rejected = static_cast<double>(after.rejected - before.rejected);
    out.plan_cache_hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    out.admitted_ratio = submitted > 0.0 ? (submitted - rejected) / submitted : 0.0;
    for (const auto& [tenant, t] : after.tenants)
      out.queue_high_water =
          std::max(out.queue_high_water, static_cast<double>(t.queue_high_water));
  }
  net::ServerConfig config;
  config.engine = engine_config(workers);
  net::Server server(config);
  if (warm) {
    net::ClientConfig client_config;
    client_config.port = server.port();
    net::Client client(client_config);
    for (const serve::JobRequest& req : stream.hot) (void)client.submit(req);
  }
  out.remote = run_remote_stream(stream, server.port(), clients, seconds, max_jobs,
                                 /*count_bytes=*/true, tracer);
  server.stop();
  return out;
}

void report_serve_layers(const ServeLayers& layers,
                         double untraced_remote_p50_ms, Report& report) {
  const double engine_p50 = median(layers.engine.latency_ms);
  report.metric("serve.latency_p50_ms", engine_p50, "ms");
  report.metric("serve.plan_cache_hit_rate", layers.plan_cache_hit_rate, "ratio");
  report.metric("serve.admitted_ratio", layers.admitted_ratio, "ratio");
  report.metric("serve.queue_high_water", layers.queue_high_water, "count");
  const auto jobs = static_cast<double>(layers.remote.latency_ms.size());
  report.metric("net.wire_overhead_p50_ms", untraced_remote_p50_ms - engine_p50,
                "ms");
  report.metric("net.bytes_per_job",
                static_cast<double>(layers.remote.batch_bytes) / jobs, "B");
  // SUBMIT, ACK, one BATCH per trajectory batch, RESULT, DONE.
  report.metric("net.frames_per_job",
                (static_cast<double>(layers.remote.batches) + 4.0 * jobs) / jobs,
                "count");
}

void run_serve_workload(const Settings& settings, Report& report,
                        Tracer& tracer) {
  const ServeSizes size = serve_sizes(settings.toy);
  const std::size_t clients = settings.threads;
  const std::size_t workers = settings.threads;

  // Set-up: generate the job stream, start the server, warm its plan cache
  // and the connection path with one job per hot circuit.
  JobStream stream;
  std::unique_ptr<net::Server> server;
  tracer.set_enabled(false);
  const double setup_s = median_setup(
      3,
      [&] {
        stream = make_job_stream(size, settings.seed);
        net::ServerConfig config;
        config.engine = engine_config(workers);
        server = std::make_unique<net::Server>(config);
        net::ClientConfig client_config;
        client_config.port = server->port();
        net::Client client(client_config);
        for (const serve::JobRequest& req : stream.hot) (void)client.submit(req);
      },
      [&] { server.reset(); });

  // One job per hot circuit, served over the wire, must be byte-identical
  // to a local Pipeline::run and to the same job called layer by layer.
  tracer.set_enabled(settings.trace);
  std::vector<GenResult> layered;
  std::uint64_t served_shots = 0;
  std::uint64_t served_bytes = 0;
  {
    net::ClientConfig client_config;
    client_config.port = server->port();
    net::Client client(client_config);
    for (std::size_t v = 0; v < stream.hot.size(); ++v) {
      const serve::JobRequest& req = stream.hot[v];
      const std::string stem = settings.out_dir + "/serve-hot-" + std::to_string(v);
      const ptsbe::NoisyCircuit noisy = ptsbe::io::parse_circuit(req.circuit_text);
      const net::RemoteRun served = client.submit(req);
      served.run.to_binary(stem + "-served.ptsb");
      ptsbe::Pipeline(noisy)
          .strategy(req.strategy, req.strategy_config)
          .backend(req.backend, req.backend_config)
          .seed(req.seed)
          .run()
          .to_binary(stem + "-pipeline.ptsb");
      GenConfig config;
      config.nsamples = req.strategy_config.nsamples;
      config.nshots = req.strategy_config.nshots;
      config.pts_seed = req.seed;
      config.seed = req.seed;
      layered.push_back(generate_dataset(noisy, config, stem + "-layered.ptsb",
                                         tracer, 1000000 + v));
      const std::string bytes = slurp(stem + "-served.ptsb");
      report.check("served_bytes_equal_local",
                   bytes == slurp(stem + "-pipeline.ptsb") &&
                       bytes == slurp(stem + "-layered.ptsb"),
                   "hot circuit " + std::to_string(v));
      served_shots += served.run.result.total_shots();
      served_bytes += bytes.size();
    }
  }
  tracer.set_enabled(false);

  const double remote_seconds = settings.trace ? 0.4 * settings.seconds
                                               : settings.seconds;
  const StreamStats remote =
      run_remote_stream(stream, server->port(), clients, remote_seconds,
                        std::numeric_limits<std::size_t>::max(),
                        /*count_bytes=*/false, tracer);
  report.attempted += remote.attempted;
  report.failed += remote.failed;
  report.check("all_jobs_done", remote.failed == 0,
               std::to_string(remote.failed) + " of " +
                   std::to_string(remote.attempted) + " jobs failed");
  const double rss = peak_rss_mib();
  report.info["latency_samples"] = std::to_string(remote.latency_ms.size());

  if (!settings.trace) {
    const auto jobs = static_cast<double>(remote.latency_ms.size());
    report.metric("shots_per_s", static_cast<double>(remote.shots) / remote.wall_s,
                  "1/s");
    report.metric("dataset_bytes_per_shot",
                  static_cast<double>(served_bytes) /
                      static_cast<double>(served_shots),
                  "B");
    report.metric("jobs_per_s", jobs / remote.wall_s, "1/s");
    report.metric("job_latency_p50_ms", median(remote.latency_ms), "ms");
    report.metric("job_latency_p99_ms", percentile(remote.latency_ms, 99.0), "ms");
    report.metric("setup_s", setup_s, "s");
    return;
  }
  report.metric("mem.peak_rss_mib", rss, "MiB");

  // Traced: the same stream in-process and over a fresh server, for the
  // serve/net layers and the tracing overhead; the layered hot-circuit
  // jobs above give the other layers.
  tracer.set_enabled(true);
  const ServeLayers layers =
      serve_probe(stream, workers, clients, 0.3 * settings.seconds,
                  std::numeric_limits<std::size_t>::max(), /*warm=*/true, tracer);
  report.attempted += layers.engine.attempted + layers.remote.attempted;
  report.failed += layers.engine.failed + layers.remote.failed;
  report.check("all_jobs_done", layers.engine.failed + layers.remote.failed == 0);
  const double remote_p50 = median(remote.latency_ms);
  report_serve_layers(layers, remote_p50, report);

  const KernelProbe kernels =
      kernel_probe(*layered.front().plan, size.qubits, 0.2, tracer);
  report_dataset_layers(layered, size.nsamples, 1, kernels, report);
  std::vector<std::string> texts;
  for (const serve::JobRequest& req : stream.hot) texts.push_back(req.circuit_text);
  report.metric("io.parse_us", parse_probe_us(texts, 0.1, tracer), "us");
  report.metric("trace.overhead_ratio", median(layers.remote.latency_ms) / remote_p50,
                "ratio");
  report.metric("trace.coverage",
                tracer.top_level_coverage(
                    {{layers.remote.start_ns, layers.remote.end_ns}}),
                "ratio");
}

}  // namespace perfbench
