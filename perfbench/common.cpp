#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/distillation.hpp"

namespace perfbench {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t parent,
                     std::uint64_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.job = job;
  span_.name = name;
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(std::move(span_));
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::top_level_coverage(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& walls) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  for (const Span& s : spans())
    if (s.parent == 0) top.emplace_back(s.start_ns, s.end_ns);
  std::sort(top.begin(), top.end());
  double wall_ns = 0.0;
  double covered_ns = 0.0;
  for (const auto& [ws, we] : walls) {
    wall_ns += static_cast<double>(we - ws);
    std::int64_t reach = ws;  // union of clipped spans, swept left to right
    for (const auto& [s, e] : top) {
      const std::int64_t lo = std::max(s, reach);
      const std::int64_t hi = std::min(e, we);
      if (hi > lo) {
        covered_ns += static_cast<double>(hi - lo);
        reach = hi;
      }
    }
  }
  return wall_ns > 0.0 ? covered_ns / wall_ns : 0.0;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans())
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"job\": " << s.job << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}\n";
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  const auto it = checks.find(name);
  checks[name] = ok && (it == checks.end() || it->second);
  if (!ok)
    std::fprintf(stderr, "CHECK FAILED: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
}

bool Report::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::uint64_t fnv1a(const void* bytes, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double median_setup(int reps, const std::function<void()>& setup,
                    const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    if (r > 0 && teardown) teardown();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(since(start));
  }
  return median(times);
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

ptsbe::NoisyCircuit surrogate_circuit(unsigned n, unsigned depth, double p,
                                      std::uint64_t seed) {
  // The gate kinds (which set the kernel classes and the fusion) come from
  // a fixed stream so every seed costs the same; the angles from `seed`.
  ptsbe::RngStream kinds(7);
  ptsbe::RngStream angles(seed);
  ptsbe::Circuit c(n);
  for (unsigned d = 0; d < depth; ++d) {
    for (unsigned q = 0; q < n; ++q) {
      switch (kinds.uniform_index(4)) {
        case 0: c.h(q); break;
        case 1: c.t(q); break;
        case 2: c.rx(q, angles.uniform(0, 3.1)); break;
        default: c.ry(q, angles.uniform(0, 3.1)); break;
      }
    }
    for (unsigned q = d % 2; q + 1 < n; q += 2)
      (d % 4 < 2) ? c.cx(q, q + 1) : c.cz(q, q + 1);
  }
  c.measure_all();
  ptsbe::NoiseModel noise;
  noise.add_all_gate_noise(ptsbe::channels::depolarizing(p));
  noise.add_measurement_noise(ptsbe::channels::amplitude_damping(p));
  return noise.apply(c);
}

ptsbe::NoisyCircuit noisy_bare_msd(double p) {
  ptsbe::NoiseModel noise;
  noise.add_all_gate_noise(ptsbe::channels::depolarizing(p));
  return noise.apply(ptsbe::qec::bare_msd_circuit());
}

std::string dressed_ghz_ptq(unsigned n, unsigned variant, double twist) {
  ptsbe::Circuit c(n);
  for (unsigned q = 0; q < n; ++q) c.ry(q, 0.1 * (q + 1 + variant) + twist);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < n; ++q) c.rz(q, 0.07 * (q + 1 + variant) - twist);
  c.measure_all();
  ptsbe::NoiseModel noise;
  noise.add_all_gate_noise(ptsbe::channels::depolarizing(0.01));
  noise.add_measurement_noise(ptsbe::channels::bit_flip(0.005));
  return ptsbe::io::write_circuit(noise.apply(c));
}

}  // namespace perfbench
