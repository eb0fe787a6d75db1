// perfbench.cpp — the repository benchmark.
//
// Three workloads, each one scenario (or a grid of them) driven through the
// public scenario API:
//
//   farm_local    a busy 2048-disk farm on the routerless shard-local
//                 pipeline (no cache, router or orchestration);
//   diurnal_orch  the routed pipeline with a cache, replicas, adaptive
//                 spin-down and every orchestration mechanism on;
//   paper_fig56   the paper's Figure 5/6 grid (placement x cache x
//                 threshold) over the NERSC-like trace, run as a sweep.
//
// `--trace 0` measures the end-to-end metrics with tracing off: scenario
// resolution (setup_s) is timed apart from the runs, the resolved scenario
// is run back to back for --seconds, and the median request rate, as a
// ratio to an in-binary yardstick timed around each run, is reported next
// to the simulated power/response trade-off.  `--trace 1` is
// a separate run that re-drives each layer through its own public functions
// on the workload's inputs, records one span per call (kept in memory,
// written to --spans-out at exit) and reports the per-layer metrics.
//
// Every scenario run is checked: the horizon identities of RunResult, and
// bit-identity of repeated runs (and, traced, of shards=1 and of the fleet
// partials folded by hand).  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/pack_grouped.h"
#include "core/random_alloc.h"
#include "des/simulation.h"
#include "disk/disk.h"
#include "obs/trace.h"
#include "orch/controller.h"
#include "sys/fleet.h"
#include "sys/scenario.h"
#include "sys/sweep.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/nersc.h"
#include "workload/stream.h"

// ---------------------------------------------------------------------------
// Allocation counter: every operator new in the process goes through here,
// so alloc.per_req counts the library's allocations as well as ours.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc{};
}
} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace spindown;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, Python statistics.quantiles(n=4) (exclusive).
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double m = median(v);
    return {m, m};
  }
  std::sort(v.begin(), v.end());
  const auto q = [&v](double p) {
    const double h = (static_cast<double>(v.size()) + 1.0) * p;
    const double j = std::clamp(std::floor(h), 1.0,
                                static_cast<double>(v.size() - 1));
    const double d = std::clamp(h - j, 0.0, 1.0);
    const auto i = static_cast<std::size_t>(j) - 1;
    return v[i] + d * (v[i + 1] - v[i]);
  };
  return {q(0.25), q(0.75)};
}

double ns_per(double seconds, double count) {
  return count > 0.0 ? seconds * 1e9 / count : 0.0;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// In-memory spans (traced run only): name, start, end, parent.
// ---------------------------------------------------------------------------

class Spans {
public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// RAII scope: opens a child of the innermost open span.
  class Scope {
  public:
    Scope(Spans& s, std::string name) : spans_(s), prev_(s.open_) {
      index_ = static_cast<int>(s.spans_.size());
      s.spans_.push_back(Span{std::move(name), s.now(), 0.0, prev_});
      s.open_ = index_;
    }
    ~Scope() {
      spans_.spans_[static_cast<std::size_t>(index_)].end = spans_.now();
      spans_.open_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since this span opened.
    double elapsed() const {
      return spans_.now() -
             spans_.spans_[static_cast<std::size_t>(index_)].start;
    }

  private:
    Spans& spans_;
    int prev_;
    int index_ = 0;
  };

  Scope scope(std::string name) { return Scope{*this, std::move(name)}; }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error{"cannot write spans to " + path};
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << num(s.start) << ", \"end_s\": "
          << num(s.end) << ", \"parent\": " << s.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

  std::size_t size() const { return spans_.size(); }

private:
  double now() const { return since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// Host fingerprint and yardstick.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Empty when the build may be timed; otherwise why it may not.
std::string build_invalid_reason() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF") return "sanitizer build";
  return {};
#endif
}

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// A fixed in-binary loop (a splitmix64 chain feeding a 4096-slot table):
/// its duration is the host's speed right now, so wall-clock figures can
/// be read as a ratio to it.  Returns seconds.
double yardstick_s(std::uint32_t iterations) {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> table(4096, 0);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    const std::uint64_t x = util::splitmix64(state);
    table[x & 4095] += x >> 12;
  }
  std::uint64_t sum = 0;
  for (const auto v : table) sum ^= v;
  if (sum == 42) std::cerr << "";  // keeps the loop observable
  return since(t0);
}

/// One yardstick: about 10 ms on a 2020s x86 core.
constexpr std::uint32_t kYardstickIterations = 5'000'000;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<sys::ScenarioSpec> specs;
  unsigned threads = 1; ///< run_sweep width (grids only)
};

std::string with_seed(std::string text, std::uint64_t seed) {
  const std::string s = std::to_string(seed);
  for (std::size_t at; (at = text.find("SEED")) != std::string::npos;) {
    text.replace(at, 4, s);
  }
  return text;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "farm_local") {
    w.specs.push_back(sys::ScenarioSpec::parse(with_seed(
        "catalog=synth(16384,0.2,1m,independent,SEED) placement=random "
        "disks=2048 policy=break-even workload=poisson(40000,50) shards=4 "
        "seed=SEED",
        seed)));
  } else if (name == "diurnal_orch") {
    w.specs.push_back(sys::ScenarioSpec::parse(with_seed(
        "catalog=table1(40000,SEED) placement=pack load=0.2 policy=ewma "
        "cache=lru:16g replicas=2 "
        "orch=redirect+offload:4+writes:0.1+budget:p99:30 "
        "workload=nhpp(0:12;9000:0.4,72000,18000) shards=3 seed=SEED",
        seed)));
  } else if (name == "paper_fig56") {
    const auto base = sys::ScenarioSpec::parse(with_seed(
        "catalog=nersc(88631,115832,20090531) load=0.8 workload=replay "
        "seed=SEED",
        seed));
    for (const char* placement : {"random", "pack", "grouped:4"}) {
      for (const char* cache : {"none", "lru:16g"}) {
        for (const char* policy : {"fixed:36", "fixed:900", "fixed:1800",
                                   "fixed:3600", "fixed:7200"}) {
          w.specs.push_back(base.with("placement", placement)
                                .with("cache", cache)
                                .with("policy", policy));
        }
      }
    }
    w.threads = 4;
  } else {
    throw std::invalid_argument{"unknown workload '" + name +
                                "' (farm_local, diurnal_orch, paper_fig56)"};
  }
  return w;
}

struct Resolved {
  std::vector<sys::ResolvedScenario> scenarios; ///< owns catalogs/mappings
  std::vector<sys::ExperimentConfig> configs;
};

Resolved resolve_all(const Workload& w) {
  sys::ScenarioCache cache;
  Resolved r;
  for (const auto& spec : w.specs) {
    r.scenarios.push_back(cache.resolve(spec));
    r.configs.push_back(r.scenarios.back().config);
  }
  return r;
}

std::vector<sys::RunResult> run_once(const Workload& w, const Resolved& r) {
  if (r.configs.size() == 1) return {sys::run_experiment(r.configs[0])};
  return sys::run_sweep(r.configs, w.threads);
}

std::uint64_t total_requests(const std::vector<sys::RunResult>& rs) {
  std::uint64_t n = 0;
  for (const auto& r : rs) n += r.requests;
  return n;
}

// ---------------------------------------------------------------------------
// Correctness.
// ---------------------------------------------------------------------------

bool nearly_equal(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The horizon identities every run must satisfy; empty when they hold.
std::string check_identities(const sys::RunResult& r) {
  if (r.requests !=
      r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits) {
    return "requests != completed + in_flight + cache_hits";
  }
  double state_time = 0.0;
  double energy = 0.0;
  for (const auto& d : r.per_disk) {
    for (const double t : d.state_time) state_time += t;
    energy += d.energy_j;
  }
  const double farm_time =
      r.power.horizon_s * static_cast<double>(r.per_disk.size());
  if (!nearly_equal(state_time, farm_time)) {
    return "sum of per-disk state time != horizon x disks";
  }
  if (!nearly_equal(r.power.energy, energy)) {
    return "energy != sum per-disk energy";
  }
  if (r.response.count() != r.requests) return "response count != requests";
  return {};
}

/// The fields bench/fleet_throughput compares for bit-identity.
bool same_result(const sys::RunResult& a, const sys::RunResult& b) {
  return a.power.energy == b.power.energy &&
         a.power.saving_vs_always_on == b.power.saving_vs_always_on &&
         a.response.count() == b.response.count() &&
         a.response.mean() == b.response.mean() &&
         a.response.max() == b.response.max() &&
         a.power.spin_ups == b.power.spin_ups && a.requests == b.requests;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::cout << "FAILED " << what << ": " << error << "\n";
  }
  void check_all(const std::string& what,
                 const std::vector<sys::RunResult>& rs,
                 const std::vector<sys::RunResult>* reference) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      std::string error = check_identities(rs[i]);
      if (error.empty() && reference != nullptr &&
          !same_result(rs[i], (*reference)[i])) {
        error = "result differs from the first run of the same scenario";
      }
      check(what + " #" + std::to_string(i), error);
    }
  }
};

// ---------------------------------------------------------------------------
// Percentile resolution: the response histogram is 0.1 s x 20000 cells, so
// a p99 past 2000 s is clipped.  For such runs the exact p99 comes from the
// completion spans of one extra (untimed) traced run.
// ---------------------------------------------------------------------------

bool p99_saturated(const sys::RunResult& r) {
  return r.response.p99() >= stats::ResponseSummary::kHistHi;
}

double overflow_share(const sys::RunResult& r) {
  const auto& h = r.response.histogram();
  return h.total() == 0 ? 0.0
                        : static_cast<double>(h.overflow()) /
                              static_cast<double>(h.total());
}

/// Exact nearest-rank p99 of every client response in `config`'s run,
/// from its request spans; checked against `reference`.
double exact_p99(const sys::ExperimentConfig& config,
                 const sys::RunResult& reference, Tally& tally) {
  sys::ExperimentConfig traced = config;
  traced.obs = sys::ObsSpec::parse("spans");
  obs::RunTrace trace;
  const auto result = sys::run_experiment(traced, &trace);
  std::vector<double> responses;
  responses.reserve(reference.requests);
  double sum = 0.0;
  for (const auto& e : trace.events) {
    if (e.kind != obs::Kind::kSpan || (e.id & orch::kBackgroundIdBit) != 0) {
      continue;
    }
    if (e.code == obs::kSpanCacheHit) responses.push_back(0.0);
    if (e.code == obs::kSpanComplete) {
      responses.push_back(e.value);
      sum += e.value;
    }
  }
  std::string error;
  if (!same_result(result, reference)) {
    error = "traced run differs from the untraced run";
  } else if (responses.size() != reference.requests) {
    error = "span responses (" + std::to_string(responses.size()) +
            ") != requests";
  } else if (std::abs(sum / static_cast<double>(responses.size()) -
                      reference.response.mean()) >
             1e-6 * reference.response.mean()) {
    error = "span response mean != RunResult mean";
  }
  tally.check("exact p99 spans", error);
  if (responses.empty()) return 0.0;
  const auto rank = std::max<std::ptrdiff_t>(
      1, static_cast<std::ptrdiff_t>(
             std::ceil(0.99 * static_cast<double>(responses.size()))));
  const auto nth = responses.begin() + (rank - 1);
  std::nth_element(responses.begin(), nth, responses.end());
  return *nth;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Tally& tally, bool valid_build,
                  const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const auto& m : metrics) {
    std::printf("  %-28s %-14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
  std::ostringstream out;
  out << "{\"correct\": "
      << (tally.failed == 0 && valid_build ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics, tracing off.
// ---------------------------------------------------------------------------

void run_end_to_end(const Workload& w, double seconds, bool valid_build) {
  Tally tally;
  std::vector<double> setups;
  auto t0 = Clock::now();
  const auto resolved = resolve_all(w);
  setups.push_back(since(t0));

  // Warm-up run: fills the allocator and page cache, and is the reference
  // every timed repetition must reproduce bit for bit.
  const auto reference = run_once(w, resolved);
  tally.check_all("warm-up", reference, nullptr);

  // Each repetition: one fresh scenario resolution (setup_s), one run,
  // and a yardstick on either side of the run.  Interleaving them makes
  // all three sample the same drift in host speed.
  std::vector<double> rates;
  std::vector<double> per_yardstick;
  double yardstick = yardstick_s(kYardstickIterations);
  const auto loop_start = Clock::now();
  while (rates.size() < 5 || since(loop_start) < seconds) {
    t0 = Clock::now();
    resolve_all(w);
    setups.push_back(since(t0));
    t0 = Clock::now();
    const auto results = run_once(w, resolved);
    const double wall = since(t0);
    const double yardstick_after = yardstick_s(kYardstickIterations);
    rates.push_back(static_cast<double>(total_requests(results)) / wall);
    per_yardstick.push_back(rates.back() * 0.5 *
                            (yardstick + yardstick_after));
    yardstick = yardstick_after;
    tally.check_all("rep " + std::to_string(rates.size()), results,
                    &reference);
  }
  const double rss = peak_rss_mb();

  double energy = 0.0;
  double energy_ratio = 0.0;
  double power_saving = 0.0;
  double resp_mean = 0.0;
  double resp_p99 = 0.0;
  double overflow = 0.0;
  std::size_t saturated = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& r = reference[i];
    energy += r.power.energy;
    energy_ratio += r.power.energy / r.power.always_on_energy;
    power_saving += r.power.saving_vs_always_on;
    resp_mean += r.response.mean();
    overflow += overflow_share(r);
    if (p99_saturated(r)) {
      ++saturated;
      resp_p99 += exact_p99(resolved.configs[i], r, tally);
    } else {
      resp_p99 += r.response.p99();
    }
  }
  const auto n = static_cast<double>(reference.size());
  const auto spread = [](const char* name, const std::vector<double>& v) {
    const auto [q1, q3] = quartiles(v);
    std::cout << name << ": median " << median(v) << ", quartiles " << q1
              << " / " << q3 << ", min "
              << *std::min_element(v.begin(), v.end()) << ", max "
              << *std::max_element(v.begin(), v.end()) << "\n";
  };
  std::cout << "timed: " << rates.size() << " runs of "
            << reference.size() << " scenario(s), "
            << total_requests(reference) << " requests each\n";
  spread("req_per_s", rates);
  spread("req_per_yardstick", per_yardstick);
  spread("setup_s", setups);
  std::cout << "sim: power saving " << power_saving / n << "\n"
            << "sim: response histogram overflow share " << overflow / n
            << "; p99 saturated (>= " << stats::ResponseSummary::kHistHi
            << " s) in " << saturated << " of " << reference.size()
            << " scenario(s); those p99s are exact, from spans\n";

  print_result(tally, valid_build,
               {{"req_per_yardstick", median(per_yardstick),
                 "req/yardstick"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", rss, "MB"},
                {"sim_energy_mj", energy / n / 1e6, "MJ"},
                {"sim_energy_ratio", energy_ratio / n, "fraction"},
                {"sim_resp_mean_s", resp_mean / n, "s"},
                {"sim_resp_p99_s", resp_p99 / n, "s"}});
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics, each layer re-driven through its public
// functions on the workload's own inputs.
// ---------------------------------------------------------------------------

/// The configuration the stream-level layer drivers use: the first
/// scenario with a front cache, else the first scenario.
std::size_t layer_index(const Resolved& r) {
  for (std::size_t i = 0; i < r.configs.size(); ++i) {
    if (r.configs[i].cache.kind != sys::CacheSpec::Kind::kNone) return i;
  }
  return 0;
}

/// workload.catalog_s / core.place_s: the catalog generator and each
/// distinct placement of the workload, called directly.
void time_setup_layers(const Workload& w, Spans& spans,
                       std::vector<Metric>& out) {
  const auto& first = w.specs.front();
  std::vector<double> catalog_times;
  std::vector<double> place_times;
  for (int rep = 0; rep < 3; ++rep) {
    std::shared_ptr<const workload::Trace> trace;
    workload::FileCatalog synthetic;
    const workload::FileCatalog* catalog = nullptr;
    {
      auto s = spans.scope("workload.catalog");
      if (first.catalog.kind == sys::CatalogSpec::Kind::kNersc) {
        trace = std::make_shared<const workload::Trace>(
            workload::synthesize_nersc(first.catalog.nersc));
        catalog = &trace->catalog();
      } else {
        util::Rng rng{first.catalog.seed};
        synthetic = workload::generate_catalog(first.catalog.synth, rng);
        catalog = &synthetic;
      }
      catalog_times.push_back(s.elapsed());
    }
    const double rate =
        trace != nullptr ? static_cast<double>(trace->size()) /
                               std::max(1.0, trace->duration())
                         : first.workload.mean_rate();
    core::LoadModel model;
    model.rate = rate;
    model.load_fraction = first.load_fraction;
    model.disk = first.params;
    auto s = spans.scope("core.place");
    std::vector<std::string> done;
    for (const auto& spec : w.specs) {
      const auto key = spec.placement.spec();
      if (std::find(done.begin(), done.end(), key) != done.end()) continue;
      done.push_back(key);
      using Kind = sys::PlacementSpec::Kind;
      core::Assignment a;
      if (spec.placement.kind == Kind::kPack) {
        a = core::PackDisks{}.allocate(core::normalize(*catalog, model));
      } else if (spec.placement.kind == Kind::kGrouped) {
        core::PackDisksGrouped grouped{spec.placement.group_size};
        a = grouped.allocate(core::normalize(*catalog, model));
      } else if (spec.placement.kind == Kind::kRandom && spec.disks > 0) {
        core::LoadModel lenient = model;
        lenient.load_fraction = 1.0;
        core::RandomAllocator rnd{spec.disks, spec.seed};
        a = rnd.allocate(core::normalize(*catalog, lenient));
      } else if (spec.placement.kind == Kind::kRandom) {
        const auto items = core::normalize(*catalog, model);
        core::RandomAllocator rnd{core::PackDisks{}.allocate(items).disk_count,
                                  spec.seed};
        a = rnd.allocate(items);
      } else {
        throw std::logic_error{"placement without a layer driver: " + key};
      }
      if (a.disk_of.size() != catalog->size()) {
        throw std::logic_error{"placement left files unassigned: " + key};
      }
    }
    place_times.push_back(s.elapsed());
  }
  out.push_back({"workload.catalog_s", median(catalog_times), "s"});
  out.push_back({"core.place_s", median(place_times), "s"});
}

/// The orchestration configuration the orch driver uses: the scenario's
/// own, or (for workloads that run without orchestration) the diurnal_orch
/// mechanisms over two replicas, so the layer is still measured on the
/// workload's stream.
struct OrchSetup {
  sys::OrchSpec spec;
  std::uint32_t replicas = 2;
  std::uint32_t data_disks = 0;
  std::uint32_t log_disks = 0;
};

OrchSetup orch_setup(const sys::ExperimentConfig& c) {
  OrchSetup o;
  if (c.orch.enabled()) {
    o.spec = c.orch;
    o.replicas = c.replicas;
    o.log_disks = c.orch.offload ? c.orch.log_disks : 0;
    o.data_disks = c.num_disks - o.log_disks;
  } else {
    o.spec =
        sys::OrchSpec::parse("redirect+offload:4+writes:0.1+budget:p99:30");
    o.log_disks = o.spec.log_disks;
    o.data_disks = c.num_disks;
  }
  return o;
}

std::unique_ptr<orch::FleetController> make_controller(
    const sys::ExperimentConfig& c, const OrchSetup& o,
    const std::vector<workload::FileExtent>& extents) {
  orch::Config oc;
  oc.redirect = o.spec.redirect;
  oc.offload = o.spec.offload;
  oc.budget = o.spec.budget;
  oc.data_disks = o.data_disks;
  oc.log_disks = o.log_disks;
  oc.replicas = o.replicas;
  oc.destage_deadline_s = o.spec.destage_deadline_s;
  oc.write_fraction = o.spec.write_fraction;
  oc.slo_p99_s = o.spec.slo_p99_s;
  oc.horizon_s = c.workload.measurement_horizon();
  oc.disk_capacity = c.params.capacity;
  oc.mean_request_bytes = c.catalog->mean_request_bytes();
  orch::ServiceModel m;
  m.position_s = c.params.position_time();
  m.transfer_bps = c.params.transfer_bps;
  m.spinup_s = c.params.spinup_s;
  switch (c.policy.kind) {
    case sys::PolicySpec::Kind::kNever:
      m.sleep_after_s = std::numeric_limits<double>::infinity();
      break;
    case sys::PolicySpec::Kind::kFixed:
      m.sleep_after_s = c.policy.fixed_threshold_s;
      break;
    default:
      m.sleep_after_s = c.params.break_even_threshold();
  }
  return std::make_unique<orch::FleetController>(oc, m, c.mapping, extents,
                                                 nullptr);
}

/// The disk farm of one calendar, built like the simulator builds it: one
/// RNG split per disk in id order, the scenario's policy and scheduler
/// (the orchestration log tier never sleeps).
struct Farm {
  des::Simulation sim;
  std::vector<std::unique_ptr<disk::Disk>> disks;

  Farm(const sys::ExperimentConfig& c, std::uint32_t log_disks) {
    util::Rng farm_rng{c.seed};
    for (std::uint32_t d = 0; d < c.num_disks; ++d) {
      sys::PolicySpec policy = c.policy;
      for (const auto& [id, p] : c.policy_overrides) {
        if (id == d) policy = p;
      }
      if (d >= c.num_disks - log_disks) policy = sys::PolicySpec::never();
      disks.push_back(std::make_unique<disk::Disk>(
          sim, d, c.params, policy.make(c.params), farm_rng.split(),
          c.scheduler.make()));
    }
  }
};

/// Stream-level layers, chunk by chunk: generation, calendar, cache,
/// orchestration, disk replay.
void time_stream_layers(const sys::ExperimentConfig& c, Spans& spans,
                        std::vector<Metric>& out) {
  constexpr std::size_t kChunk = 1 << 16;
  const bool cached = c.cache.kind != sys::CacheSpec::Kind::kNone;
  const bool orchestrated = c.orch.enabled();
  const auto stream = c.workload.make_stream(*c.catalog, c.seed);
  const auto cache = (cached ? c.cache : sys::CacheSpec::lru()).make();
  const OrchSetup o = orch_setup(c);
  const auto extents = workload::layout_extents(
      *c.catalog, c.mapping, o.data_disks + o.log_disks);
  const auto controller = make_controller(c, o, extents);
  Farm farm{c, orchestrated ? o.log_disks : 0};
  des::Simulation calendar;

  double gen_s = 0, des_s = 0, cache_s = 0, orch_s = 0, disk_s = 0;
  std::uint64_t generated = 0, fired = 0, hits = 0, routes = 0;
  std::uint64_t submitted = 0;
  std::vector<workload::Request> chunk;
  std::vector<std::uint32_t> to_disks; ///< chunk indices that reach a disk
  std::vector<orch::Submission> subs;
  std::vector<orch::Submission> routed;
  const auto replay = [&] {
    auto s = spans.scope("disk.replay");
    for (const auto& r : routed) {
      farm.sim.run_until(r.t);
      farm.disks[r.disk]->submit(r.request_id, r.bytes, r.lba, r.blocks,
                                 r.background);
    }
    disk_s += s.elapsed();
    submitted += routed.size();
    routed.clear();
  };
  chunk.reserve(kChunk);
  for (bool exhausted = false; !exhausted;) {
    chunk.clear();
    {
      auto s = spans.scope("workload.next");
      while (chunk.size() < kChunk) {
        auto r = stream->next();
        if (!r) {
          exhausted = true;
          break;
        }
        chunk.push_back(*r);
      }
      gen_s += s.elapsed();
    }
    if (chunk.empty()) break;
    generated += chunk.size();
    {
      auto s = spans.scope("des.schedule_run");
      for (const auto& r : chunk) {
        calendar.schedule_at(r.arrival, [&fired] { ++fired; });
      }
      calendar.run_until(chunk.back().arrival);
      des_s += s.elapsed();
    }
    to_disks.clear();
    {
      auto s = spans.scope("cache.access");
      for (std::uint32_t i = 0; i < chunk.size(); ++i) {
        const auto& f = c.catalog->by_id(chunk[i].file);
        if (cache->access(f.id, f.size)) {
          ++hits;
        } else if (cached) {
          to_disks.push_back(i);
        }
      }
      cache_s += s.elapsed();
    }
    if (!cached) {
      // The cache was only measured: every request reaches the disks.
      to_disks.resize(chunk.size());
      for (std::uint32_t i = 0; i < chunk.size(); ++i) to_disks[i] = i;
    }
    {
      auto s = spans.scope("orch.route");
      for (const auto i : to_disks) {
        const auto& r = chunk[i];
        subs.clear();
        controller->flush_deadlines(r.arrival, subs);
        controller->route(r.arrival, r.id, c.catalog->by_id(r.file), subs);
        if (orchestrated) routed.insert(routed.end(), subs.begin(), subs.end());
      }
      orch_s += s.elapsed();
    }
    routes += to_disks.size();
    if (!orchestrated) {
      for (const auto i : to_disks) {
        const auto& r = chunk[i];
        const auto& f = c.catalog->by_id(r.file);
        const auto& e = extents[f.id];
        routed.push_back({r.arrival, r.id, f.size,
                          r.lba != workload::kNoLba ? r.lba : e.lba, e.blocks,
                          c.mapping[f.id], false});
      }
    }
    replay();
  }
  {
    auto s = spans.scope("orch.route");
    subs.clear();
    controller->flush_deadlines(c.workload.measurement_horizon(), subs);
    if (orchestrated) routed = subs;
    orch_s += s.elapsed();
  }
  replay();
  {
    auto s = spans.scope("disk.replay");
    farm.sim.run();
    disk_s += s.elapsed();
  }
  const auto n = static_cast<double>(generated);
  const auto r = static_cast<double>(routes);
  out.push_back({"workload.gen_ns_per_req", ns_per(gen_s, n), "ns"});
  out.push_back(
      {"des.ns_per_event", ns_per(des_s, static_cast<double>(fired)), "ns"});
  out.push_back({"disk.replay_ns_per_req",
                 ns_per(disk_s, static_cast<double>(submitted)), "ns"});
  out.push_back({"cache.ns_per_access", ns_per(cache_s, n), "ns"});
  out.push_back(
      {"cache.hit_ratio", ratio(static_cast<double>(hits), n), "fraction"});
  out.push_back({"orch.ns_per_route", ns_per(orch_s, r), "ns"});
  out.push_back({"orch.redirects_per_req",
                 ratio(static_cast<double>(controller->redirects()), r),
                 "count"});
  out.push_back({"orch.offloads_per_req",
                 ratio(static_cast<double>(controller->offloads()), r),
                 "count"});
  out.push_back({"orch.destages_per_req",
                 ratio(static_cast<double>(controller->destages()), r),
                 "count"});
  out.push_back({"orch.awake_quota",
                 static_cast<double>(controller->awake_quota()), "count"});
}

/// The fleet layer: run_fleet_partials with its FleetPerf, then the fold
/// of the partials with RunResult::merge, checked against `reference`.
void time_fleet_layer(const sys::ExperimentConfig& c, std::uint32_t shards,
                      const sys::RunResult& reference, Spans& spans,
                      Tally& tally, std::vector<Metric>& out) {
  sys::FleetPerf perf;
  std::vector<sys::RunResult> partials;
  double wall = 0.0;
  {
    auto s = spans.scope("fleet.run_fleet_partials");
    partials =
        sys::run_fleet_partials(c, shards, sys::classify_fleet_path(c), &perf);
    wall = s.elapsed();
  }
  double merge_s = 0.0;
  sys::RunResult merged;
  {
    auto s = spans.scope("fleet.merge");
    merged = partials.front();
    for (std::size_t i = 1; i < partials.size(); ++i) {
      merged.merge(partials[i]);
    }
    merge_s = s.elapsed();
  }
  std::string error = check_identities(merged);
  if (error.empty() && !same_result(merged, reference)) {
    error = "folded fleet partials differ from run_experiment";
  }
  tally.check("fleet partials fold", error);

  double busy_max = 0.0, busy_sum = 0.0, wait_sum = 0.0;
  for (const double b : perf.worker_busy_s) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  for (const double x : perf.worker_wait_s) wait_sum += x;
  const double workers = std::max<double>(1.0, perf.worker_busy_s.size());
  std::size_t high_water = 0;
  for (const auto& sp : perf.per_shard) {
    high_water = std::max(high_water, sp.ring_high_water);
  }
  out.push_back({"fleet.router_busy_share", ratio(perf.router_busy_s, wall),
                 "fraction"});
  out.push_back({"fleet.router_stall_share",
                 ratio(perf.router_stall_s, wall), "fraction"});
  out.push_back({"fleet.worker_busy_max_share", ratio(busy_max, wall),
                 "fraction"});
  out.push_back({"fleet.worker_wait_share",
                 ratio(wait_sum / workers, wall), "fraction"});
  out.push_back({"fleet.worker_imbalance",
                 ratio(busy_max, busy_sum / workers), "ratio"});
  out.push_back({"fleet.ring_high_water", static_cast<double>(high_water),
                 "count"});
  out.push_back({"fleet.merge_s", merge_s, "s"});
}

/// The single calendar and the sweep pool.  Grids: every scenario run
/// alone on one thread (system.ns_per_req) against the pooled sweep
/// (sweep.busy_share).  Single scenarios: the run at shards=1, which must
/// match the sharded run bit for bit.
void time_system_layers(const Workload& w, const Resolved& r,
                        const std::vector<sys::RunResult>& reference,
                        Spans& spans, Tally& tally,
                        std::vector<Metric>& out) {
  double alone_s = 0.0;
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < r.configs.size(); ++i) {
    sys::ExperimentConfig one = r.configs[i];
    one.shards = 1;
    auto s = spans.scope("system.run_shards1");
    const auto result = sys::run_experiment(one);
    alone_s += s.elapsed();
    requests += result.requests;
    std::string error = check_identities(result);
    if (error.empty() && !same_result(result, reference[i])) {
      error = "shards=1 differs from the workload's own shard count";
    }
    tally.check("shards=1 #" + std::to_string(i), error);
  }
  out.push_back({"system.ns_per_req",
                 ns_per(alone_s, static_cast<double>(requests)), "ns"});
  double busy_share = 0.0;
  if (r.configs.size() > 1) {
    auto s = spans.scope("sweep.run_sweep");
    const auto results = sys::run_sweep(r.configs, w.threads);
    const double wall = s.elapsed();
    tally.check_all("sweep", results, &reference);
    busy_share = alone_s / (wall * static_cast<double>(w.threads));
  }
  out.push_back({"sweep.busy_share", busy_share, "fraction"});
}

/// The obs layer: one scenario run with request spans, power and policy
/// events recorded, against the same run untraced.  Synthetic workloads are
/// cut to a prefix of about 100k requests to bound trace memory.
void time_obs_layer(const sys::ExperimentConfig& c, Spans& spans,
                    Tally& tally, std::vector<Metric>& out) {
  sys::ExperimentConfig plain = c;
  using WKind = sys::WorkloadSpec::Kind;
  if (plain.workload.kind != WKind::kTrace) {
    const double cap = 100'000.0 / plain.workload.mean_rate();
    plain.workload.horizon_s = std::min(plain.workload.horizon_s, cap);
  }
  sys::ExperimentConfig traced = plain;
  traced.obs = sys::ObsSpec::parse("spans+power+policy");
  std::vector<double> ratios;
  double bytes_per_req = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double untraced_s = 0.0;
    sys::RunResult base;
    {
      auto s = spans.scope("obs.untraced_run");
      base = sys::run_experiment(plain);
      untraced_s = s.elapsed();
    }
    obs::RunTrace trace;
    auto s = spans.scope("obs.traced_run");
    const auto result = sys::run_experiment(traced, &trace);
    ratios.push_back(s.elapsed() / untraced_s);
    tally.check("obs traced run",
                same_result(result, base)
                    ? std::string{}
                    : "traced run differs from the untraced run");
    bytes_per_req = static_cast<double>(trace.events.size() *
                                        sizeof(obs::TraceEvent)) /
                    static_cast<double>(result.requests);
  }
  out.push_back({"obs.trace_bytes_per_req", bytes_per_req, "bytes"});
  out.push_back({"obs.traced_over_untraced", median(ratios), "ratio"});
}

void run_traced(const Workload& w, bool valid_build,
                const std::string& spans_out, std::uint64_t seed) {
  Tally tally;
  Spans spans;
  std::vector<Metric> metrics;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  {
    auto root = spans.scope("perfbench");
    Resolved resolved;
    {
      auto s = spans.scope("setup");
      time_setup_layers(w, spans, metrics);
      auto r = spans.scope("sys.resolve");
      resolved = resolve_all(w);
    }

    // The workload itself: a warm-up (the reference result), then once
    // untraced with its allocations counted, then once inside a span.
    const auto reference = run_once(w, resolved);
    tally.check_all("warm-up", reference, nullptr);
    {
      const auto a0 = g_allocs.load();
      const auto t0 = Clock::now();
      const auto untraced = run_once(w, resolved);
      untraced_wall = since(t0);
      const auto allocs = g_allocs.load() - a0;
      tally.check_all("untraced run", untraced, &reference);
      metrics.push_back(
          {"alloc.per_req",
           ratio(static_cast<double>(allocs),
                 static_cast<double>(total_requests(reference))),
           "count"});
      auto s = spans.scope("sys.run");
      const auto traced = run_once(w, resolved);
      traced_wall = s.elapsed();
      tally.check_all("traced run", traced, &reference);
    }
    std::uint64_t events = 0;
    std::uint64_t spin_ups = 0;
    double overflow = 0.0;
    double saturated = 0.0;
    for (const auto& r : reference) {
      events += r.events;
      spin_ups += r.power.spin_ups;
      overflow += overflow_share(r);
      saturated = std::max(saturated, p99_saturated(r) ? 1.0 : 0.0);
    }
    const auto requests = static_cast<double>(total_requests(reference));
    metrics.push_back({"des.events_per_req",
                       static_cast<double>(events) / requests, "count"});
    metrics.push_back({"disk.spin_ups_per_kreq",
                       1e3 * static_cast<double>(spin_ups) / requests,
                       "count"});
    metrics.push_back({"stats.resp_overflow_share",
                       overflow / static_cast<double>(reference.size()),
                       "fraction"});
    metrics.push_back({"stats.resp_p99_saturated", saturated, "flag"});

    const std::size_t li = layer_index(resolved);
    {
      auto s = spans.scope("layers.stream");
      time_stream_layers(resolved.configs[li], spans, metrics);
    }
    {
      // Grids run on the single calendar; their fleet layer is measured on
      // the layer scenario at 4 shards.
      const std::uint32_t own = w.specs.front().shards;
      const std::uint32_t shards = own > 1 ? own : 4;
      auto s = spans.scope("layers.fleet");
      time_fleet_layer(resolved.configs[li], shards, reference[li],
                       spans, tally, metrics);
    }
    {
      auto s = spans.scope("layers.system");
      time_system_layers(w, resolved, reference, spans, tally, metrics);
    }
    {
      auto s = spans.scope("layers.obs");
      time_obs_layer(resolved.configs[li], spans, tally, metrics);
    }
    {
      auto s = spans.scope("host.yardstick");
      std::vector<double> runs;
      for (int rep = 0; rep < 5; ++rep) {
        runs.push_back(yardstick_s(kYardstickIterations) * 1e3);
      }
      metrics.push_back({"host.yardstick_ms", median(runs), "ms"});
    }
  }
  metrics.push_back({"bench.traced_over_untraced",
                     traced_wall / untraced_wall, "ratio"});
  if (!spans_out.empty()) {
    spans.write(spans_out, w.name, seed);
    std::cout << "spans: " << spans.size() << " written to " << spans_out
              << "\n";
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  print_result(tally, valid_build, metrics);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help") {
      std::cout << "usage: perfbench --workload <farm_local|diurnal_orch|"
                   "paper_fig56> [--seed N] [--seconds S] [--trace 0|1] "
                   "[--spans-out PATH]\n";
      std::exit(0);
    }
    if (i + 1 >= argc) throw std::invalid_argument{key + " needs a value"};
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument{"unknown option " + key};
    }
  }
  if (a.workload.empty()) throw std::invalid_argument{"--workload required"};
  return a;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::string invalid = build_invalid_reason();
    std::cout << "host: cpu \"" << cpu_model() << "\", nproc "
              << std::thread::hardware_concurrency() << ", compiler "
              << __VERSION__ << ", build " << PERFBENCH_BUILD_TYPE
              << ", flags \"" << PERFBENCH_CXX_FLAGS << "\", "
              << (invalid.empty() ? "timings valid"
                                  : "timings INVALID: " + invalid)
              << "\n";
    const Workload w = make_workload(args.workload, args.seed);
    std::cout << "workload " << w.name << ", seed " << args.seed << ", "
              << w.specs.size() << " scenario(s):\n  "
              << w.specs.front().spec() << "\n";
    if (args.trace == 0) {
      run_end_to_end(w, args.seconds, invalid.empty());
    } else {
      run_traced(w, invalid.empty(), args.spans_out, args.seed);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
