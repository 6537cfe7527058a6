// omni_perfbench: the program behind perfbench/run.py.
//
// Runs one workload through the public net::Testbed / OmniNode / OmniManager
// API as a series of identical episodes. An episode builds a fresh testbed
// from the seed-generated plan, runs a warm-up span, runs the timed span in
// 1-simulated-second slices, drains outstanding data ops, checks its
// outputs and folds every deterministic observable into a digest. Episodes
// repeat until --seconds of host time are spent; host-time metrics are the
// median over episodes, simulated metrics must repeat bit-for-bit.
//
// Host time is wall or CPU time of this process, reported in reference
// time (see reference_kernel_ms); simulated time is model time.
// perfbench/README.md says which one every metric uses.
//
//   omni_perfbench --workload beacon_grid --seed 1 --seconds 30 --trace 0
//
// --trace 1 alternates untraced episodes with traced ones (Omniscope on at
// the always-on profile, spans recorded around every call this file makes
// into a layer) and prints the per-layer metrics instead. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
// where attempted/failed count correctness checks.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/testbed.h"
#include "obs/omniscope.h"
#include "obs/perfetto.h"
#include "obs/trace_file.h"
#include "omni/omni_node.h"
#include "sim/mobility.h"
#include "sim/snapshot.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace omni;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double heap_in_use_mb() {
  return static_cast<double>(mallinfo2().uordblks) / (1024.0 * 1024.0);
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// splitmix64: the benchmark's only input generator. Portable and
/// stateless per draw, so the plan a seed produces never depends on the
/// standard library's distribution implementations.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int poisson(double mean) {  // inversion; fine for small means
    const double limit = std::exp(-mean);
    int k = 0;
    for (double p = uniform(); p > limit; p *= uniform()) ++k;
    return k;
  }
};

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x00000100000001B3ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TimePoint at_s(double s) { return TimePoint::origin() + Duration::seconds(s); }

// ---------------------------------------------------------------------------
// Reference time. The speed of a shared machine drifts by tens of percent
// over minutes, and CPU time drifts with wall time. A fixed reference kernel
// runs just before each episode's set-up and just after its timed span;
// every host time the benchmark reports is multiplied by kReferenceMs over
// the kernel's mean measured time. Host times are therefore in reference
// seconds: wall seconds on a machine where the kernel takes kReferenceMs.
// The kernel is benchmark code, so no change to the program moves it.
//
// Its mix follows the simulator's sensitivity to contention on a shared
// 4-core x86 VM: heap-and-hash-map work alone overreacts to cache contention
// by about 2x at times, register-only arithmetic barely reacts, and a
// three-to-one mix by time tracked the simulator best across both regimes.

constexpr double kReferenceMs = 100.0;
std::uint64_t g_reference_sink = 0;

double reference_kernel_ms() {
  const auto t0 = Clock::now();
  // A binary-heap event queue of 20k entries driving hash-map updates.
  SplitMix rng{7};
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  table.reserve(1 << 16);
  for (std::uint32_t i = 0; i < 20000; ++i) queue.push({rng.uniform(), i});
  for (int i = 0; i < 450000; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    table[(id * 2654435761u) & 0xffff] += static_cast<std::uint64_t>(t * 1e6);
    queue.push({t + rng.uniform(), id});
  }
  // Register-only arithmetic.
  std::uint64_t h = table.size();
  for (std::uint64_t i = 0; i < 11000000; ++i) {
    h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + i;
  }
  g_reference_sink += h;
  return 1e3 * seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Spans: recorded around the calls this file makes into each layer. Kept in
// memory and written out after the run; self time is derived from them.

struct Span {
  const char* name;
  const char* layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t episode;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Spans are only recorded between arm() and disarm(); the untraced
  /// episodes of a traced run pay one branch per call site.
  void arm(std::uint32_t episode) {
    on_ = true;
    episode_ = episode;
  }
  void disarm() { on_ = false; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer) : t_(t) {
      if (t_.on_) id_ = t_.open(name, layer);
    }
    ~Scope() {
      if (id_ >= 0) t_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in reference ms: each span's duration minus the
  /// part its direct children cover (children never overlap: all spans are
  /// on one thread), times its episode's reference scale.
  std::map<std::string, double> self_ms_by_layer(
      const std::vector<double>& scale_by_episode) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.layer] += 1e-6 * scale_by_episode.at(s.episode) *
                      static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing); each
  /// event carries its span id and parent id.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[384];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                    i ? "," : "", s.name, s.layer, 1e-3 * s.start_ns,
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                    s.episode, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int32_t open(const char* name, const char* layer) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, layer, now_ns(), 0, parent, episode_});
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  bool on_ = false;
  std::uint32_t episode_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// ---------------------------------------------------------------------------
// Workloads and the plan a seed generates for them.

enum class Kind { kBeaconGrid, kDataChurn, kCityChurn };

struct Workload {
  const char* name;
  Kind kind;
  unsigned threads;
  double warmup_s;  ///< simulated; part of setup_s
  double span_s;    ///< simulated; the timed span, in 1 s slices
};

// Sized so each timed span is at least a reference second or so: in the
// ten-seed baseline on a 4-core x86 VM they took about 1.7 (beacon_grid),
// 0.7 (data_churn) and 0.9 (city_churn) reference seconds. The spread of
// those medians stayed within the bounds, so the spans were not lengthened.
const Workload kWorkloads[] = {
    {"beacon_grid", Kind::kBeaconGrid, 1, 10.0, 200.0},
    {"data_churn", Kind::kDataChurn, 1, 10.0, 120.0},
    {"city_churn", Kind::kCityChurn, 2, 10.0, 600.0},
};

constexpr double kGridSpacingM = 25.0;
constexpr std::size_t kGridNodes = 1000;
constexpr double kChurnSpacingM = 30.0;
constexpr std::size_t kChurnNodes = 256;
constexpr double kSendsPerNodePerS = 0.2;
constexpr double kSendTickS = 0.1;
constexpr double kCrashEveryS = 5.0;
constexpr double kDrainCapS = 120.0;
constexpr std::size_t kCityNodes = 100000;
constexpr std::size_t kCityCore = 1000;

struct PlannedSend {
  std::uint32_t sender;
  std::uint64_t pick;  ///< chooses the destination among the sender's peers
  std::uint32_t bytes;
};

struct PlannedCrash {
  std::uint32_t node;
  double at_s;
  double restart_s;
};

/// Everything the program receives, generated from the seed alone.
struct Plan {
  std::uint64_t sim_seed = 0;
  std::uint64_t fault_seed = 0;
  std::uint64_t churn_seed = 0;
  std::vector<sim::Vec2> device_pos;
  std::vector<std::uint8_t> context;  ///< one 1-byte context per device
  std::vector<sim::Vec2> crowd_pos;
  std::vector<std::uint32_t> crowd_movers;  ///< indices into crowd_pos
  sim::Vec2 area_max{0, 0};
  std::vector<std::uint32_t> walkers;          ///< devices that walk
  std::vector<std::uint64_t> walker_seeds;
  std::vector<PlannedCrash> crashes;
  std::vector<std::vector<PlannedSend>> sends;  ///< per 100 ms tick
  std::size_t send_count = 0;
};

Plan make_plan(const Workload& w, std::uint64_t seed) {
  SplitMix rng{seed * 0x2545f4914f6cdd1dull + 0x5eed};
  Plan p;
  p.sim_seed = rng.next();
  p.fault_seed = rng.next();
  p.churn_seed = rng.next();
  auto lattice = [&p](std::size_t n, double spacing) {
    const auto side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    for (std::size_t i = 0; i < n; ++i) {
      p.device_pos.push_back({static_cast<double>(i % side) * spacing,
                              static_cast<double>(i / side) * spacing});
    }
    p.area_max = {static_cast<double>(side - 1) * spacing,
                  static_cast<double>((n - 1) / side) * spacing};
  };
  switch (w.kind) {
    case Kind::kBeaconGrid:
      lattice(kGridNodes, kGridSpacingM);
      break;
    case Kind::kDataChurn: {
      lattice(kChurnNodes, kChurnSpacingM);
      // A quarter of the nodes walk, chosen by a seeded shuffle.
      std::vector<std::uint32_t> order(kChurnNodes);
      for (std::uint32_t i = 0; i < kChurnNodes; ++i) order[i] = i;
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next() % (i + 1)]);
      }
      p.walkers.assign(order.begin(), order.begin() + kChurnNodes / 4);
      std::sort(p.walkers.begin(), p.walkers.end());
      for (std::size_t i = 0; i < p.walkers.size(); ++i) {
        p.walker_seeds.push_back(rng.next());
      }
      // Staggered crash/restart cycles: one every kCrashEveryS of the span,
      // 5-15 s down, every node back up before the span ends.
      const double span_end = w.warmup_s + w.span_s;
      for (double t = w.warmup_s + 2.0; t + 15.0 < span_end - 5.0;
           t += kCrashEveryS) {
        p.crashes.push_back({static_cast<std::uint32_t>(rng.next() %
                                                        kChurnNodes),
                             t, t + 5.0 + 10.0 * rng.uniform()});
      }
      // Open-loop generator: Poisson sends per 100 ms tick over the span;
      // payloads 256 B / 16 KB / 256 KB in a 50/35/15 mix.
      const auto ticks = static_cast<std::size_t>(w.span_s / kSendTickS);
      const double mean = kSendsPerNodePerS * kChurnNodes * kSendTickS;
      p.sends.resize(ticks);
      for (auto& tick : p.sends) {
        const int n = rng.poisson(mean);
        for (int k = 0; k < n; ++k) {
          const double u = rng.uniform();
          const std::uint32_t bytes =
              u < 0.50 ? 256u : u < 0.85 ? 16u * 1024 : 256u * 1024;
          tick.push_back({static_cast<std::uint32_t>(rng.next() % kChurnNodes),
                          rng.next(), bytes});
        }
        p.send_count += tick.size();
      }
      break;
    }
    case Kind::kCityChurn: {
      // Full-stack core in one square block of the 25 m lattice; world-only
      // crowd everywhere else, every 16th crowd node a walker.
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(kCityNodes))));
      const auto core_side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(kCityCore))));
      for (std::size_t i = 0; i < kCityNodes; ++i) {
        const std::size_t col = i % side, row = i / side;
        const sim::Vec2 pos{static_cast<double>(col) * kGridSpacingM,
                            static_cast<double>(row) * kGridSpacingM};
        if (col < core_side && row < core_side &&
            p.device_pos.size() < kCityCore) {
          p.device_pos.push_back(pos);
        } else {
          if (p.crowd_pos.size() % 16 == 0) {
            p.crowd_movers.push_back(
                static_cast<std::uint32_t>(p.crowd_pos.size()));
          }
          p.crowd_pos.push_back(pos);
        }
      }
      const double extent = static_cast<double>(side - 1) * kGridSpacingM;
      p.area_max = {extent, extent};
      break;
    }
  }
  for (std::size_t i = 0; i < p.device_pos.size(); ++i) {
    p.context.push_back(static_cast<std::uint8_t>(rng.next()));
  }
  return p;
}

// ---------------------------------------------------------------------------
// One episode.

struct OpRecord {
  std::int64_t issued_us = -1;  ///< -1: never issued (sender had no peers)
  std::int64_t completed_us = -1;
  std::uint32_t completions = 0;
  bool ok = false;
};

struct EpisodeResult {
  // Host time, as measured; multiply by `scale` for reference time.
  double kernel_ms = 0;  ///< mean reference-kernel time around the episode
  double scale = 1;      ///< kReferenceMs / kernel_ms
  double setup_s = 0;
  double add_nodes_ms = 0;
  double start_ms = 0;
  double warmup_ms = 0;
  double span_wall_s = 0;
  double span_cpu_s = 0;
  std::vector<double> slice_ms;
  std::vector<double> send_data_us;
  double snapshot_ms = 0;
  double export_ms = 0;
  double heap_growth_mb = 0;
  // Simulated (repeat bit-for-bit).
  std::uint64_t digest = 0;
  std::uint64_t events = 0;   ///< executed during the timed span
  std::uint64_t total_events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t windows = 0, global_events = 0, mailbox_posts = 0;
  std::uint64_t cross_shard_posts = 0;  ///< placement-dependent telemetry
  std::uint64_t migrations = 0, regions = 0;
  double world_bytes_per_node = 0;
  double snapshot_bytes_per_node = 0;
  std::uint64_t ble_delivered = 0;
  std::uint64_t peak_flows = 0;
  sim::FaultPlan::Stats faults;
  ManagerStats mgr;  ///< summed over full-stack nodes
  std::size_t min_peers = 0;
  std::size_t ops_leaked = 0;
  double avg_current_ma = 0;
  std::size_t ops_issued = 0, ops_failed = 0;
  std::size_t ops_incomplete = 0, ops_multi = 0;
  std::vector<double> latency_ms;  ///< successful ops
  // Traced episodes only.
  std::map<std::string, std::uint64_t> scope_counters;
  std::uint64_t trace_records = 0, trace_dropped = 0;
};

/// Every ManagerStats field: summed over nodes and folded into the digest.
constexpr std::uint64_t ManagerStats::*kStatFields[] = {
    &ManagerStats::packets_received,     &ManagerStats::sealed_drops,
    &ManagerStats::beacons_received,     &ManagerStats::context_received,
    &ManagerStats::data_received,        &ManagerStats::data_sends,
    &ManagerStats::data_failovers,       &ManagerStats::context_failovers,
    &ManagerStats::engagements,          &ManagerStats::disengagements,
    &ManagerStats::beacon_encodes,       &ManagerStats::beacon_frames_cached,
    &ManagerStats::beacon_decode_skips,  &ManagerStats::peer_expire_sweeps,
    &ManagerStats::relayed_out,          &ManagerStats::relayed_in,
    &ManagerStats::deadline_failovers,   &ManagerStats::beacon_rearms,
    &ManagerStats::quarantines,          &ManagerStats::overload_rejections,
    &ManagerStats::beacons_suppressed,   &ManagerStats::scan_windows_skipped,
};

/// The ManagerStats fields the Omniscope mirrors, by registry name.
const std::pair<const char*, std::uint64_t ManagerStats::*> kMirrored[] = {
    {"mgr.beacon_decode_skips", &ManagerStats::beacon_decode_skips},
    {"mgr.beacon_encodes", &ManagerStats::beacon_encodes},
    {"mgr.context_rx", &ManagerStats::context_received},
    {"mgr.beacon_rx", &ManagerStats::beacons_received},
    {"mgr.data_failovers", &ManagerStats::data_failovers},
};
const char* const kScopeCounters[] = {"radio.ble.adv_events", "radio.ble.rx",
                                      "radio.mesh.tx"};

EpisodeResult run_episode(const Workload& w, const Plan& plan,
                          unsigned threads, bool traced, Tracer& tr) {
  EpisodeResult r;
  using S = Tracer::Scope;
  S episode_span(tr, "episode", "bench");
  double kernel_before = 0;
  {
    S s(tr, "reference_kernel", "reference");
    kernel_before = reference_kernel_ms();
  }
  const auto t_setup = Clock::now();
  std::unique_ptr<net::Testbed> bed;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  std::vector<std::unique_ptr<sim::RandomWaypointMobility>> walkers;
  std::unique_ptr<sim::CrowdChurn> churn;
  std::vector<OpRecord> ops(plan.send_count);
  std::vector<net::Device*> devices;
  {
    S setup_span(tr, "setup", "bench");
    {
      S s(tr, "net.testbed", "net");
      bed = std::make_unique<net::Testbed>(
          plan.sim_seed, radio::Calibration::defaults(), threads);
    }
    if (traced) {
      // Where bench_scale enables it: before any device exists, so every
      // add_device pays the scope's per-owner bookkeeping.
      S s(tr, "obs.enable", "obs");
      bed->enable_observability(/*ring_capacity=*/1 << 16, /*detail=*/false);
    }
    OmniNodeOptions node_opts;
    if (w.kind == Kind::kCityChurn) {
      DiscoveryPolicy adaptive;
      adaptive.mode = DiscoveryPolicy::Mode::kAdaptive;
      bed->set_discovery_policy(adaptive);
    }
    node_opts.manager.discovery = bed->discovery_policy();

    const auto t_add = Clock::now();
    {
      S s(tr, "net.add_devices", "net");
      devices.reserve(plan.device_pos.size());
      for (std::size_t i = 0; i < plan.device_pos.size(); ++i) {
        devices.push_back(
            &bed->add_device("n" + std::to_string(i), plan.device_pos[i]));
      }
    }
    std::vector<NodeId> crowd;
    if (!plan.crowd_pos.empty()) {
      S s(tr, "sim.add_crowd", "sim");
      crowd.reserve(plan.crowd_pos.size());
      for (std::size_t i = 0; i < plan.crowd_pos.size(); ++i) {
        crowd.push_back(
            bed->add_crowd_node("c" + std::to_string(i), plan.crowd_pos[i]));
      }
    }
    {
      S s(tr, "omni.construct_nodes", "omni");
      nodes.reserve(devices.size());
      for (net::Device* dev : devices) {
        nodes.push_back(
            std::make_unique<OmniNode>(*dev, bed->mesh(), node_opts));
        nodes.back()->manager().request_context(
            [](const OmniAddress&, const Bytes&) {});
      }
    }
    r.add_nodes_ms = 1e3 * seconds_since(t_add);

    const auto t_start = Clock::now();
    {
      S s(tr, "omni.start", "omni");
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->start();
        nodes[i]->manager().add_context(ContextParams{},
                                        Bytes{plan.context[i]}, nullptr);
      }
    }
    if (w.kind == Kind::kDataChurn) {
      S s(tr, "sim.schedule_faults", "sim");
      sim::FaultPlan& faults = bed->fault_plan();
      faults.set_seed(plan.fault_seed);
      sim::FaultPlan::LinkFault noisy;
      noisy.loss = 0.05;
      noisy.corrupt = 0.005;
      faults.add_link_fault(noisy);
      for (const PlannedCrash& c : plan.crashes) {
        sim::FaultPlan::Crash crash;
        crash.node = devices[c.node]->node();
        crash.at = at_s(c.at_s);
        crash.restart = at_s(c.restart_s);
        faults.add_crash(crash);
      }
      bed->schedule_faults();
    }
    if (!plan.walkers.empty()) {
      S s(tr, "sim.start_walkers", "sim");
      sim::RandomWaypointMobility::Options mo;
      mo.area_max = plan.area_max;
      for (std::size_t i = 0; i < plan.walkers.size(); ++i) {
        walkers.push_back(std::make_unique<sim::RandomWaypointMobility>(
            bed->world(), devices[plan.walkers[i]]->node(), mo,
            plan.walker_seeds[i]));
        walkers.back()->start();
      }
    }
    if (!plan.crowd_movers.empty()) {
      S s(tr, "sim.start_churn", "sim");
      std::vector<NodeId> movers;
      movers.reserve(plan.crowd_movers.size());
      for (std::uint32_t m : plan.crowd_movers) movers.push_back(crowd[m]);
      sim::CrowdChurn::Options co;
      co.area_min = {0, 0};
      co.area_max = plan.area_max;
      co.per_tick = 200;
      churn = std::make_unique<sim::CrowdChurn>(bed->world(), std::move(movers),
                                                co, plan.churn_seed);
      churn->start();
    }
    if (!plan.sends.empty()) {
      // One global event per 100 ms tick. Global events are serialized
      // against every shard, so reading a peer table here is race-free.
      sim::Simulator* engine = &bed->simulator();
      std::size_t op = 0;
      for (std::size_t t = 0; t < plan.sends.size(); ++t) {
        const std::size_t first_op = op;
        op += plan.sends[t].size();
        engine->at(at_s(w.warmup_s + kSendTickS * static_cast<double>(t)),
               [&plan, &nodes, &ops, &tr, &r, engine, t, first_op] {
                 for (std::size_t k = 0; k < plan.sends[t].size(); ++k) {
                   const PlannedSend& ps = plan.sends[t][k];
                   OmniManager& mgr = nodes[ps.sender]->manager();
                   std::vector<OmniAddress> peers;
                   {
                     S s(tr, "omni.peers", "omni");
                     peers = mgr.peer_table().peers();
                   }
                   if (peers.empty()) continue;
                   OpRecord& rec = ops[first_op + k];
                   rec.issued_us = engine->now().as_micros();
                   const auto c0 = Clock::now();
                   S s(tr, "omni.send_data", "omni");
                   mgr.send_data(
                       {peers[ps.pick % peers.size()]},
                       Bytes(ps.bytes, static_cast<std::uint8_t>(ps.pick)),
                       [engine, &rec](StatusCode code, const ResponseInfo&) {
                         ++rec.completions;
                         rec.completed_us = engine->now().as_micros();
                         rec.ok = code == StatusCode::kSendDataSuccess;
                       });
                   r.send_data_us.push_back(1e6 * seconds_since(c0));
                 }
               });
      }
    }
    r.start_ms = 1e3 * seconds_since(t_start);

    const auto t_warm = Clock::now();
    {
      S s(tr, "sim.warmup", "sim");
      bed->simulator().run_for(Duration::seconds(w.warmup_s));
    }
    r.warmup_ms = 1e3 * seconds_since(t_warm);
  }
  r.setup_s = seconds_since(t_setup);

  sim::Simulator& engine = bed->simulator();
  const TimePoint span_begin = engine.now();
  const std::uint64_t events_before = engine.executed_events();
  const double heap0 = heap_in_use_mb();
  const double cpu0 = cpu_seconds();
  const auto t_span = Clock::now();
  {
    S span(tr, "span", "bench");
    const auto slices = static_cast<int>(w.span_s);
    r.slice_ms.reserve(slices);
    for (int i = 0; i < slices; ++i) {
      const auto t0 = Clock::now();
      {
        S s(tr, "sim.slice", "sim");
        engine.run_for(Duration::seconds(1));
      }
      r.slice_ms.push_back(1e3 * seconds_since(t0));
      S s(tr, "radio.mesh.flows", "radio");
      r.peak_flows = std::max<std::uint64_t>(r.peak_flows,
                                             bed->mesh().active_flow_count());
    }
  }
  r.span_wall_s = seconds_since(t_span);
  r.span_cpu_s = cpu_seconds() - cpu0;
  r.heap_growth_mb = heap_in_use_mb() - heap0;
  {
    S s(tr, "reference_kernel", "reference");
    r.kernel_ms = 0.5 * (kernel_before + reference_kernel_ms());
    r.scale = kReferenceMs / r.kernel_ms;
  }
  const TimePoint span_end = engine.now();
  r.events = engine.executed_events() - events_before;

  S collect_span(tr, "collect", "bench");
  {
    S s(tr, "radio.energy", "radio");
    for (net::Device* dev : devices) {
      r.avg_current_ma += dev->meter().average_ma(span_begin, span_end);
    }
    r.avg_current_ma /= static_cast<double>(devices.size());
  }
  if (churn) churn->stop();
  if (plan.send_count > 0) {
    // Ops issued late in the span complete after it; every one must.
    S s(tr, "sim.drain", "sim");
    auto outstanding = [&ops] {
      return std::any_of(ops.begin(), ops.end(), [](const OpRecord& o) {
        return o.issued_us >= 0 && o.completions == 0;
      });
    };
    for (double t = 0; t < kDrainCapS && outstanding(); t += 1.0) {
      engine.run_for(Duration::seconds(1));
    }
  }

  Digest d;
  {
    S s(tr, "sim.counters", "sim");
    r.total_events = engine.executed_events();
    r.peak_pending = engine.peak_pending_events();
    r.windows = engine.windows_run();
    r.global_events = engine.global_events_run();
    r.mailbox_posts = engine.mailbox_posts();
    r.cross_shard_posts = engine.cross_shard_mailbox_posts();
    r.migrations = bed->world().migrations();
    r.regions = bed->world().region_count();
    r.world_bytes_per_node =
        static_cast<double>(bed->world().memory_stats().total()) /
        static_cast<double>(bed->world().node_count());
    r.faults = bed->fault_plan().stats();
    d.add(r.events);
    d.add(r.total_events);
    d.add(engine.now().as_micros());
    d.add(r.migrations);
    d.add(r.faults.drops);
    d.add(r.faults.corruptions);
    d.add(r.faults.delays);
    d.add(r.faults.partition_drops);
  }
  {
    S s(tr, "radio.counters", "radio");
    r.ble_delivered = bed->ble_medium().delivered_count();
    d.add(r.ble_delivered);
    for (net::Device* dev : devices) {
      d.add_double(dev->meter().average_ma(span_begin, span_end));
    }
    d.add_double(r.avg_current_ma);
  }
  {
    S s(tr, "omni.stats", "omni");
    r.min_peers = nodes.empty() ? 0 : SIZE_MAX;
    for (auto& n : nodes) {
      const OmniManager& m = n->manager();
      r.min_peers = std::min(r.min_peers, m.peer_table().size());
      r.ops_leaked += m.pending_data_count() + m.data_attempt_count() +
                      m.context_attempt_count();
      for (auto field : kStatFields) {
        r.mgr.*field += m.stats().*field;
        d.add(m.stats().*field);
      }
      d.add(m.peer_table().size());
    }
    d.add(r.ops_leaked);
  }
  for (const OpRecord& o : ops) {
    if (o.issued_us < 0) continue;
    ++r.ops_issued;
    if (o.completions == 0) ++r.ops_incomplete;
    if (o.completions > 1) ++r.ops_multi;
    if (o.completions > 0 && o.ok) {
      r.latency_ms.push_back(1e-3 *
                             static_cast<double>(o.completed_us - o.issued_us));
    } else if (o.completions > 0) {
      ++r.ops_failed;
    }
    d.add(static_cast<std::uint64_t>(o.issued_us));
    d.add(static_cast<std::uint64_t>(o.completed_us));
    d.add(o.completions);
    d.add(o.ok ? 1 : 0);
  }
  r.digest = d.h;

  {
    S s(tr, "sim.snapshot", "sim");
    const auto t0 = Clock::now();
    sim::Snapshot snap = bed->capture_snapshot("perfbench");
    const std::size_t bytes = sim::serialize_snapshot(snap).size();
    r.snapshot_ms = 1e3 * seconds_since(t0);
    r.snapshot_bytes_per_node = static_cast<double>(bytes) /
                                static_cast<double>(bed->world().node_count());
  }
  if (traced) {
    obs::Omniscope& scope = *bed->observability();
    {
      S s(tr, "obs.counters", "obs");
      scope.flush();
      auto read = [&](const char* name) {
        const obs::MetricId id = scope.metrics().find(name);
        if (id != obs::kInvalidMetric) {
          r.scope_counters[name] = scope.metrics().counter_total(id);
        }
      };
      for (const auto& [name, field] : kMirrored) read(name);
      for (const char* name : kScopeCounters) read(name);
      r.trace_records = scope.recorder().total_written();
      r.trace_dropped = scope.recorder().dropped();
    }
    S s(tr, "obs.export", "obs");
    const auto t0 = Clock::now();
    obs::TraceCapture cap = obs::capture(scope);
    std::ostringstream json;
    obs::write_perfetto_json(json, cap, bed->export_options());
    r.export_ms = 1e3 * seconds_since(t0);
  }
  {
    S s(tr, "net.teardown", "net");
    walkers.clear();
    churn.reset();
    nodes.clear();
    bed.reset();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Checks, metrics and output.

struct Checks {
  int attempted = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Checks every episode must pass on its own, for any seed.
void check_episode(const Workload& w, const EpisodeResult& r, Checks& c) {
  c.expect(r.events > 0, "timed span executed no events");
  c.expect(r.avg_current_ma > 0, "no energy was drawn");
  if (w.kind != Kind::kDataChurn) {
    c.expect(r.min_peers >= 1,
             "min_peers " + std::to_string(r.min_peers) + " < 1");
  } else {
    c.expect(r.ops_issued > 0, "no send_data op was issued");
    c.expect(r.ops_incomplete == 0,
             std::to_string(r.ops_incomplete) + " ops never completed");
    c.expect(r.ops_multi == 0,
             std::to_string(r.ops_multi) + " ops completed more than once");
    c.expect(r.ops_leaked == 0,
             std::to_string(r.ops_leaked) + " op-table entries leaked");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Checks& c, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += c.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(c.attempted);
  out += ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + fmt_g(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

template <typename F>
std::vector<double> collect(const std::vector<EpisodeResult>& eps, F f) {
  std::vector<double> v;
  for (const EpisodeResult& e : eps) v.push_back(f(e));
  return v;
}

/// Data-path figures; simulated, so identical in every episode.
void add_data_metrics(const EpisodeResult& r, std::vector<Metric>& m) {
  const double issued = static_cast<double>(r.ops_issued);
  m.push_back({"data.ops_issued", issued, "count"});
  m.push_back({"data.ops_failed_share",
               issued > 0 ? static_cast<double>(r.ops_failed +
                                                r.ops_incomplete) /
                                issued
                          : 0,
               "ratio"});
  m.push_back({"data.latency_p50_ms", quantile(r.latency_ms, 0.50), "ms"});
  m.push_back({"data.latency_p99_ms", quantile(r.latency_ms, 0.99), "ms"});
  m.push_back({"data.latency_samples",
               static_cast<double>(r.latency_ms.size()), "count"});
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< required
  bool trace = false;
  std::string expect_digest;
  std::string spans_path;
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--expect-digest") {
      a.expect_digest = v;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: omni_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--expect-digest HEX] [--spans PATH] "
                 "[--source-id ID]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("provenance: nproc=%u compiler=\"%s\" build_type=%s source=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, args.source_id.c_str());
  std::printf("workload %s: seed %llu, %u thread(s), warm-up %.0f sim s, "
              "timed span %.0f sim s per episode\n",
              w->name, static_cast<unsigned long long>(args.seed), w->threads,
              w->warmup_s, w->span_s);

  const Plan plan = make_plan(*w, args.seed);
  Tracer tracer(Clock::now());
  Checks checks;

  // city_churn: a 1-thread reference episode; every 2-thread episode must
  // reproduce its digest bit-for-bit.
  std::uint64_t reference = 0;
  bool have_reference = false;
  if (w->threads > 1) {
    EpisodeResult ref = run_episode(*w, plan, 1, false, tracer);
    check_episode(*w, ref, checks);
    reference = ref.digest;
    have_reference = true;
    std::printf("  1-thread reference digest %s\n", hex64(ref.digest).c_str());
  }

  // Episodes until --seconds of host time are spent: at least three
  // untraced ones, and with --trace an equal number of traced ones,
  // alternating so drift hits both sides alike.
  std::vector<EpisodeResult> plain, traced;
  std::vector<double> scale_by_episode;
  const auto t_run = Clock::now();
  const std::size_t min_plain = 3;
  for (std::uint32_t i = 0;; ++i) {
    const bool is_traced = args.trace && i % 2 == 1;
    if (is_traced) tracer.arm(i);
    EpisodeResult r = run_episode(*w, plan, w->threads, is_traced, tracer);
    tracer.disarm();
    check_episode(*w, r, checks);
    if (!have_reference) {
      reference = r.digest;
      have_reference = true;
    }
    checks.expect(r.digest == reference,
                  std::string(is_traced ? "traced" : "untraced") +
                      " episode digest " + hex64(r.digest) + " != " +
                      hex64(reference));
    std::printf("  episode %u%s: setup %.3f s, span %.3f s wall / %.3f s "
                "cpu, reference kernel %.1f ms, %llu events, digest %s\n",
                i, is_traced ? " (traced)" : "", r.setup_s, r.span_wall_s,
                r.span_cpu_s, r.kernel_ms,
                static_cast<unsigned long long>(r.events),
                hex64(r.digest).c_str());
    scale_by_episode.push_back(r.scale);
    (is_traced ? traced : plain).push_back(std::move(r));
    const bool balanced = !args.trace || traced.size() == plain.size();
    if (balanced && plain.size() >= min_plain &&
        seconds_since(t_run) >= args.seconds) {
      break;
    }
  }
  if (!args.expect_digest.empty()) {
    checks.expect(hex64(reference) == args.expect_digest,
                  "digest " + hex64(reference) + " != recorded " +
                      args.expect_digest);
  }
  std::printf("digest %s\n", hex64(reference).c_str());

  const EpisodeResult& sim0 = plain.front();
  const double span_s = w->span_s;
  // Host times in reference units (see reference_kernel_ms), and as measured.
  const auto rate = [span_s](const EpisodeResult& e) {
    return span_s / (e.span_wall_s * e.scale);
  };
  const auto cpu_ms = [span_s](const EpisodeResult& e) {
    return 1e3 * e.span_cpu_s * e.scale / span_s;
  };
  const auto setup = [](const EpisodeResult& e) { return e.setup_s * e.scale; };
  const double wall_rate = median(collect(
      plain, [span_s](const EpisodeResult& e) { return span_s / e.span_wall_s; }));
  const double wall_cpu_ms = median(collect(
      plain, [span_s](const EpisodeResult& e) { return 1e3 * e.span_cpu_s / span_s; }));
  const double wall_setup =
      median(collect(plain, [](const EpisodeResult& e) { return e.setup_s; }));
  const double kernel_ms =
      median(collect(plain, [](const EpisodeResult& e) { return e.kernel_ms; }));
  const std::vector<double> rates = collect(plain, rate);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"sim_rate", median(rates), "sim_s/ref_s"},
        {"cpu_per_sim_s_ms", median(collect(plain, cpu_ms)), "ref_ms"},
        {"setup_s", median(collect(plain, setup)), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"avg_current_ma", sim0.avg_current_ma, "mA"},
    };
    std::printf("end-to-end (median of %zu episodes):\n", plain.size());
    print_table(metrics);
    std::printf("  as measured: sim_rate %.4g sim_s/s, cpu_per_sim_s %.4g ms, "
                "setup %.4g s, reference kernel %.4g ms\n",
                wall_rate, wall_cpu_ms, wall_setup, kernel_ms);
    if (w->kind == Kind::kDataChurn) {
      std::vector<Metric> data;
      add_data_metrics(sim0, data);
      print_table(data);
    } else {
      std::printf("  %-34s %16s\n", "data.* (ops_failed_share, latency)",
                  "n/a: no data ops");
    }
    print_result(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
  }

  // --- Traced run: per-layer metrics. ---------------------------------------
  const EpisodeResult& t0 = traced.front();
  auto scope_total = [&t0, &checks](const char* name) -> std::uint64_t {
    const auto it = t0.scope_counters.find(name);
    checks.expect(it != t0.scope_counters.end(),
                  std::string("Omniscope has no counter ") + name);
    return it == t0.scope_counters.end() ? 0 : it->second;
  };
  for (const auto& [name, field] : kMirrored) {
    const std::uint64_t stats_total = t0.mgr.*field;
    const std::uint64_t scope_value = scope_total(name);
    checks.expect(stats_total == scope_value,
                  std::string("counter agreement ") + name + ": ManagerStats " +
                      std::to_string(stats_total) + " != Omniscope " +
                      std::to_string(scope_value));
  }
  const std::vector<double> traced_rates = collect(traced, rate);
  // Tracing overhead with its spread. It counts as resolved only when it
  // exceeds the untraced episodes' own range and every traced episode is
  // slower than every untraced one (or every one faster).
  const double overhead =
      100.0 * (median(rates) / median(traced_rates) - 1.0);
  const double noise =
      100.0 * (*std::max_element(rates.begin(), rates.end()) -
               *std::min_element(rates.begin(), rates.end())) /
      median(rates);
  const bool separated =
      *std::max_element(traced_rates.begin(), traced_rates.end()) <
          *std::min_element(rates.begin(), rates.end()) ||
      *std::min_element(traced_rates.begin(), traced_rates.end()) >
          *std::max_element(rates.begin(), rates.end());
  const bool resolved = separated && std::abs(overhead) > noise;

  std::vector<double> slices, sends;
  for (const EpisodeResult& e : traced) {
    for (double ms : e.slice_ms) slices.push_back(ms * e.scale);
    for (double us : e.send_data_us) sends.push_back(us * e.scale);
  }
  const auto med = [&traced](auto f) { return median(collect(traced, f)); };
  const double sim_minutes = span_s / 60.0;
  const double packets = static_cast<double>(t0.mgr.packets_received);
  metrics = {
      {"sim.events", static_cast<double>(t0.events), "count"},
      {"sim.ns_per_event",
       med([](const EpisodeResult& e) {
         return 1e9 * e.span_wall_s * e.scale / static_cast<double>(e.events);
       }),
       "ns"},
      {"sim.peak_pending_events", static_cast<double>(t0.peak_pending),
       "count"},
      {"sim.slice_ms_p50", quantile(slices, 0.5), "ms"},
      {"sim.slice_ms_p90", quantile(slices, 0.9), "ms"},
      {"sim.windows", static_cast<double>(t0.windows), "count"},
      {"sim.global_events", static_cast<double>(t0.global_events), "count"},
      {"sim.mailbox_posts", static_cast<double>(t0.mailbox_posts), "count"},
      {"sim.cross_shard_posts", static_cast<double>(t0.cross_shard_posts),
       "count"},
      {"sim.migrations", static_cast<double>(t0.migrations), "count"},
      {"sim.regions", static_cast<double>(t0.regions), "count"},
      {"sim.world_bytes_per_node", t0.world_bytes_per_node, "B"},
      {"sim.setup.add_nodes_ms",
       med([](const EpisodeResult& e) { return e.add_nodes_ms * e.scale; }), "ms"},
      {"sim.setup.start_ms",
       med([](const EpisodeResult& e) { return e.start_ms * e.scale; }), "ms"},
      {"sim.setup.warmup_ms",
       med([](const EpisodeResult& e) { return e.warmup_ms * e.scale; }), "ms"},
      {"sim.snapshot_ms",
       med([](const EpisodeResult& e) { return e.snapshot_ms * e.scale; }), "ms"},
      {"sim.snapshot_bytes_per_node", t0.snapshot_bytes_per_node, "B"},
      {"radio.ble.delivered", static_cast<double>(t0.ble_delivered), "count"},
      {"radio.ble.adv_events",
       static_cast<double>(scope_total("radio.ble.adv_events")), "count"},
      {"radio.ble.rx", static_cast<double>(scope_total("radio.ble.rx")),
       "count"},
      {"radio.mesh.tx", static_cast<double>(scope_total("radio.mesh.tx")),
       "count"},
      {"radio.mesh.peak_flows", static_cast<double>(t0.peak_flows), "count"},
      {"radio.fault.drops", static_cast<double>(t0.faults.drops), "count"},
      {"radio.fault.corruptions", static_cast<double>(t0.faults.corruptions),
       "count"},
      {"omni.packets_received", packets, "count"},
      {"omni.memo_hit_ratio",
       packets > 0 ? static_cast<double>(t0.mgr.beacon_decode_skips) / packets
                   : 0,
       "ratio"},
      {"omni.beacon_encodes", static_cast<double>(t0.mgr.beacon_encodes),
       "count"},
      {"omni.beacons_suppressed",
       static_cast<double>(t0.mgr.beacons_suppressed), "count"},
      {"omni.send_data_us_p50", quantile(sends, 0.5), "us"},
      {"omni.send_data_us_p99", quantile(sends, 0.99), "us"},
      {"omni.data_failovers", static_cast<double>(t0.mgr.data_failovers),
       "count"},
      {"omni.deadline_failovers",
       static_cast<double>(t0.mgr.deadline_failovers), "count"},
      {"omni.quarantines", static_cast<double>(t0.mgr.quarantines), "count"},
      {"omni.ops_leaked", static_cast<double>(t0.ops_leaked), "count"},
      {"mem.heap_growth_mb_per_sim_min",
       med([](const EpisodeResult& e) { return e.heap_growth_mb; }) /
           sim_minutes,
       "MB/min"},
      {"obs.overhead_pct", overhead, "%"},
      {"obs.overhead_noise_pct", noise, "%"},
      {"obs.overhead_resolved", resolved ? 1.0 : 0.0, "bool"},
      {"obs.setup_s", med(setup), "s"},
      {"obs.export_ms",
       med([](const EpisodeResult& e) { return e.export_ms * e.scale; }), "ms"},
      {"obs.trace_records", static_cast<double>(t0.trace_records), "count"},
      {"obs.trace_dropped", static_cast<double>(t0.trace_dropped), "count"},
      {"host.reference_kernel_ms", kernel_ms, "ms"},
      {"host.sim_rate_wall", wall_rate, "sim_s/s"},
      {"host.cpu_per_sim_s_ms_wall", wall_cpu_ms, "ms"},
      {"host.setup_s_wall", wall_setup, "s"},
  };
  add_data_metrics(t0, metrics);
  // Self time per layer, per traced episode, from the recorded spans.
  const auto self_ms = tracer.self_ms_by_layer(scale_by_episode);
  for (const char* layer : {"bench", "net", "sim", "radio", "omni", "obs"}) {
    const auto it = self_ms.find(layer);
    metrics.push_back({std::string("self_ms.") + layer,
                       (it == self_ms.end() ? 0.0 : it->second) /
                           static_cast<double>(traced.size()),
                       "ms"});
  }
  std::printf("per-layer (%zu traced / %zu untraced episodes, %zu spans):\n",
              traced.size(), plain.size(), tracer.spans().size());
  print_table(metrics);
  std::printf("  obs.overhead: %+.2f%% against a %.2f%% untraced spread: %s\n",
              overhead, noise, resolved ? "resolved" : "unresolved");
  if (!args.spans_path.empty()) {
    const bool ok = tracer.write(args.spans_path);
    checks.expect(ok, "cannot write spans to " + args.spans_path);
    if (ok) std::printf("wrote %s\n", args.spans_path.c_str());
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}
