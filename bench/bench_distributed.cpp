// bench_distributed: cost and correctness of the multi-process engine.
//
// Runs the tourist scenario (the golden-trace workload) once per
// (workers, threads) configuration plus the 1-process reference, and
// reports:
//
//   * wall_ms          wall-clock of the whole run (fork + handshake +
//                      every verified round + reap)
//   * rounds           protocol rounds (= conservative windows)
//   * frames, bytes    coordinator-side wire totals, all links
//   * bytes_per_round  protocol overhead per window
//   * posts_on_wire    cross-owner post records shipped for verification
//   * digest           whole-run state digest; every row must equal the
//                      1-process reference digest
//   * match            1 when report bytes AND digest equal the reference
//
// The bench exits 1 if any fleet configuration diverges from the
// 1-process run — this is the ROADMAP acceptance check in bench form.
// Writes BENCH_distributed.json (schema 3: one row per configuration with
// the fields above) for the perf trajectory.
//
//   $ ./bench/bench_distributed              # workers 1, 2, 4
//   $ ./bench/bench_distributed 2 8          # explicit worker counts
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dist/launch.h"

namespace {

using namespace omni;

const char* kScenarioPath = OMNI_REPO_DIR "/examples/scenarios/tourist.scn";

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> worker_counts;
  for (int i = 1; i < argc; ++i) {
    auto count = dist::parse_count(argv[i]);
    if (!count.is_ok()) {
      std::fprintf(stderr, "%s\nusage: %s [worker-count...]\n",
                   count.error_message().c_str(), argv[0]);
      return 2;
    }
    worker_counts.push_back(count.value());
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4};

  std::ifstream in(kScenarioPath);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", kScenarioPath);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string scenario = text.str();

  bench::print_heading(
      "Distributed engine: verified lockstep vs 1-process (tourist.scn)");

  // 1-process reference: the digest and report every fleet row must hit.
  auto t0 = std::chrono::steady_clock::now();
  auto single = dist::run_single(scenario);
  const double single_ms = wall_ms_since(t0);
  if (!single.is_ok()) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 single.error_message().c_str());
    return 1;
  }
  const dist::RunSummary& ref = single.value().summary;

  bench::BenchReport report("distributed");
  report.set_schema_version(3);
  report.set_meta("scenario", "tourist.scn");

  bench::Table table({"mode", "workers", "threads", "wall_ms", "rounds",
                      "frames", "bytes", "B/round", "posts", "digest",
                      "match"});
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(ref.state_digest));
  table.add_row({"single", "0", "1", bench::fmt(single_ms), "-", "-", "-",
                 "-", "-", digest_hex, "-"});
  report.add_row()
      .field("mode", std::string("single"))
      .field("workers", std::uint64_t{0})
      .field("threads", std::uint64_t{1})
      .field("wall_ms", single_ms)
      .field("rounds", std::uint64_t{0})
      .field("frames", std::uint64_t{0})
      .field("bytes", std::uint64_t{0})
      .field("bytes_per_round", 0.0)
      .field("posts_on_wire", std::uint64_t{0})
      .field("digest", std::string(digest_hex))
      .field("match", std::uint64_t{1});

  bool all_match = true;
  for (std::uint32_t workers : worker_counts) {
    // Two thread counts on purpose: every process of the fleet runs its
    // replica at `threads`, and both fleets must match the 1-process
    // digest, proving the protocol is thread-count-invariant *across
    // processes*.
    for (unsigned threads : {1u, 2u}) {
      dist::EndpointConfig cfg;
      cfg.scenario_text = scenario;
      cfg.nworkers = workers;
      cfg.threads = threads;
      t0 = std::chrono::steady_clock::now();
      auto fleet = dist::run_local_fleet(cfg);
      const double ms = wall_ms_since(t0);
      if (!fleet.is_ok()) {
        std::fprintf(stderr, "fleet %u failed: %s\n", workers,
                     fleet.error_message().c_str());
        return 1;
      }
      const dist::FleetResult& res = fleet.value();
      const bool match = res.report == single.value().report &&
                         res.summary.state_digest == ref.state_digest;
      all_match = all_match && match;
      const double per_round =
          res.stats.rounds == 0
              ? 0.0
              : static_cast<double>(res.stats.bytes) /
                    static_cast<double>(res.stats.rounds);
      std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                    static_cast<unsigned long long>(res.summary.state_digest));
      table.add_row({"fleet", std::to_string(workers),
                     std::to_string(threads), bench::fmt(ms),
                     std::to_string(res.stats.rounds),
                     std::to_string(res.stats.frames),
                     std::to_string(res.stats.bytes), bench::fmt(per_round),
                     std::to_string(res.stats.posts_on_wire), digest_hex,
                     match ? "yes" : "NO"});
      report.add_row()
          .field("mode", std::string("fleet"))
          .field("workers", std::uint64_t{workers})
          .field("threads", std::uint64_t{threads})
          .field("wall_ms", ms)
          .field("rounds", res.stats.rounds)
          .field("frames", res.stats.frames)
          .field("bytes", res.stats.bytes)
          .field("bytes_per_round", per_round)
          .field("posts_on_wire", res.stats.posts_on_wire)
          .field("digest", std::string(digest_hex))
          .field("match", std::uint64_t{match ? 1u : 0u});
    }
  }
  table.print();
  report.write_file();

  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: a fleet configuration diverged from the 1-process "
                 "reference\n");
    return 1;
  }
  std::printf("\nall fleet configurations byte-identical to the 1-process "
              "reference\n");
  return 0;
}
