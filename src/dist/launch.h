// Local fleet launcher: fork coordinator + N workers from one scenario.
//
// run_local_fleet builds one socketpair per worker, forks the workers
// (before any engine thread exists — fork and threads do not mix), runs the
// coordinator in the calling process, and reaps the children. The tool
// (tools/run_distributed), the bench (bench/bench_distributed), and the
// tests all go through this one path.
//
// run_single executes the same scenario in-process with the same
// end-of-run summary hook, producing the 1-process reference that the
// acceptance criterion compares distributed runs against.
#pragma once

#include <string>

#include "common/result.h"
#include "dist/coordinator.h"

namespace omni::dist {

/// Outcome of a verified distributed run (coordinator's view).
struct FleetResult {
  std::string report;  ///< the coordinator replica's report stream
  RunSummary summary;  ///< whole-run summary every process agreed on
  DistStats stats;     ///< coordinator-side wire totals
};

/// Fork cfg.nworkers workers, run the coordinator here, verify every round
/// and the end-of-run summaries, reap the children. cfg.worker_id is
/// ignored (assigned per child); cfg.capture_path applies to the
/// coordinator's link to worker 0; cfg.die_at_round is armed on worker 0
/// only. Any divergence, dead worker, or child failure is the error.
Result<FleetResult> run_local_fleet(const EndpointConfig& cfg);

/// Outcome of the 1-process reference run.
struct SingleResult {
  std::string report;
  RunSummary summary;
};

/// Run the scenario in-process (no protocol) with the identical summary
/// computation. A distributed run is correct iff report and
/// summary.state_digest match this.
Result<SingleResult> run_single(const std::string& scenario_text,
                                unsigned threads = 1, bool observe = false);

/// Parse a --workers or --threads value. The whole string must be a
/// decimal integer in [1, sim::Simulator::kMaxThreads]; anything else
/// (empty, signs, spaces, trailing junk, 0, overflowing or absurd counts)
/// is an error naming the offending text — the tools turn it into usage
/// + exit 2.
Result<std::uint32_t> parse_count(const std::string& text);

}  // namespace omni::dist
