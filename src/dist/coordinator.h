// Coordinator endpoint of a distributed run.
//
// The coordinator is a full replica of the scenario — it runs the serial
// global phase (mesh, mobility, scenario instructions, fault actuation,
// owner kGlobalOwner) exactly like a 1-process run and *additionally*
// drives the round protocol: before each conservative window executes it
// broadcasts a WindowGrant to every worker, and after the barrier it
// collects each worker's WindowDone and byte-compares the worker's
// authoritative post records and counters against its own merge. The
// coordinator's replica is the one that produces the report stream, so a
// fleet whose every round verified clean is *proven* — not assumed — to
// have produced the 1-process report.
//
// Failure modes are loud by design: a worker that dies mid-window surfaces
// as a torn frame/closed connection naming the worker and round; a worker
// that diverged surfaces as a record/counter mismatch naming the round and
// the first divergent record.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "sim/simulator.h"

namespace omni::dist {

/// Configuration shared by both endpoint kinds. The launcher builds one per
/// process from the command line.
struct EndpointConfig {
  std::string scenario_text;  ///< the full scenario source, verbatim
  unsigned threads = 1;       ///< engine threads *inside* this process
  std::uint32_t nworkers = 1;
  std::uint32_t worker_id = 0;  ///< meaningful for workers only
  bool observe = false;         ///< attach an Omniscope to the replica
  std::string capture_path;     ///< tee frames to this .ofrs ("" = off)
  /// Test knob (workers only): _exit(41) right before sending the
  /// WindowDone of this round index — simulates a shard host dying
  /// mid-window. 0 disables.
  std::uint64_t die_at_round = 0;
};

/// Wire-level totals of one endpoint's run, summed over its links.
struct DistStats {
  std::uint64_t rounds = 0;         ///< windows granted/acknowledged
  std::uint64_t frames = 0;         ///< frames sent + received
  std::uint64_t bytes = 0;          ///< bytes sent + received (with prefixes)
  std::uint64_t posts_on_wire = 0;  ///< post records carried by WindowDones
};

class Coordinator : public sim::DistDriver {
 public:
  /// `links[i]` talks to worker i; there must be exactly cfg.nworkers.
  Coordinator(EndpointConfig cfg, std::vector<Transport> links);

  /// Parse + execute the scenario as the coordinator replica, writing the
  /// verified report stream to `out` on success. Any handshake, per-round,
  /// or end-of-run divergence is the returned error.
  Status run(std::ostream& out);

  /// Whole-run summary (valid after a successful run); summary().state_digest
  /// is the number the acceptance criterion compares against 1-process runs.
  const RunSummary& summary() const { return summary_; }
  const DistStats& stats() const { return stats_; }

  bool window_open(std::uint64_t round, TimePoint t, TimePoint w) override;
  bool window_close(std::uint64_t round,
                    std::span<const sim::PostRecord> posts) override;

 private:
  Status handshake(net::Testbed& bed);
  Status finish(net::Testbed& bed);
  /// Record the first fatal diagnostic and best-effort notify every worker.
  bool fail(const std::string& message);

  EndpointConfig cfg_;
  std::vector<Transport> links_;
  net::Testbed* bed_ = nullptr;  ///< valid between on_ready and run() end
  std::ostringstream report_;
  std::string error_;
  WindowBounds granted_;  ///< bounds of the round currently executing
  RunSummary summary_;
  DistStats stats_;
};

}  // namespace omni::dist
