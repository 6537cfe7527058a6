// Worker endpoint of a distributed run.
//
// A worker is a full replica of the scenario that owns a slice of the node
// owners (owner % nworkers == worker id). Each conservative window it
// blocks until the coordinator's WindowGrant arrives, verifies the grant
// matches the window its own deterministic engine computed (bounds and
// cumulative counters — any disagreement is a divergence, reported before
// a single event of the window runs), executes, and answers with a
// WindowDone carrying the canonical post records of its authoritative
// owners. At end of run it cross-checks the coordinator's Fin summary
// against its own and replies Finished.
//
// Workers never write artifact files (snapshots, checkpoints, traces) —
// the captures still execute, because they are part of the deterministic
// event schedule, but only the coordinator touches the filesystem.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "common/result.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "sim/simulator.h"

namespace omni::dist {

class Worker : public sim::DistDriver {
 public:
  Worker(EndpointConfig cfg, Transport link);

  /// Parse + execute the scenario as worker cfg.worker_id. The report this
  /// replica produces is digested for verification, never printed.
  Status run();

  /// This replica's whole-run summary (valid after a successful run).
  const RunSummary& summary() const { return summary_; }
  const DistStats& stats() const { return stats_; }

  bool window_open(std::uint64_t round, TimePoint t, TimePoint w) override;
  bool window_close(std::uint64_t round,
                    std::span<const sim::PostRecord> posts) override;

 private:
  Status handshake(net::Testbed& bed);
  Status finish(net::Testbed& bed);
  /// Record the first fatal diagnostic and best-effort send it upstream.
  bool fail(const std::string& message);

  EndpointConfig cfg_;
  Transport link_;
  net::Testbed* bed_ = nullptr;
  std::ostringstream report_;
  std::string error_;
  WindowBounds granted_;  ///< bounds the coordinator granted this round
  RunSummary summary_;
  DistStats stats_;
};

}  // namespace omni::dist
