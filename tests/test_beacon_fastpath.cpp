// Beacon fast path: deterministic perf oracles (counter-based, never
// wall-clock) plus equivalence and invalidation checks for the receive-side
// frame memo. See DESIGN.md "Beacon fast path".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/link_frame.h"
#include "net/testbed.h"
#include "obs/omniscope.h"
#include "omni/ble_tech.h"
#include "omni/omni_node.h"
#include "omni/packed_struct.h"

namespace omni {
namespace {

struct Fleet {
  std::unique_ptr<net::Testbed> bed;
  std::vector<std::unique_ptr<OmniNode>> nodes;

  std::uint64_t sum(std::uint64_t ManagerStats::*field) const {
    std::uint64_t total = 0;
    for (const auto& n : nodes) total += n->manager().stats().*field;
    return total;
  }
};

/// Constant-density grid (the bench_scale layout): 25 m spacing gives every
/// node BLE neighbors without anyone hearing the whole field.
Fleet make_grid(std::size_t n, unsigned threads, bool memo,
                bool observability, const Bytes& context_key = {}) {
  Fleet f;
  // Sealed beacons outgrow the legacy 31-byte advertisement, so keyed
  // fleets advertise with Bluetooth 5 extended advertising.
  radio::Calibration cal = radio::Calibration::defaults();
  cal.ble_extended_advertising = !context_key.empty();
  f.bed = std::make_unique<net::Testbed>(42, cal, threads);
  if (observability) {
    f.bed->enable_observability(/*ring_capacity=*/1 << 14, /*detail=*/false);
  }
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  OmniNodeOptions options;
  options.manager.beacon_rx_memo = memo;
  options.manager.context_key = context_key;
  f.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::Device& dev = f.bed->add_device(
        "n" + std::to_string(i),
        {static_cast<double>(i % side) * 25.0,
         static_cast<double>(i / side) * 25.0});
    f.nodes.push_back(
        std::make_unique<OmniNode>(dev, f.bed->mesh(), options));
  }
  for (auto& node : f.nodes) node->start();
  return f;
}

TEST(BeaconFastPathTest, PerfOracle250Nodes) {
  // Deterministic perf oracle: instead of timing anything, assert the
  // counters that make the fast path fast. Steady-state beacons are
  // byte-identical repeats, so almost every reception after the first from
  // a given (tech, sender) must skip the decode, and the sender-side frame
  // cache must hold encodes to a handful per node for 10 s of beaconing.
  Fleet f = make_grid(250, /*threads=*/1, /*memo=*/true,
                      /*observability=*/true);
  f.bed->simulator().run_for(Duration::seconds(10));

  const std::uint64_t beacons = f.sum(&ManagerStats::beacons_received);
  const std::uint64_t skips = f.sum(&ManagerStats::beacon_decode_skips);
  const std::uint64_t encodes = f.sum(&ManagerStats::beacon_encodes);
  const std::uint64_t sweeps = f.sum(&ManagerStats::peer_expire_sweeps);
  ASSERT_GT(beacons, 0u);
  EXPECT_GT(skips, 0u) << "the receive memo never fired";
  EXPECT_GT(skips * 2, beacons)
      << "steady-state beacons should mostly be byte-identical repeats";
  EXPECT_LT(encodes * 8, beacons)
      << "the sender frame cache should re-encode rarely, not per beacon";
  EXPECT_GT(sweeps, 0u) << "the amortized peer-expiry sweep never ran";

  // The Omniscope mirrors of the same counters must agree with the
  // ManagerStats sums (both stay live in this configuration).
  std::string dump = f.bed->observability()->metrics_dump();
  EXPECT_NE(dump.find("mgr.beacon_decode_skips"), std::string::npos);
  EXPECT_NE(dump.find("mgr.peer_expire_sweeps"), std::string::npos);
}

TEST(BeaconFastPathTest, MetricsDigestInvariantAcrossThreadCounts) {
  // The fast path must not perturb PR 2 determinism: the full metrics dump
  // (every counter on every owner, fast-path counters included) is
  // byte-identical at any thread count.
  auto digest = [](unsigned threads) {
    Fleet f = make_grid(100, threads, /*memo=*/true, /*observability=*/true);
    f.bed->simulator().run_for(Duration::seconds(6));
    return f.bed->observability()->metrics_dump();
  };
  std::string sequential = digest(1);
  EXPECT_NE(sequential.find("mgr.beacon_decode_skips"), std::string::npos);
  EXPECT_EQ(sequential, digest(2));
  EXPECT_EQ(sequential, digest(8));
}

/// One node's context receptions: (source, payload, time).
using ContextLog = std::vector<std::tuple<OmniAddress, Bytes, TimePoint>>;

std::vector<OmniManager*> managers_of(Fleet& f) {
  std::vector<OmniManager*> out;
  for (auto& n : f.nodes) out.push_back(&n->manager());
  return out;
}

/// Every manager logs every context it receives into `logs[i]`.
void log_contexts(sim::Simulator& sim, const std::vector<OmniManager*>& ms,
                  std::vector<ContextLog>& logs) {
  logs.assign(ms.size(), {});
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i]->request_context([&sim, log = &logs[i]](OmniAddress source,
                                                  const Bytes& payload) {
      log->emplace_back(source, payload, sim.now());
    });
  }
}

/// Every node publishes one context — 1 byte on even nodes (the memo's
/// inline way), 16 bytes on odd ones (its spill way) — and logs every
/// context it receives into `logs[i]`.
void publish_contexts(sim::Simulator& sim, const std::vector<OmniManager*>& ms,
                      std::vector<ContextLog>& logs) {
  log_contexts(sim, ms, logs);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i]->add_context(
        ContextParams{},
        Bytes(i % 2 == 0 ? 1 : 16, static_cast<std::uint8_t>(i)), nullptr);
  }
}

void publish_contexts(Fleet& f, std::vector<ContextLog>& logs) {
  publish_contexts(f.bed->simulator(), managers_of(f), logs);
}

/// Every ManagerStats field except beacon_decode_skips, the one field the
/// memo exists to move.
auto observable_stats(const ManagerStats& s) {
  return std::make_tuple(
      s.packets_received, s.sealed_drops, s.beacons_received,
      s.context_received, s.data_received, s.data_sends, s.data_failovers,
      s.context_failovers, s.engagements, s.disengagements, s.beacon_encodes,
      s.beacon_frames_cached, s.peer_expire_sweeps, s.relayed_out,
      s.relayed_in, s.deadline_failovers, s.beacon_rearms, s.quarantines,
      s.overload_rejections, s.beacons_suppressed, s.scan_windows_skipped);
}

/// Two runs of one scenario, memo on and memo off, reached the same
/// protocol state: per node, the same counters but beacon_decode_skips, the
/// same peers, and the same context callbacks at the same instants.
void expect_same_outcome(const std::vector<OmniManager*>& on,
                         const std::vector<OmniManager*>& off,
                         const std::vector<ContextLog>& on_log,
                         const std::vector<ContextLog>& off_log) {
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(observable_stats(on[i]->stats()),
              observable_stats(off[i]->stats()))
        << "node " << i;
    EXPECT_EQ(on[i]->peer_table().peers(), off[i]->peer_table().peers())
        << "node " << i;
    EXPECT_EQ(on_log[i], off_log[i]) << "node " << i;
  }
}

std::uint64_t decoded(const OmniManager& m) {
  return m.stats().packets_received - m.stats().beacon_decode_skips;
}

TEST(BeaconFastPathTest, MemoOffIsObservablyEquivalent) {
  // The memo is an ablation switch, not a semantics switch: with it off the
  // same scenario must land in the same protocol state — same peer tables,
  // same counters, the same context callbacks at the same instants — just
  // without the skips. Covered for plaintext and for sealed frames, with
  // inline and spilled context payloads in both.
  for (const Bytes& key : {Bytes{}, Bytes{'t', 'o', 'u', 'r'}}) {
    SCOPED_TRACE(key.empty() ? "plaintext" : "sealed");
    Fleet on = make_grid(64, 1, /*memo=*/true, /*observability=*/false, key);
    Fleet off = make_grid(64, 1, /*memo=*/false, /*observability=*/false, key);
    std::vector<ContextLog> on_log;
    std::vector<ContextLog> off_log;
    publish_contexts(on, on_log);
    publish_contexts(off, off_log);
    on.bed->simulator().run_for(Duration::seconds(8));
    off.bed->simulator().run_for(Duration::seconds(8));

    EXPECT_GT(on.sum(&ManagerStats::beacon_decode_skips), 0u);
    EXPECT_EQ(off.sum(&ManagerStats::beacon_decode_skips), 0u);
    EXPECT_GT(on.sum(&ManagerStats::context_received), 0u);
    EXPECT_GT(on.sum(&ManagerStats::beacons_received), 0u);
    for (std::size_t i = 0; i < on.nodes.size(); ++i) {
      const OmniManager& a = on.nodes[i]->manager();
      const OmniManager& b = off.nodes[i]->manager();
      EXPECT_EQ(observable_stats(a.stats()), observable_stats(b.stats()))
          << "node " << i;
      EXPECT_EQ(a.peer_table().peers(), b.peer_table().peers())
          << "node " << i;
      EXPECT_EQ(on_log[i], off_log[i]) << "node " << i;
    }
  }
}

TEST(BeaconFastPathTest, RotatedAddressAfterCrashInvalidatesMemo) {
  // PR 3 crash/restart with BLE private-address rotation: the rotated
  // sender's beacons arrive from a new link address with new frame bytes,
  // so the memo must miss and the fresh mapping must be learned — a stale
  // memo hit would keep re-recording the dead address.
  net::Testbed bed(71);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.manager.beacon_rx_memo = true;
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);

  auto& plan = bed.fault_plan();
  sim::FaultPlan::Crash crash;
  crash.node = db.node();
  crash.at = TimePoint::origin() + Duration::seconds(5);
  crash.restart = TimePoint::origin() + Duration::seconds(8);
  crash.rotate_addresses = true;
  plan.add_crash(crash);
  bed.schedule_faults();

  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));
  const PeerEntry* entry = a.manager().peer_table().find(b.address());
  ASSERT_NE(entry, nullptr);
  auto ble_it = entry->techs.find(Technology::kBle);
  ASSERT_NE(ble_it, entry->techs.end());
  const BleAddress before = std::get<BleAddress>(ble_it->second.address);
  EXPECT_GT(a.manager().stats().beacon_decode_skips, 0u)
      << "repeats before the crash should hit the memo";

  bed.simulator().run_for(Duration::seconds(12));
  const BleAddress after = db.ble().address();
  ASSERT_NE(after, before) << "the reboot rotated the BLE address";

  entry = a.manager().peer_table().find(b.address());
  ASSERT_NE(entry, nullptr) << "the restarted node was re-learned";
  ble_it = entry->techs.find(Technology::kBle);
  ASSERT_NE(ble_it, entry->techs.end());
  EXPECT_EQ(std::get<BleAddress>(ble_it->second.address), after)
      << "a stale memo hit would have pinned the old address";

  // The relearned mapping is usable end to end.
  StatusCode code = StatusCode::kSendDataFailure;
  a.manager().send_data({b.address()}, Bytes{0x42},
                        [&](StatusCode sc, const ResponseInfo&) { code = sc; });
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(code, StatusCode::kSendDataSuccess);
}

TEST(BeaconFastPathTest, ContextChangesMissOnceAndRepeatsHit) {
  // Node 0's context goes A -> B -> A while every other node keeps its
  // own. Each change is new bytes under a new stamp — the return to A
  // included — so each neighbor of node 0 decodes exactly one more frame
  // per change than in a run where node 0 never changes, and hits on every
  // repeat. The memo must not move any observable outcome either.
  constexpr std::size_t kNodes = 16;
  struct Run {
    Fleet f;
    std::vector<ContextLog> logs;
  };
  auto run = [](bool memo, bool change) {
    Run r{make_grid(kNodes, 1, memo, /*observability=*/false), {}};
    sim::Simulator& sim = r.f.bed->simulator();
    const std::vector<OmniManager*> ms = managers_of(r.f);
    log_contexts(sim, ms, r.logs);
    for (std::size_t i = 1; i < kNodes; ++i) {
      ms[i]->add_context(ContextParams{},
                         Bytes{static_cast<std::uint8_t>(i)}, nullptr);
    }
    const Bytes a{0xa, 0xa};
    const Bytes b{0xb, 0xb, 0xb, 0xb, 0xb, 0xb, 0xb, 0xb};  // spill way
    auto id = std::make_shared<ContextId>(kInvalidContext);
    ms[0]->add_context(ContextParams{}, a,
                       [id](StatusCode, const ResponseInfo& info) {
                         *id = info.context_id;
                       });
    sim.run_for(Duration::seconds(3));
    EXPECT_NE(*id, kInvalidContext);
    for (const Bytes* next : {&b, &a}) {
      if (change) ms[0]->update_context(*id, ContextParams{}, *next, nullptr);
      sim.run_for(Duration::seconds(3));
    }
    return r;
  };
  Run on = run(true, true);
  Run off = run(false, true);
  Run still = run(true, false);
  expect_same_outcome(managers_of(on.f), managers_of(off.f), on.logs,
                      off.logs);

  const double range = on.f.bed->calibration().ble_range_m;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(kNodes))));
  std::size_t neighbors = 0;
  for (std::size_t i = 1; i < kNodes; ++i) {
    const double x = static_cast<double>(i % side) * 25.0;
    const double y = static_cast<double>(i / side) * 25.0;
    const bool hears_node0 = std::hypot(x, y) <= range;
    neighbors += hears_node0;
    const OmniManager& m = on.f.nodes[i]->manager();
    EXPECT_EQ(decoded(m), decoded(still.f.nodes[i]->manager()) +
                              (hears_node0 ? 2u : 0u))
        << "node " << i;
    EXPECT_GT(m.stats().beacon_decode_skips, 0u) << "node " << i;
  }
  EXPECT_GT(neighbors, 0u);
  EXPECT_EQ(decoded(on.f.nodes[0]->manager()),
            decoded(still.f.nodes[0]->manager()));
}

/// Managers driven straight from tests keep the default global owner, so
/// their node's BLE deliveries never run in the manager's owner context:
/// the direct stamped check and the inline sink both decline, and every
/// frame goes through the receive queue.
struct GlobalFleet {
  std::unique_ptr<net::Testbed> bed;
  std::vector<std::unique_ptr<BleTech>> techs;
  std::vector<std::unique_ptr<OmniManager>> managers;

  std::vector<OmniManager*> all() {
    std::vector<OmniManager*> out;
    for (auto& m : managers) out.push_back(m.get());
    return out;
  }
};

GlobalFleet make_global_grid(std::size_t n, bool memo) {
  GlobalFleet f;
  f.bed = std::make_unique<net::Testbed>(42);
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  ManagerOptions options;
  options.beacon_rx_memo = memo;
  for (std::size_t i = 0; i < n; ++i) {
    net::Device& dev = f.bed->add_device(
        "g" + std::to_string(i),
        {static_cast<double>(i % side) * 25.0,
         static_cast<double>(i / side) * 25.0});
    f.techs.push_back(std::make_unique<BleTech>(dev.ble()));
    f.managers.push_back(std::make_unique<OmniManager>(
        f.bed->simulator(), dev.omni_address(), options));
    f.managers.back()->add_technology(*f.techs.back());
  }
  for (auto& m : f.managers) m->start();
  return f;
}

TEST(BeaconFastPathTest, DeclinedDirectCheckStillMatchesMemoOff) {
  GlobalFleet on = make_global_grid(25, /*memo=*/true);
  GlobalFleet off = make_global_grid(25, /*memo=*/false);
  std::vector<ContextLog> on_log;
  std::vector<ContextLog> off_log;
  publish_contexts(on.bed->simulator(), on.all(), on_log);
  publish_contexts(off.bed->simulator(), off.all(), off_log);
  on.bed->simulator().run_for(Duration::seconds(8));
  off.bed->simulator().run_for(Duration::seconds(8));

  std::uint64_t skips = 0;
  for (OmniManager* m : on.all()) skips += m->stats().beacon_decode_skips;
  EXPECT_GT(skips, 0u) << "queued stamped frames must still hit the memo";
  EXPECT_GT(on.all()[0]->stats().context_received, 0u);
  expect_same_outcome(on.all(), off.all(), on_log, off_log);
}

TEST(BeaconFastPathTest, UnstampedFrameDisplacesTheMemoWay) {
  // A decodable frame that arrives unstamped — here a datagram burst from
  // node 0's own radio carrying a context frame, the shape a corrupted
  // copy that still decodes also has — must overwrite node 0's context
  // way. If it left the old stamp in place, node 0's next advertisement
  // would hit and replay the datagram's payload instead of its own.
  auto run = [](bool memo, std::vector<ContextLog>& logs) {
    Fleet f = make_grid(9, 1, memo, /*observability=*/false);
    publish_contexts(f, logs);
    sim::Simulator& sim = f.bed->simulator();
    sim.run_for(Duration::seconds(3));
    const Bytes packed =
        PackedStruct::context(f.nodes[0]->address(), Bytes{0xee}).encode();
    EXPECT_TRUE(f.bed->device(0)
                    .ble()
                    .send_datagram(frame_broadcast(packed), nullptr)
                    .is_ok());
    sim.run_for(Duration::seconds(3));
    return f;
  };
  std::vector<ContextLog> on_log;
  std::vector<ContextLog> off_log;
  Fleet on = run(true, on_log);
  Fleet off = run(false, off_log);
  std::size_t heard = 0;
  for (const ContextLog& log : on_log) {
    for (const auto& entry : log) heard += std::get<1>(entry) == Bytes{0xee};
  }
  EXPECT_GT(heard, 0u) << "the datagram reached node 0's neighbors";
  expect_same_outcome(managers_of(on), managers_of(off), on_log, off_log);
}

TEST(BeaconFastPathTest, CorruptedFleetKeepsTheDigestMemoSkipCount) {
  // Frames corrupted in flight carry no stamp; the few whose damaged link
  // byte still unframes reach the decoder like any unstamped frame. The
  // skip count below was recorded when ways held content digests; every
  // perfbench digest folds this counter.
  auto run = [](bool memo, std::vector<ContextLog>& logs) {
    Fleet f = make_grid(64, 1, memo, /*observability=*/false);
    sim::FaultPlan::LinkFault fault;
    fault.radio = sim::FaultRadio::kBle;
    fault.corrupt = 0.05;
    f.bed->fault_plan().add_link_fault(fault);
    publish_contexts(f, logs);
    f.bed->simulator().run_for(Duration::seconds(8));
    return f;
  };
  std::vector<ContextLog> on_log;
  std::vector<ContextLog> off_log;
  Fleet on = run(true, on_log);
  Fleet off = run(false, off_log);
  EXPECT_EQ(on.sum(&ManagerStats::beacon_decode_skips), 9946u);
  expect_same_outcome(managers_of(on), managers_of(off), on_log, off_log);
}

}  // namespace
}  // namespace omni
