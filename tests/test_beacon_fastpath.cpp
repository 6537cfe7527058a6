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

#include "net/testbed.h"
#include "obs/omniscope.h"
#include "omni/omni_node.h"

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

/// Every node publishes one context — 1 byte on even nodes (the memo's
/// inline way), 16 bytes on odd ones (its spill way) — and logs every
/// context it receives into `logs[i]`.
void publish_contexts(Fleet& f, std::vector<ContextLog>& logs) {
  logs.assign(f.nodes.size(), {});
  sim::Simulator& sim = f.bed->simulator();
  for (std::size_t i = 0; i < f.nodes.size(); ++i) {
    OmniManager& m = f.nodes[i]->manager();
    m.request_context([&sim, log = &logs[i]](OmniAddress source,
                                             const Bytes& payload) {
      log->emplace_back(source, payload, sim.now());
    });
    m.add_context(ContextParams{},
                  Bytes(i % 2 == 0 ? 1 : 16, static_cast<std::uint8_t>(i)),
                  nullptr);
  }
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

}  // namespace
}  // namespace omni
