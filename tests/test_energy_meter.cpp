// EnergyMeter integrals and their ledger mirror, including exactness of the
// run-length log against a flat list of charges and its memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "live_heap.h"
#include "obs/omniscope.h"
#include "radio/energy_meter.h"

namespace omni::radio {
namespace {

TimePoint at_s(double s) {
  return TimePoint::origin() + Duration::seconds(s);
}

/// A meter that keeps every charge as one flat record and folds and mirrors
/// them the way the meter is specified to: charges in insertion order, then
/// open levels in tag order; ledger adds clipped to the flush instant, with
/// future-dated tails held back, rounded to micro-amp-seconds per add.
class FlatMeter {
 public:
  void charge(TimePoint t0, TimePoint t1, double ma, obs::EnergyRail rail) {
    if (t1 <= t0 || ma == 0.0) return;
    segs_.push_back(Seg{t0, t1, ma, rail});
  }

  void set_level(const std::string& tag, double ma, obs::EnergyRail rail,
                 TimePoint now) {
    auto it = levels_.find(tag);
    if (it != levels_.end()) {
      charge(it->second.since, now, it->second.ma, it->second.rail);
      if (ma == 0.0) {
        levels_.erase(it);
        return;
      }
      it->second = Level{ma, now, rail};
      return;
    }
    if (ma == 0.0) return;
    levels_.emplace(tag, Level{ma, now, rail});
  }

  void flush_levels(TimePoint now) {
    for (auto& [tag, lvl] : levels_) {
      if (now <= lvl.since) continue;
      charge(lvl.since, now, lvl.ma, lvl.rail);
      lvl.since = now;
    }
    std::size_t keep = 0;
    for (Seg& p : pending_) {
      TimePoint hi = std::min(p.t1, now);
      if (hi > p.t0) {
        ledger_add(p.t0, hi, p.ma, p.rail);
        p.t0 = hi;
      }
      if (p.t1 > now) pending_[keep++] = p;
    }
    pending_.resize(keep);
    for (; mirrored_ < segs_.size(); ++mirrored_) {
      const Seg& s = segs_[mirrored_];
      TimePoint hi = std::min(s.t1, now);
      if (hi > s.t0) ledger_add(s.t0, hi, s.ma, s.rail);
      if (s.t1 > now) pending_.push_back(Seg{std::max(s.t0, now), s.t1, s.ma,
                                             s.rail});
    }
  }

  double total_mAs(TimePoint t0, TimePoint t1) const {
    double total = 0;
    auto overlap = [&](TimePoint a, TimePoint b) {
      TimePoint lo = std::max(a, t0);
      TimePoint hi = std::min(b, t1);
      return hi > lo ? (hi - lo).as_seconds() : 0.0;
    };
    for (const Seg& s : segs_) total += overlap(s.t0, s.t1) * s.ma;
    for (const auto& [tag, lvl] : levels_) {
      total += overlap(lvl.since, t1) * lvl.ma;
    }
    return total;
  }

  /// Ledger charge on `rail`, in mA*s, as EnergyLedger::rail_mAs reports it.
  double ledger_mAs(obs::EnergyRail rail) const {
    return static_cast<double>(uAs_[static_cast<std::size_t>(rail)]) / 1000.0;
  }
  /// Number of ledger adds so far; each rounds by at most 0.5 uA*s.
  std::size_t ledger_adds() const { return adds_; }

 private:
  struct Seg {
    TimePoint t0;
    TimePoint t1;
    double ma;
    obs::EnergyRail rail;
  };
  struct Level {
    double ma;
    TimePoint since;
    obs::EnergyRail rail;
  };

  void ledger_add(TimePoint t0, TimePoint t1, double ma,
                  obs::EnergyRail rail) {
    const double mAs = (t1 - t0).as_seconds() * ma;
    uAs_[static_cast<std::size_t>(rail)] += static_cast<std::int64_t>(
        mAs * 1000.0 + (mAs >= 0 ? 0.5 : -0.5));
    ++adds_;
  }

  std::vector<Seg> segs_;
  std::map<std::string, Level> levels_;
  std::size_t mirrored_ = 0;
  std::vector<Seg> pending_;
  std::array<std::int64_t, obs::kEnergyRailCount> uAs_{};
  std::size_t adds_ = 0;
};

TEST(EnergyMeterTest, IntervalChargeIntegrates) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(1), at_s(3), 100.0);  // 200 mAs
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 200.0);
  EXPECT_DOUBLE_EQ(meter.average_ma(at_s(0), at_s(10)), 20.0);
  // Query window clips the segment.
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(2), at_s(10)), 100.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(4), at_s(10)), 0.0);
}

TEST(EnergyMeterTest, OverlappingChargesAccumulate) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(0), at_s(2), 50.0);
  meter.charge(at_s(1), at_s(3), 50.0);
  EXPECT_DOUBLE_EQ(meter.average_ma(at_s(1), at_s(2)), 100.0);
}

TEST(EnergyMeterTest, ZeroOrNegativeSpanChargesIgnored) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(2), at_s(2), 100.0);
  meter.charge(at_s(3), at_s(1), 100.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 0.0);
}

TEST(EnergyMeterTest, LevelsIntegrateUntilChanged) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("wifi", 92.1);
  sim.run_for(Duration::seconds(10));
  meter.clear_level("wifi");
  sim.run_for(Duration::seconds(10));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(20)), 921.0, 1e-6);
  EXPECT_NEAR(meter.average_ma(at_s(0), at_s(20)), 46.05, 1e-6);
}

TEST(EnergyMeterTest, LevelReplacementClosesOldSegment) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("ble", 7.0);
  sim.run_for(Duration::seconds(5));
  meter.set_level("ble", 1.0);
  sim.run_for(Duration::seconds(5));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(10)), 7 * 5 + 1 * 5, 1e-6);
  EXPECT_DOUBLE_EQ(meter.level("ble"), 1.0);
}

TEST(EnergyMeterTest, OpenLevelIntegratedToQueryEnd) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("x", 10.0);
  sim.run_for(Duration::seconds(4));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(4)), 40.0, 1e-6);
}

TEST(EnergyMeterTest, LevelTotalsSumAcrossTags) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("a", 5.0);
  meter.set_level("b", 7.5);
  EXPECT_DOUBLE_EQ(meter.current_level_total(), 12.5);
  meter.clear_level("a");
  EXPECT_DOUBLE_EQ(meter.current_level_total(), 7.5);
}

// Seeded random charges, levels and flushes on a meter with an Omniscope
// attached, checked against FlatMeter: every integral is the same double and
// the ledger holds the same micro-amp-seconds at every flush point.
TEST(EnergyMeterTest, RunLengthLogMatchesFlatLogExactly) {
  constexpr NodeId kNode = 0;
  constexpr std::int64_t kBeyondU32Us = (std::int64_t{1} << 32) + 12'345;
  const std::array<obs::EnergyRail, 3> rails = {
      obs::EnergyRail::kBle, obs::EnergyRail::kWifi, obs::EnergyRail::kOther};
  const std::array<double, 5> currents = {12.5, 0.7, 92.1, -3.25, 0.0};
  const std::array<std::string, 3> tags = {"ble", "scan", "wifi"};

  sim::Simulator sim;
  obs::Omniscope scope;
  scope.attach(sim);
  scope.ensure_owner_capacity(1);
  EnergyMeter meter(sim, kNode);
  FlatMeter flat;
  std::mt19937_64 rng(20181210);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto both_charge = [&](TimePoint t0, TimePoint t1, double ma,
                         obs::EnergyRail rail) {
    meter.charge(t0, t1, ma, rail);
    flat.charge(t0, t1, ma, rail);
  };
  auto check_windows = [&] {
    const std::int64_t now = sim.now().as_micros();
    EXPECT_EQ(meter.total_mAs(TimePoint::origin(), sim.now()),
              flat.total_mAs(TimePoint::origin(), sim.now()));
    for (int w = 0; w < 16; ++w) {
      std::int64_t a = static_cast<std::int64_t>(rng() % (now + 1));
      std::int64_t b = static_cast<std::int64_t>(rng() % (now + 1));
      if (a > b) std::swap(a, b);
      const TimePoint t0 = TimePoint::from_micros(a);
      const TimePoint t1 = TimePoint::from_micros(b);
      ASSERT_EQ(meter.total_mAs(t0, t1), flat.total_mAs(t0, t1))
          << "window [" << a << ", " << b << "] us";
    }
  };
  auto flush_and_check_ledger = [&] {
    meter.flush_levels();
    flat.flush_levels(sim.now());
    for (obs::EnergyRail rail : rails) {
      ASSERT_EQ(scope.energy().rail_mAs(kNode, rail), flat.ledger_mAs(rail));
    }
    const double total = meter.total_mAs(TimePoint::origin(), sim.now());
    EXPECT_NEAR(scope.energy().total_mAs(kNode), total,
                0.5e-3 * static_cast<double>(flat.ledger_adds()) + 1e-9);
  };

  TimePoint beacon = sim.now();
  for (int step = 0; step < 6000; ++step) {
    if (step == 2000) {
      // One span longer than 2^32 us.
      both_charge(sim.now(), sim.now() + Duration::micros(kBeyondU32Us), 0.7,
                  obs::EnergyRail::kWifi);
    }
    if (step == 3000) {
      // One start gap longer than 2^32 us between two same-shape charges,
      // with a level open across it.
      meter.set_level("wifi", 92.1, obs::EnergyRail::kWifi);
      flat.set_level("wifi", 92.1, obs::EnergyRail::kWifi, sim.now());
      both_charge(sim.now(), sim.now() + Duration::millis(2), 12.5,
                  obs::EnergyRail::kBle);
      sim.run_for(Duration::micros(kBeyondU32Us));
      both_charge(sim.now(), sim.now() + Duration::millis(2), 12.5,
                  obs::EnergyRail::kBle);
      beacon = sim.now() + Duration::millis(500);
    }
    const TimePoint now = sim.now();
    const obs::EnergyRail rail = rails[pick(rails.size())];
    const double ma = currents[pick(currents.size())];
    switch (pick(10)) {
      case 0:
      case 1:
      case 2:  // periodic in-order advertising events
        if (beacon <= now) {
          both_charge(beacon, beacon + Duration::millis(2), 12.5,
                      obs::EnergyRail::kBle);
          beacon = beacon + Duration::millis(500);
        }
        break;
      case 3: {  // out-of-order, overlapping, possibly future-dated
        const TimePoint t0 = std::max(
            TimePoint::origin(),
            now - Duration::micros(
                      static_cast<std::int64_t>(rng() % 3'000'000)));
        if (rng() % 2 == 0) {  // an advertising event's shape, dated back
          both_charge(t0, t0 + Duration::millis(2), 12.5,
                      obs::EnergyRail::kBle);
        } else {
          both_charge(t0, t0 + Duration::micros(1 + rng() % 4'000'000), ma,
                      rail);
        }
        break;
      }
      case 4:  // zero and negative spans
        both_charge(now, now - Duration::micros(
                                   static_cast<std::int64_t>(rng() % 2'000)),
                    ma, rail);
        break;
      case 5:
      case 6: {  // levels set, replaced and cleared
        const std::string& tag = tags[pick(tags.size())];
        meter.set_level(tag, ma, rail);
        flat.set_level(tag, ma, rail, now);
        break;
      }
      case 7:
        flush_and_check_ledger();
        break;
      default:
        sim.run_for(
            Duration::micros(static_cast<std::int64_t>(rng() % 700'000)));
        break;
    }
    if (step % 100 == 0) check_windows();
  }
  check_windows();
  flush_and_check_ledger();
  EXPECT_EQ(meter.average_ma(TimePoint::origin(), sim.now()),
            flat.total_mAs(TimePoint::origin(), sim.now()) /
                (sim.now() - TimePoint::origin()).as_seconds());
}

// 100k identical periodic charges cost their 4-byte start gaps, not 32-byte
// flat records (which would need at least 3.2 MB), and still integrate
// exactly like the flat log.
TEST(EnergyMeterTest, PeriodicChargesStayUnderOneMegabyte) {
  constexpr std::int64_t kCharges = 100'000;
  auto start = [](std::int64_t i) {
    return TimePoint::from_micros(i * 500'000);
  };
  sim::Simulator sim;
  EnergyMeter meter(sim);
  const std::int64_t before = g_live_heap_bytes.load();
  for (std::int64_t i = 0; i < kCharges; ++i) {
    meter.charge(start(i), start(i) + Duration::millis(2), 12.5,
                 obs::EnergyRail::kBle);
  }
  EXPECT_LT(g_live_heap_bytes.load() - before, std::int64_t{1} << 20);

  FlatMeter flat;
  for (std::int64_t i = 0; i < kCharges; ++i) {
    flat.charge(start(i), start(i) + Duration::millis(2), 12.5,
                obs::EnergyRail::kBle);
  }
  for (std::int64_t i : {std::int64_t{0}, std::int64_t{1}, kCharges / 3,
                         kCharges - 1, kCharges}) {
    const TimePoint t1 = start(i) + Duration::millis(1);
    EXPECT_EQ(meter.total_mAs(TimePoint::origin(), t1),
              flat.total_mAs(TimePoint::origin(), t1));
  }
}

TEST(BusyChargerTest, ChargesRequestedActiveTime) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  double charged = charger.charge_active(at_s(0), at_s(10), 2.0);
  EXPECT_DOUBLE_EQ(charged, 2.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 200.0);
}

TEST(BusyChargerTest, CapsAtWallTime) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  // Asking for 50 active seconds inside a 10 s window charges only 10.
  double charged = charger.charge_active(at_s(0), at_s(10), 50.0);
  EXPECT_DOUBLE_EQ(charged, 10.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 1000.0);
}

TEST(BusyChargerTest, ConcurrentFlowsNeverDoubleCharge) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  // Two "flows" each claim 8 active seconds over the same 10 s window: the
  // watermark lets the second one charge only the 2 s remainder.
  EXPECT_DOUBLE_EQ(charger.charge_active(at_s(0), at_s(10), 8.0), 8.0);
  EXPECT_DOUBLE_EQ(charger.charge_active(at_s(0), at_s(10), 8.0), 2.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 1000.0);
}

TEST(BusyChargerTest, DisjointWindowsAreIndependent) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 10.0);
  charger.charge_active(at_s(0), at_s(1), 1.0);
  charger.charge_active(at_s(5), at_s(6), 1.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 20.0);
}

}  // namespace
}  // namespace omni::radio
