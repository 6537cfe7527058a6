// Per-device energy accounting.
//
// Reproduces what the paper's USB power meter measured: instantaneous current
// draw integrated over time. Two charge styles:
//
//   * interval charges — a known draw over a known span (a WiFi scan, a BLE
//     advertising event, a multicast burst);
//   * levels — open-ended draws that persist until changed (WiFi standby,
//     BLE scanning duty), keyed by tag.
//
// Reported values follow the paper's convention: average mA over a window,
// optionally minus the WiFi-standby floor (which is how the paper's Table 4
// produces a *negative* value for the WiFi-off State-of-the-Practice row).
//
// Every charge is kept in an exact run-length log: consecutive charges of
// one shape (duration, current, rail) form a run stored once, and each
// charge in a run costs only the u32 microsecond gap to the previous one's
// start. A device beaconing on a fixed period thus logs 4 bytes per
// advertising event. Queries replay the charges in insertion order with the
// same integer endpoints and the same fold, so every integral is the double
// a flat list of charges would give.
//
// Every charge carries an obs::EnergyRail (which radio the draw belongs to).
// When an Omniscope is attached to the simulator and the meter knows its
// node, charges are mirrored into the scope's energy ledger, making per-node
// per-technology totals queryable as metrics. Mirroring is batched: charge()
// only logs; flush_levels() (Testbed calls it at every report or export)
// replays the charges logged since the last flush from a saved cursor, clips
// them to the current instant, and feeds them to the ledger, so ledger totals
// always equal total_mAs(origin, now) at a flush point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "obs/energy_ledger.h"
#include "sim/simulator.h"

namespace omni::obs {
class Omniscope;
}

namespace omni::radio {

class EnergyMeter {
 public:
  explicit EnergyMeter(sim::Simulator& sim, NodeId node = kInvalidNode)
      : sim_(sim), node_(node) {}
  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Charge `ma` over [t0, t1). Out-of-order and overlapping charges are
  /// fine; they accumulate.
  void charge(TimePoint t0, TimePoint t1, double ma,
              obs::EnergyRail rail = obs::EnergyRail::kOther);

  /// Charge `ma` for `d` starting now.
  void charge_for(Duration d, double ma,
                  obs::EnergyRail rail = obs::EnergyRail::kOther) {
    charge(sim_.now(), sim_.now() + d, ma, rail);
  }

  /// Set an open-ended draw for `tag` starting now (replaces any previous
  /// level under the same tag, closing it at the current instant).
  void set_level(const std::string& tag, double ma,
                 obs::EnergyRail rail = obs::EnergyRail::kOther);

  /// Remove the open-ended draw for `tag`.
  void clear_level(const std::string& tag) { set_level(tag, 0.0); }

  /// Current draw of an open level (0 when unset).
  double level(const std::string& tag) const;

  /// Sum of all open levels right now.
  double current_level_total() const;

  /// Close every open level at the current instant and immediately reopen
  /// it. The meter's integrals are unchanged; the closed spans flow into the
  /// attached energy ledger so its totals match total_mAs up to now.
  void flush_levels();

  /// Total charge (mA*s) accrued in [t0, t1]; open levels are integrated up
  /// to t1 (t1 should not exceed the simulator's current time).
  double total_mAs(TimePoint t0, TimePoint t1) const;

  /// Average current over [t0, t1] in mA.
  double average_ma(TimePoint t0, TimePoint t1) const;

  sim::Simulator& simulator() { return sim_; }
  NodeId node() const { return node_; }

 private:
  /// Consecutive charges of one shape: same duration, same current (bit for
  /// bit) and same rail, each starting no earlier than the one before and
  /// less than 2^32 us after it. The run's first charge starts at `first`;
  /// charge k > 0 starts deltas_[...] us after charge k - 1.
  struct Run {
    TimePoint first;
    Duration dur;
    double ma;
    std::uint32_t count;  ///< charges in the run, >= 1
    obs::EnergyRail rail;
  };
  // A log in which every charge opens its own run costs one header per
  // charge, as much as a flat (t0, t1, ma, rail) record.
  static_assert(sizeof(Run) == 32);
  /// A position in the log: the next charge to replay is charge `pos` of
  /// runs_[run]; `delta` indexes the next unread gap in deltas_ and `start`
  /// is the start of the charge replayed last.
  struct Cursor {
    std::size_t run = 0;
    std::uint32_t pos = 0;
    std::size_t delta = 0;
    TimePoint start;
  };
  struct Level {
    double ma = 0;
    TimePoint since;
    obs::EnergyRail rail = obs::EnergyRail::kOther;
  };
  /// The not-yet-elapsed tail of a future-dated charge, awaiting mirroring
  /// into the ledger once virtual time catches up (see flush_ledger()).
  struct Pending {
    TimePoint t0;
    TimePoint t1;
    double ma;
    obs::EnergyRail rail;
  };

  /// Call f(t0, t1, ma, rail) for every charge from `c` to the end of the
  /// log in insertion order, leaving `c` on the last run so charges appended
  /// to it later are replayed by the next call.
  template <class F>
  void replay(Cursor& c, F&& f) const;
  bool ledger_active() const;
  void ledger_add(obs::Omniscope& sc, std::size_t lane, TimePoint t0,
                  TimePoint t1, double ma, obs::EnergyRail rail);
  /// Mirror charges logged since the last flush into the attached energy
  /// ledger, clipped to `now` (called by flush_levels()).
  void flush_ledger(TimePoint now);

  sim::Simulator& sim_;
  NodeId node_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> deltas_;  ///< one per charge after a run's first
  TimePoint last_start_;               ///< start of the last logged charge
  std::map<std::string, Level> levels_;
  std::vector<Pending> pending_;
  Cursor mirrored_;  ///< charges before it are mirrored into the ledger
};

/// Converts bulk traffic into capped radio-active time.
///
/// A fluid flow reports "this link direction needed A seconds of active radio
/// during [t0, t1]". Concurrent flows over the same radio direction must not
/// double-charge: the charger keeps a busy-until watermark, so total busy
/// time never exceeds wall (virtual) time.
class BusyCharger {
 public:
  BusyCharger(EnergyMeter& meter, double ma,
              obs::EnergyRail rail = obs::EnergyRail::kOther)
      : meter_(meter), ma_(ma), rail_(rail) {}

  /// Charge up to `active` seconds of busy time within [t0, t1].
  /// Returns the seconds actually charged.
  double charge_active(TimePoint t0, TimePoint t1, double active_seconds);

 private:
  EnergyMeter& meter_;
  double ma_;
  obs::EnergyRail rail_;
  TimePoint busy_until_ = TimePoint::origin();
};

}  // namespace omni::radio
