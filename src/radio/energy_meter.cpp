#include "radio/energy_meter.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/result.h"
#include "obs/omniscope.h"

namespace omni::radio {

void EnergyMeter::charge(TimePoint t0, TimePoint t1, double ma,
                         obs::EnergyRail rail) {
  if (t1 <= t0 || ma == 0.0) return;
  const Duration dur = t1 - t0;
  const std::int64_t gap = (t0 - last_start_).as_micros();
  last_start_ = t0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (!runs_.empty()) {
    Run& r = runs_.back();
    if (r.dur == dur && r.rail == rail && bits(r.ma) == bits(ma) &&
        gap >= 0 && gap <= std::numeric_limits<std::uint32_t>::max() &&
        r.count < std::numeric_limits<std::uint32_t>::max()) {
      deltas_.push_back(static_cast<std::uint32_t>(gap));
      ++r.count;
      return;
    }
  }
  runs_.push_back(Run{t0, dur, ma, 1, rail});
}

template <class F>
void EnergyMeter::replay(Cursor& c, F&& f) const {
  for (; c.run < runs_.size(); ++c.run, c.pos = 0) {
    const Run& r = runs_[c.run];
    for (; c.pos < r.count; ++c.pos) {
      c.start = c.pos == 0 ? r.first
                           : c.start + Duration::micros(deltas_[c.delta++]);
      f(c.start, c.start + r.dur, r.ma, r.rail);
    }
    if (c.run + 1 == runs_.size()) break;
  }
}

bool EnergyMeter::ledger_active() const {
  if (node_ == kInvalidNode) return false;
  obs::Omniscope* sc = OMNI_SCOPE(sim_);
  return sc != nullptr && sc->recording();
}

void EnergyMeter::ledger_add(obs::Omniscope& sc, std::size_t lane,
                             TimePoint t0, TimePoint t1, double ma,
                             obs::EnergyRail rail) {
  sc.energy().add(lane, node_, rail, (t1 - t0).as_seconds() * ma);
}

void EnergyMeter::flush_ledger(TimePoint now) {
  if (!ledger_active()) return;
  obs::Omniscope& sc = *OMNI_SCOPE(sim_);
  const std::size_t lane = sc.lane();
  // Finish previously seen charges whose spans were still open at the last
  // flush (a charge may be future-dated: a BLE advertising event books its
  // whole span the instant it starts).
  std::size_t keep = 0;
  for (Pending& p : pending_) {
    TimePoint hi = std::min(p.t1, now);
    if (hi > p.t0) {
      ledger_add(sc, lane, p.t0, hi, p.ma, p.rail);
      p.t0 = hi;
    }
    if (p.t1 > now) pending_[keep++] = p;
  }
  pending_.resize(keep);
  // Mirror every charge logged since the last flush, clipped to `now`, so
  // ledger totals equal total_mAs(origin, now) at every flush point. Doing
  // this here — never on the charge() hot path — keeps instrumented runs
  // within the flight-recorder overhead budget.
  replay(mirrored_, [&](TimePoint t0, TimePoint t1, double ma,
                        obs::EnergyRail rail) {
    TimePoint hi = std::min(t1, now);
    if (hi > t0) ledger_add(sc, lane, t0, hi, ma, rail);
    if (t1 > now) pending_.push_back(Pending{std::max(t0, now), t1, ma, rail});
  });
}

void EnergyMeter::set_level(const std::string& tag, double ma,
                            obs::EnergyRail rail) {
  TimePoint now = sim_.now();
  auto it = levels_.find(tag);
  if (it != levels_.end()) {
    // Close the previous level as a concrete charge.
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

double EnergyMeter::level(const std::string& tag) const {
  auto it = levels_.find(tag);
  return it == levels_.end() ? 0.0 : it->second.ma;
}

double EnergyMeter::current_level_total() const {
  double total = 0;
  for (const auto& [tag, lvl] : levels_) total += lvl.ma;
  return total;
}

void EnergyMeter::flush_levels() {
  TimePoint now = sim_.now();
  for (auto& [tag, lvl] : levels_) {
    if (now <= lvl.since) continue;
    charge(lvl.since, now, lvl.ma, lvl.rail);
    lvl.since = now;
  }
  // Closed level spans are logged charges now, so one ledger pass covers both
  // interval charges and levels.
  flush_ledger(now);
}

double EnergyMeter::total_mAs(TimePoint t0, TimePoint t1) const {
  OMNI_CHECK_MSG(t1 >= t0, "total_mAs window reversed");
  double total = 0;
  auto overlap = [&](TimePoint a, TimePoint b) {
    TimePoint lo = std::max(a, t0);
    TimePoint hi = std::min(b, t1);
    return hi > lo ? (hi - lo).as_seconds() : 0.0;
  };
  Cursor c;
  replay(c, [&](TimePoint a, TimePoint b, double ma, obs::EnergyRail) {
    total += overlap(a, b) * ma;
  });
  for (const auto& [tag, lvl] : levels_) {
    total += overlap(lvl.since, t1) * lvl.ma;
  }
  return total;
}

double EnergyMeter::average_ma(TimePoint t0, TimePoint t1) const {
  double span = (t1 - t0).as_seconds();
  if (span <= 0) return 0;
  return total_mAs(t0, t1) / span;
}

double BusyCharger::charge_active(TimePoint t0, TimePoint t1,
                                  double active_seconds) {
  if (active_seconds <= 0 || t1 <= t0) return 0;
  TimePoint start = std::max(t0, busy_until_);
  TimePoint cap = t1;
  if (start >= cap) return 0;
  TimePoint end =
      std::min(cap, start + Duration::seconds(active_seconds));
  if (end <= start) return 0;
  meter_.charge(start, end, ma_, rail_);
  busy_until_ = end;
  return (end - start).as_seconds();
}

}  // namespace omni::radio
