#include "dist/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/hash.h"
#include "net/testbed.h"
#include "scenario/scenario.h"

namespace omni::dist {

Coordinator::Coordinator(EndpointConfig cfg, std::vector<Transport> links)
    : cfg_(std::move(cfg)), links_(std::move(links)) {}

bool Coordinator::fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
    Frame e;
    e.type = FrameType::kError;
    e.sender = kCoordinatorId;
    e.error = message;
    // Best effort: a worker blocked in recv gets the reason instead of a
    // bare hangup; one that is already gone just fails the send.
    for (Transport& link : links_) {
      if (link.open()) (void)send_frame(link, e);
    }
  }
  return false;
}

Status Coordinator::handshake(net::Testbed& bed) {
  const std::uint64_t scenario_hash = fnv1a64(cfg_.scenario_text);
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    Result<Frame> hello = recv_frame(links_[i]);
    if (!hello.is_ok()) {
      return Status::error("handshake with worker " + std::to_string(i) +
                           ": " + hello.error_message());
    }
    const Frame& h = hello.value();
    if (h.type == FrameType::kError) {
      return Status::error("worker " + std::to_string(i) +
                           " refused to start: " + h.error);
    }
    if (h.type != FrameType::kHello) {
      return Status::error("handshake with worker " + std::to_string(i) +
                           ": expected Hello, got " +
                           frame_type_name(h.type));
    }
    const Handshake& hs = h.handshake;
    std::string mismatch;
    if (hs.protocol != kProtocolVersion) mismatch = "protocol version";
    else if (hs.worker != i) mismatch = "worker id";
    else if (hs.nworkers != cfg_.nworkers) mismatch = "fleet size";
    else if (hs.seed != bed.simulator().seed()) mismatch = "seed";
    else if (hs.scenario_hash != scenario_hash) mismatch = "scenario hash";
    else if (hs.lookahead_us != bed.simulator().lookahead().as_micros()) {
      mismatch = "lookahead";
    }
    if (!mismatch.empty()) {
      const std::string msg = "handshake with worker " + std::to_string(i) +
                              ": " + mismatch + " mismatch";
      Frame e;
      e.type = FrameType::kError;
      e.sender = kCoordinatorId;
      e.error = msg;
      (void)send_frame(links_[i], e);
      return Status::error(msg);
    }
    Frame welcome;
    welcome.type = FrameType::kWelcome;
    welcome.sender = kCoordinatorId;
    welcome.handshake = Handshake{kProtocolVersion, i, cfg_.nworkers,
                                  bed.simulator().seed(), scenario_hash,
                                  bed.simulator().lookahead().as_micros()};
    Status s = send_frame(links_[i], welcome);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

bool Coordinator::window_open(std::uint64_t round, TimePoint t, TimePoint w) {
  if (!error_.empty()) return false;
  granted_ = WindowBounds{t.as_micros(), w.as_micros(),
                          bed_->simulator().executed_events(),
                          bed_->simulator().global_events_run()};
  Frame grant;
  grant.type = FrameType::kWindowGrant;
  grant.sender = kCoordinatorId;
  grant.round = round;
  grant.window = granted_;
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    Status s = send_frame(links_[i], grant);
    if (!s.is_ok()) {
      return fail("round " + std::to_string(round) + ": granting worker " +
                  std::to_string(i) + " failed: " + s.message());
    }
  }
  ++stats_.rounds;
  return true;
}

bool Coordinator::window_close(std::uint64_t round,
                               std::span<const sim::PostRecord> posts) {
  if (!error_.empty()) return false;
  const std::uint32_t n = static_cast<std::uint32_t>(links_.size());
  std::vector<sim::PostRecord> expected;
  for (std::uint32_t i = 0; i < n; ++i) {
    Result<Frame> done = recv_frame(links_[i]);
    if (!done.is_ok()) {
      // The loud dead-shard path: a worker killed mid-window shows up here
      // as a closed connection or torn frame.
      return fail("round " + std::to_string(round) + ": worker " +
                  std::to_string(i) + " is gone (" + done.error_message() +
                  "); its owner shards are dead");
    }
    const Frame& d = done.value();
    if (d.type == FrameType::kError) {
      return fail("round " + std::to_string(round) + ": worker " +
                  std::to_string(i) + " aborted: " + d.error);
    }
    if (d.type != FrameType::kWindowDone) {
      return fail("round " + std::to_string(round) + ": worker " +
                  std::to_string(i) + " sent " + frame_type_name(d.type) +
                  " where WindowDone was due");
    }
    if (d.round != round) {
      return fail("round " + std::to_string(round) + ": worker " +
                  std::to_string(i) + " answered for round " +
                  std::to_string(d.round));
    }
    const WindowBounds after =
        WindowBounds{granted_.t_us, granted_.w_us,
                     bed_->simulator().executed_events(),
                     bed_->simulator().global_events_run()};
    if (!(d.window == after)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "round %llu: worker %u window state diverged "
                    "(t=%lld/%lld w=%lld/%lld executed=%llu/%llu "
                    "globals=%llu/%llu, worker/coordinator)",
                    static_cast<unsigned long long>(round), i,
                    static_cast<long long>(d.window.t_us),
                    static_cast<long long>(after.t_us),
                    static_cast<long long>(d.window.w_us),
                    static_cast<long long>(after.w_us),
                    static_cast<unsigned long long>(d.window.executed),
                    static_cast<unsigned long long>(after.executed),
                    static_cast<unsigned long long>(d.window.global_events),
                    static_cast<unsigned long long>(after.global_events));
      return fail(buf);
    }
    // The worker is authoritative for posts whose source owner maps to it;
    // its record list must equal this replica's merge, filtered the same
    // way, in the same canonical order.
    expected.clear();
    for (const sim::PostRecord& p : posts) {
      if (owner_worker(p.src, n) == i) expected.push_back(p);
    }
    if (d.posts.size() != expected.size() ||
        posts_digest(d.posts) != posts_digest(expected)) {
      std::size_t k = 0;
      const std::size_t lim = std::min(d.posts.size(), expected.size());
      while (k < lim && d.posts[k] == expected[k]) ++k;
      return fail("round " + std::to_string(round) + ": worker " +
                  std::to_string(i) + " post records diverged (" +
                  std::to_string(d.posts.size()) + " vs " +
                  std::to_string(expected.size()) +
                  " records, first difference at index " + std::to_string(k) +
                  ")");
    }
    stats_.posts_on_wire += d.posts.size();
  }
  return true;
}

Status Coordinator::finish(net::Testbed& bed) {
  if (!error_.empty()) return Status::error(error_);
  summary_ = collect_summary(bed, fnv1a64(report_.str()));
  Frame fin;
  fin.type = FrameType::kFin;
  fin.sender = kCoordinatorId;
  fin.round = stats_.rounds;
  fin.summary = summary_;
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    Status s = send_frame(links_[i], fin);
    if (!s.is_ok()) {
      return Status::error("Fin to worker " + std::to_string(i) +
                           " failed: " + s.message());
    }
  }
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    Result<Frame> fr = recv_frame(links_[i]);
    if (!fr.is_ok()) {
      return Status::error("worker " + std::to_string(i) +
                           " vanished before Finished: " +
                           fr.error_message());
    }
    const Frame& f = fr.value();
    if (f.type == FrameType::kError) {
      return Status::error("worker " + std::to_string(i) +
                           " failed at end of run: " + f.error);
    }
    if (f.type != FrameType::kFinished) {
      return Status::error("worker " + std::to_string(i) + " sent " +
                           frame_type_name(f.type) +
                           " where Finished was due");
    }
    const std::string diff = diff_summaries(f.summary, summary_);
    if (!diff.empty()) {
      return Status::error("worker " + std::to_string(i) +
                           " run summary diverged (worker vs coordinator): " +
                           diff);
    }
  }
  return Status::ok();
}

Status Coordinator::run(std::ostream& out) {
  auto parsed = scenario::Scenario::parse(cfg_.scenario_text);
  if (!parsed.is_ok()) {
    return Status::error("scenario: " + parsed.error_message());
  }
  if (!cfg_.capture_path.empty() && !links_.empty()) {
    Status s = links_[0].set_capture(cfg_.capture_path);
    if (!s.is_ok()) return s;
  }
  scenario::RunHooks hooks;
  hooks.on_ready = [this](net::Testbed& bed) -> Status {
    bed_ = &bed;
    Status s = handshake(bed);
    if (!s.is_ok()) return s;
    bed.simulator().set_dist_driver(this);
    return Status::ok();
  };
  hooks.on_complete = [this](net::Testbed& bed) { return finish(bed); };
  Status s = parsed.value()->run(report_, cfg_.threads, cfg_.observe,
                                 /*resume_path=*/{}, hooks);
  bed_ = nullptr;
  // A protocol failure recorded by the driver is the primary diagnostic;
  // the scenario status may just be its echo through on_complete.
  if (!error_.empty()) return Status::error(error_);
  if (!s.is_ok()) return s;
  for (const Transport& link : links_) {
    stats_.frames += link.stats().frames_sent + link.stats().frames_received;
    stats_.bytes += link.stats().bytes_sent + link.stats().bytes_received;
  }
  out << report_.str();
  return Status::ok();
}

}  // namespace omni::dist
