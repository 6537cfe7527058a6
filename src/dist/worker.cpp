#include "dist/worker.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/hash.h"
#include "net/testbed.h"
#include "scenario/scenario.h"

namespace omni::dist {

Worker::Worker(EndpointConfig cfg, Transport link)
    : cfg_(std::move(cfg)), link_(std::move(link)) {}

bool Worker::fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
    Frame e;
    e.type = FrameType::kError;
    e.sender = cfg_.worker_id;
    e.error = message;
    if (link_.open()) (void)send_frame(link_, e);
  }
  return false;
}

Status Worker::handshake(net::Testbed& bed) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.sender = cfg_.worker_id;
  hello.handshake =
      Handshake{kProtocolVersion, cfg_.worker_id, cfg_.nworkers,
                bed.simulator().seed(), fnv1a64(cfg_.scenario_text),
                bed.simulator().lookahead().as_micros()};
  Status s = send_frame(link_, hello);
  if (!s.is_ok()) return s;
  Result<Frame> welcome = recv_frame(link_);
  if (!welcome.is_ok()) {
    return Status::error("handshake: " + welcome.error_message());
  }
  const Frame& w = welcome.value();
  if (w.type == FrameType::kError) {
    return Status::error("coordinator refused: " + w.error);
  }
  if (w.type != FrameType::kWelcome) {
    return Status::error(std::string("handshake: expected Welcome, got ") +
                         frame_type_name(w.type));
  }
  // The Welcome echoes the authoritative config; since the Hello already
  // carried this replica's view, a mismatch here means the coordinator
  // accepted someone else's Hello on this link.
  if (w.handshake.worker != cfg_.worker_id) {
    return Status::error("handshake: Welcome addressed to worker " +
                         std::to_string(w.handshake.worker) + ", this is " +
                         std::to_string(cfg_.worker_id));
  }
  return Status::ok();
}

bool Worker::window_open(std::uint64_t round, TimePoint t, TimePoint w) {
  if (!error_.empty()) return false;
  Result<Frame> fr = recv_frame(link_);
  if (!fr.is_ok()) {
    return fail("round " + std::to_string(round) +
                ": lost the coordinator (" + fr.error_message() + ")");
  }
  const Frame& g = fr.value();
  if (g.type == FrameType::kError) {
    return fail("coordinator aborted: " + g.error);
  }
  if (g.type == FrameType::kFin) {
    // The coordinator thinks the run is over while this replica still has
    // window work — a schedule divergence, not a clean shutdown.
    return fail("round " + std::to_string(round) +
                ": coordinator sent Fin but this replica still has a window "
                "at t=" + std::to_string(t.as_micros()) + "us");
  }
  if (g.type != FrameType::kWindowGrant) {
    return fail("round " + std::to_string(round) + ": expected WindowGrant, "
                "got " + frame_type_name(g.type));
  }
  const WindowBounds local{t.as_micros(), w.as_micros(),
                           bed_->simulator().executed_events(),
                           bed_->simulator().global_events_run()};
  if (g.round != round || !(g.window == local)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "round %llu: grant diverged from local window "
                  "(round=%llu/%llu t=%lld/%lld w=%lld/%lld "
                  "executed=%llu/%llu globals=%llu/%llu, "
                  "coordinator/worker)",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(g.round),
                  static_cast<unsigned long long>(round),
                  static_cast<long long>(g.window.t_us),
                  static_cast<long long>(local.t_us),
                  static_cast<long long>(g.window.w_us),
                  static_cast<long long>(local.w_us),
                  static_cast<unsigned long long>(g.window.executed),
                  static_cast<unsigned long long>(local.executed),
                  static_cast<unsigned long long>(g.window.global_events),
                  static_cast<unsigned long long>(local.global_events));
    return fail(buf);
  }
  granted_ = local;
  ++stats_.rounds;
  return true;
}

bool Worker::window_close(std::uint64_t round,
                          std::span<const sim::PostRecord> posts) {
  if (!error_.empty()) return false;
  if (cfg_.die_at_round != 0 && round >= cfg_.die_at_round) {
    // Test knob: vanish without a goodbye, exactly like a killed host. The
    // coordinator must detect the hangup, not wait forever.
    std::_Exit(41);
  }
  Frame done;
  done.type = FrameType::kWindowDone;
  done.sender = cfg_.worker_id;
  done.round = round;
  done.window = WindowBounds{granted_.t_us, granted_.w_us,
                             bed_->simulator().executed_events(),
                             bed_->simulator().global_events_run()};
  for (const sim::PostRecord& p : posts) {
    if (owner_worker(p.src, cfg_.nworkers) == cfg_.worker_id) {
      done.posts.push_back(p);
    }
  }
  stats_.posts_on_wire += done.posts.size();
  Status s = send_frame(link_, done);
  if (!s.is_ok()) {
    return fail("round " + std::to_string(round) + ": WindowDone failed: " +
                s.message());
  }
  return true;
}

Status Worker::finish(net::Testbed& bed) {
  if (!error_.empty()) return Status::error(error_);
  Result<Frame> fr = recv_frame(link_);
  if (!fr.is_ok()) {
    return Status::error("end of run: lost the coordinator (" +
                         fr.error_message() + ")");
  }
  const Frame& f = fr.value();
  if (f.type == FrameType::kError) {
    return Status::error("coordinator aborted: " + f.error);
  }
  if (f.type == FrameType::kWindowGrant) {
    fail("coordinator granted round " + std::to_string(f.round) +
         " beyond this replica's schedule — divergent run lengths");
    return Status::error(error_);
  }
  if (f.type != FrameType::kFin) {
    return Status::error(std::string("end of run: expected Fin, got ") +
                         frame_type_name(f.type));
  }
  summary_ = collect_summary(bed, fnv1a64(report_.str()));
  const std::string diff = diff_summaries(summary_, f.summary);
  if (!diff.empty()) {
    fail("run summary diverged (worker vs coordinator): " + diff);
    return Status::error(error_);
  }
  Frame finished;
  finished.type = FrameType::kFinished;
  finished.sender = cfg_.worker_id;
  finished.round = stats_.rounds;
  finished.summary = summary_;
  return send_frame(link_, finished);
}

Status Worker::run() {
  auto parsed = scenario::Scenario::parse(cfg_.scenario_text);
  if (!parsed.is_ok()) {
    return Status::error("scenario: " + parsed.error_message());
  }
  if (!cfg_.capture_path.empty()) {
    Status s = link_.set_capture(cfg_.capture_path);
    if (!s.is_ok()) return s;
  }
  scenario::RunHooks hooks;
  hooks.on_ready = [this](net::Testbed& bed) -> Status {
    bed_ = &bed;
    // Replica discipline: captures run (they are part of the event
    // schedule), files do not get written.
    bed.set_artifact_writes(false);
    Status s = handshake(bed);
    if (!s.is_ok()) return s;
    bed.simulator().set_dist_driver(this);
    return Status::ok();
  };
  hooks.on_complete = [this](net::Testbed& bed) { return finish(bed); };
  Status s = parsed.value()->run(report_, cfg_.threads, cfg_.observe,
                                 /*resume_path=*/{}, hooks);
  bed_ = nullptr;
  if (!error_.empty()) return Status::error(error_);
  if (!s.is_ok()) return s;
  stats_.frames = link_.stats().frames_sent + link_.stats().frames_received;
  stats_.bytes = link_.stats().bytes_sent + link_.stats().bytes_received;
  return Status::ok();
}

}  // namespace omni::dist
