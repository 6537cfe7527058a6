#include "dist/protocol.h"

#include <cstdio>

#include "common/hash.h"
#include "net/testbed.h"

namespace omni::dist {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kWelcome: return "Welcome";
    case FrameType::kWindowGrant: return "WindowGrant";
    case FrameType::kWindowDone: return "WindowDone";
    case FrameType::kFin: return "Fin";
    case FrameType::kFinished: return "Finished";
    case FrameType::kError: return "Error";
  }
  static thread_local char buf[20];
  std::snprintf(buf, sizeof(buf), "frame%u", static_cast<unsigned>(type));
  return buf;
}

const char* frame_section_name(std::uint32_t id) {
  switch (id) {
    case kFSecHead: return "head";
    case kFSecHandshake: return "handshake";
    case kFSecWindow: return "window";
    case kFSecPosts: return "posts";
    case kFSecSummary: return "summary";
    case kFSecError: return "error";
    default: {
      static thread_local char buf[16];
      std::snprintf(buf, sizeof(buf), "sec%u", id);
      return buf;
    }
  }
}

const ContainerSpec& frame_spec() {
  static const ContainerSpec spec = {
      {kFrameMagic[0], kFrameMagic[1], kFrameMagic[2], kFrameMagic[3]},
      kFrameVersion,
      "frame",
      &frame_section_name,
  };
  return spec;
}

namespace {

// Destination owners include kGlobalOwner; bias by one so the sentinel
// encodes as a single varint byte instead of five 0xff's.
std::uint64_t encode_dst(sim::OwnerId dst) {
  return dst == sim::kGlobalOwner ? 0 : static_cast<std::uint64_t>(dst) + 1;
}

sim::OwnerId decode_dst(std::uint64_t enc) {
  return enc == 0 ? sim::kGlobalOwner
                  : static_cast<sim::OwnerId>(enc - 1);
}

void write_posts(const Frame& f, ByteWriter& w) {
  w.var(f.posts.size());
  for (const sim::PostRecord& p : f.posts) {
    // Post times are clamped to >= the window end, so the delta against
    // f.window.w_us is non-negative and small.
    w.var(static_cast<std::uint64_t>(p.at.as_micros() - f.window.w_us));
    w.var(p.src);
    w.var(p.seq);
    w.var(encode_dst(p.dst));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  SectionContainer c;
  c.version = kFrameVersion;
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(f.type));
    w.u32(f.sender);
    w.var(f.round);
    c.section(kFSecHead).bytes = w.take();
  }
  switch (f.type) {
    case FrameType::kHello:
    case FrameType::kWelcome: {
      ByteWriter w;
      w.var(f.handshake.protocol);
      w.var(f.handshake.worker);
      w.var(f.handshake.nworkers);
      w.u64(f.handshake.seed);
      w.u64(f.handshake.scenario_hash);
      w.svar(f.handshake.lookahead_us);
      c.section(kFSecHandshake).bytes = w.take();
      break;
    }
    case FrameType::kWindowGrant:
    case FrameType::kWindowDone: {
      ByteWriter w;
      w.svar(f.window.t_us);
      w.svar(f.window.w_us);
      w.var(f.window.executed);
      w.var(f.window.global_events);
      c.section(kFSecWindow).bytes = w.take();
      if (f.type == FrameType::kWindowDone) {
        ByteWriter pw;
        write_posts(f, pw);
        c.section(kFSecPosts).bytes = pw.take();
      }
      break;
    }
    case FrameType::kFin:
    case FrameType::kFinished: {
      ByteWriter w;
      w.var(f.summary.executed);
      w.var(f.summary.windows);
      w.var(f.summary.global_events);
      w.var(f.summary.mailbox_posts);
      w.u64(f.summary.rng_digest);
      w.u64(f.summary.report_digest);
      w.u64(f.summary.metrics_digest);
      w.u64(f.summary.state_digest);
      c.section(kFSecSummary).bytes = w.take();
      break;
    }
    case FrameType::kError: {
      ByteWriter w;
      w.str(f.error);
      c.section(kFSecError).bytes = w.take();
      break;
    }
  }
  return serialize_container(c, frame_spec());
}

namespace {

Status malformed(std::uint32_t id) {
  return Status::error(std::string("frame section '") +
                       frame_section_name(id) + "' is malformed");
}

}  // namespace

Result<Frame> decode_frame(std::span<const std::uint8_t> data) {
  using R = Result<Frame>;
  Result<SectionContainer> parsed = parse_container(data, frame_spec());
  if (!parsed.is_ok()) return R::error(parsed.error_message());
  const SectionContainer& c = parsed.value();

  Frame f;
  const Section* head = c.find(kFSecHead);
  if (head == nullptr) return R::error("frame has no head section");
  {
    ByteReader r(head->bytes);
    f.type = static_cast<FrameType>(r.u32());
    f.sender = r.u32();
    f.round = r.var();
    if (!r.done()) return R::error(malformed(kFSecHead).message());
  }

  // Every type-specific section is required for its type; unknown extra
  // sections are tolerated (forward compatibility), missing required ones
  // are not.
  auto need = [&c](std::uint32_t id) -> Result<const Section*> {
    const Section* s = c.find(id);
    if (s == nullptr) {
      return Result<const Section*>::error(
          std::string("frame is missing its '") + frame_section_name(id) +
          "' section");
    }
    return s;
  };

  switch (f.type) {
    case FrameType::kHello:
    case FrameType::kWelcome: {
      auto s = need(kFSecHandshake);
      if (!s.is_ok()) return R::error(s.error_message());
      ByteReader r(s.value()->bytes);
      f.handshake.protocol = static_cast<std::uint32_t>(r.var());
      f.handshake.worker = static_cast<std::uint32_t>(r.var());
      f.handshake.nworkers = static_cast<std::uint32_t>(r.var());
      f.handshake.seed = r.u64();
      f.handshake.scenario_hash = r.u64();
      f.handshake.lookahead_us = r.svar();
      if (!r.done()) return R::error(malformed(kFSecHandshake).message());
      break;
    }
    case FrameType::kWindowGrant:
    case FrameType::kWindowDone: {
      auto s = need(kFSecWindow);
      if (!s.is_ok()) return R::error(s.error_message());
      ByteReader r(s.value()->bytes);
      f.window.t_us = r.svar();
      f.window.w_us = r.svar();
      f.window.executed = r.var();
      f.window.global_events = r.var();
      if (!r.done()) return R::error(malformed(kFSecWindow).message());
      if (f.type == FrameType::kWindowDone) {
        auto ps = need(kFSecPosts);
        if (!ps.is_ok()) return R::error(ps.error_message());
        ByteReader pr(ps.value()->bytes);
        const std::uint64_t n = pr.var();
        // Each record is at least 4 bytes; bound before reserving so a
        // corrupted count cannot drive a giant allocation.
        if (!pr.ok() || n > pr.remaining()) {
          return R::error(malformed(kFSecPosts).message());
        }
        f.posts.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n && pr.ok(); ++i) {
          sim::PostRecord p;
          p.at = TimePoint::from_micros(
              f.window.w_us + static_cast<std::int64_t>(pr.var()));
          p.src = static_cast<sim::OwnerId>(pr.var());
          p.seq = pr.var();
          p.dst = decode_dst(pr.var());
          f.posts.push_back(p);
        }
        if (!pr.done()) return R::error(malformed(kFSecPosts).message());
      }
      break;
    }
    case FrameType::kFin:
    case FrameType::kFinished: {
      auto s = need(kFSecSummary);
      if (!s.is_ok()) return R::error(s.error_message());
      ByteReader r(s.value()->bytes);
      f.summary.executed = r.var();
      f.summary.windows = r.var();
      f.summary.global_events = r.var();
      f.summary.mailbox_posts = r.var();
      f.summary.rng_digest = r.u64();
      f.summary.report_digest = r.u64();
      f.summary.metrics_digest = r.u64();
      f.summary.state_digest = r.u64();
      if (!r.done()) return R::error(malformed(kFSecSummary).message());
      break;
    }
    case FrameType::kError: {
      auto s = need(kFSecError);
      if (!s.is_ok()) return R::error(s.error_message());
      ByteReader r(s.value()->bytes);
      f.error = r.str();
      if (!r.done()) return R::error(malformed(kFSecError).message());
      break;
    }
    default:
      return R::error("unknown frame type " +
                      std::to_string(static_cast<std::uint32_t>(f.type)));
  }
  return f;
}

std::uint64_t posts_digest(std::span<const sim::PostRecord> posts) {
  ByteWriter w;
  w.var(posts.size());
  for (const sim::PostRecord& p : posts) {
    w.svar(p.at.as_micros());
    w.var(p.src);
    w.var(p.seq);
    w.var(encode_dst(p.dst));
  }
  return fnv1a64(w.bytes());
}

std::string describe_frame(const Frame& f) {
  char buf[256];
  std::string out = frame_type_name(f.type);
  if (f.sender == kCoordinatorId) {
    out += " from=coord";
  } else {
    std::snprintf(buf, sizeof(buf), " from=w%u", f.sender);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " round=%llu",
                static_cast<unsigned long long>(f.round));
  out += buf;
  switch (f.type) {
    case FrameType::kHello:
    case FrameType::kWelcome:
      std::snprintf(buf, sizeof(buf),
                    " proto=%u worker=%u nworkers=%u seed=%llu "
                    "scenario=%016llx lookahead=%lldus",
                    f.handshake.protocol, f.handshake.worker,
                    f.handshake.nworkers,
                    static_cast<unsigned long long>(f.handshake.seed),
                    static_cast<unsigned long long>(f.handshake.scenario_hash),
                    static_cast<long long>(f.handshake.lookahead_us));
      out += buf;
      break;
    case FrameType::kWindowGrant:
    case FrameType::kWindowDone:
      std::snprintf(buf, sizeof(buf),
                    " t=%.6fs w=%.6fs executed=%llu globals=%llu",
                    static_cast<double>(f.window.t_us) / 1e6,
                    static_cast<double>(f.window.w_us) / 1e6,
                    static_cast<unsigned long long>(f.window.executed),
                    static_cast<unsigned long long>(f.window.global_events));
      out += buf;
      if (f.type == FrameType::kWindowDone) {
        std::snprintf(buf, sizeof(buf), " posts=%zu digest=%016llx",
                      f.posts.size(),
                      static_cast<unsigned long long>(posts_digest(f.posts)));
        out += buf;
      }
      break;
    case FrameType::kFin:
    case FrameType::kFinished:
      std::snprintf(
          buf, sizeof(buf),
          " executed=%llu windows=%llu globals=%llu posts=%llu "
          "state=%016llx report=%016llx",
          static_cast<unsigned long long>(f.summary.executed),
          static_cast<unsigned long long>(f.summary.windows),
          static_cast<unsigned long long>(f.summary.global_events),
          static_cast<unsigned long long>(f.summary.mailbox_posts),
          static_cast<unsigned long long>(f.summary.state_digest),
          static_cast<unsigned long long>(f.summary.report_digest));
      out += buf;
      break;
    case FrameType::kError:
      out += " \"" + f.error + "\"";
      break;
  }
  return out;
}

Status parse_frame_stream(std::span<const std::uint8_t> data,
                          std::vector<Frame>& out) {
  std::size_t pos = 0;
  std::size_t index = 0;
  while (pos < data.size()) {
    ByteReader r(data.subspan(pos));
    const std::uint64_t len = r.var();
    if (!r.ok() || len > r.remaining()) {
      return Status::error("frame stream truncated at frame " +
                           std::to_string(index) + " (offset " +
                           std::to_string(pos) + ")");
    }
    const std::size_t body = data.size() - pos - r.remaining();
    Result<Frame> f = decode_frame(
        data.subspan(pos + body, static_cast<std::size_t>(len)));
    if (!f.is_ok()) {
      return Status::error("frame " + std::to_string(index) + " (offset " +
                           std::to_string(pos) + "): " + f.error_message());
    }
    out.push_back(std::move(f).value());
    pos += body + static_cast<std::size_t>(len);
    ++index;
  }
  return Status::ok();
}

std::string diff_summaries(const RunSummary& a, const RunSummary& b) {
  std::string out;
  auto note = [&out](const char* field, std::uint64_t va, std::uint64_t vb,
                     bool hex) {
    if (va == vb) return;
    if (!out.empty()) out += "; ";
    char buf[96];
    if (hex) {
      std::snprintf(buf, sizeof(buf), "%s %016llx vs %016llx", field,
                    static_cast<unsigned long long>(va),
                    static_cast<unsigned long long>(vb));
    } else {
      std::snprintf(buf, sizeof(buf), "%s %llu vs %llu", field,
                    static_cast<unsigned long long>(va),
                    static_cast<unsigned long long>(vb));
    }
    out += buf;
  };
  note("executed", a.executed, b.executed, false);
  note("windows", a.windows, b.windows, false);
  note("global_events", a.global_events, b.global_events, false);
  note("mailbox_posts", a.mailbox_posts, b.mailbox_posts, false);
  note("rng_digest", a.rng_digest, b.rng_digest, true);
  note("report_digest", a.report_digest, b.report_digest, true);
  note("metrics_digest", a.metrics_digest, b.metrics_digest, true);
  note("state_digest", a.state_digest, b.state_digest, true);
  return out;
}

RunSummary collect_summary(net::Testbed& bed, std::uint64_t report_digest) {
  sim::Simulator& sim = bed.simulator();
  RunSummary s;
  s.executed = sim.executed_events();
  s.windows = sim.windows_run();
  s.global_events = sim.global_events_run();
  s.mailbox_posts = sim.mailbox_posts();

  std::vector<std::pair<sim::OwnerId, std::uint64_t>> digests;
  sim.snapshot_rng_digests(digests);
  ByteWriter rw;
  rw.var(digests.size());
  for (const auto& [owner, digest] : digests) {
    rw.var(owner);
    rw.u64(digest);
  }
  s.rng_digest = fnv1a64(rw.bytes());

  s.report_digest = report_digest;
  if (obs::Omniscope* scope = bed.observability(); scope != nullptr) {
    s.metrics_digest = fnv1a64(scope->metrics().dump());
  }

  ByteWriter w;
  w.var(s.executed);
  w.var(s.windows);
  w.var(s.global_events);
  w.var(s.mailbox_posts);
  w.u64(s.rng_digest);
  w.u64(s.report_digest);
  w.u64(s.metrics_digest);
  s.state_digest = fnv1a64(w.bytes());
  return s;
}

}  // namespace omni::dist
