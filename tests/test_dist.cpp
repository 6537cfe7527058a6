// Distributed engine: wire protocol hardening + fleet determinism.
//
// Covers the dist/ stack at three altitudes:
//   * frame codec: round trips, every truncation length, every byte
//     flipped — failures must name the damaged section, never crash —
//     and retired section ids skipped like any unknown section
//   * transport: torn frames, EOF inside the length prefix, short reads,
//     and insane lengths over a real socketpair
//   * fleet: a 2-process run of the golden tourist scenario (coordinator
//     at 1 and 2 threads) and a 3-process run must produce a
//     byte-identical report and equal state digest vs the 1-process
//     reference (the ROADMAP acceptance criterion), a worker killed
//     mid-window must fail loudly naming the round, and checkpoint
//     write failures must fail the run instead of being swallowed.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dist/launch.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "scenario/scenario.h"

namespace {

using namespace omni;
using namespace omni::dist;

std::string read_repo_file(const char* rel) {
  std::ifstream in(std::string(OMNI_REPO_DIR "/") + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A fleet run forks; keep the workload small so the matrix stays fast.
const char* kMiniScenario = R"(seed 3
device alpha 0 0
device bravo 20 0
device charlie 40 0 ble wifi multicast
advertise alpha interest:test
service charlie 3 kiosk
walk alpha at=1s to=30,0 speed=2
run 5s
report
run 3s
report
)";

Frame sample_done() {
  Frame f;
  f.type = FrameType::kWindowDone;
  f.sender = 1;
  f.round = 42;
  f.window = WindowBounds{500000, 510000, 1234, 56};
  f.posts.push_back(sim::PostRecord{TimePoint::from_micros(510000), 3, 7, 5});
  f.posts.push_back(
      sim::PostRecord{TimePoint::from_micros(511000), 9, 8, sim::kGlobalOwner});
  return f;
}

// --- Frame codec -------------------------------------------------------------

TEST(DistProtocol, RoundTripsEveryFrameType) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.sender = 2;
  hello.handshake = Handshake{kProtocolVersion, 2, 4, 99, 0xabcdef, 10000};
  Frame grant;
  grant.type = FrameType::kWindowGrant;
  grant.round = 7;
  grant.window = WindowBounds{100, 200, 10, 2};
  Frame fin;
  fin.type = FrameType::kFin;
  fin.round = 480;
  fin.summary = RunSummary{1, 2, 3, 4, 5, 6, 7, 8};
  Frame error;
  error.type = FrameType::kError;
  error.sender = 1;
  error.error = "deliberate";

  for (const Frame& f : {hello, grant, sample_done(), fin, error}) {
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    Result<Frame> back = decode_frame(bytes);
    ASSERT_TRUE(back.is_ok()) << back.error_message();
    const Frame& g = back.value();
    EXPECT_EQ(g.type, f.type);
    EXPECT_EQ(g.sender, f.sender);
    EXPECT_EQ(g.round, f.round);
    EXPECT_TRUE(g.window == f.window);
    EXPECT_TRUE(g.summary == f.summary);
    EXPECT_EQ(g.error, f.error);
    ASSERT_EQ(g.posts.size(), f.posts.size());
    for (std::size_t i = 0; i < f.posts.size(); ++i) {
      EXPECT_TRUE(g.posts[i] == f.posts[i]);
    }
    EXPECT_FALSE(describe_frame(g).empty());
  }
}

TEST(DistProtocol, EveryTruncationLengthFailsWithDiagnostic) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_done());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Result<Frame> r = decode_frame(
        std::span<const std::uint8_t>(bytes.data(), len));
    ASSERT_FALSE(r.is_ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(r.error_message().empty());
  }
}

TEST(DistProtocol, EveryFlippedByteFailsAndPayloadFlipsNameTheSection) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_done());
  // Any single-bit corruption anywhere must be rejected (the container
  // checksums cover header, table, and payloads).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    Result<Frame> r = decode_frame(bad);
    ASSERT_FALSE(r.is_ok()) << "flip at byte " << i << " parsed";
  }
  // A flip inside a section payload must name that section. Recompute the
  // layout: 12-byte header, 20 bytes per table entry, payloads in order.
  Result<Frame> parsed = decode_frame(bytes);
  ASSERT_TRUE(parsed.is_ok());
  const std::vector<std::uint8_t> reenc = encode_frame(parsed.value());
  ASSERT_EQ(reenc, bytes) << "canonical re-encode must round trip";
  SectionContainer c;
  {
    auto pc = codec::parse_container(bytes, frame_spec());
    ASSERT_TRUE(pc.is_ok());
    c = std::move(pc).value();
  }
  std::size_t off = 12 + 20 * c.sections.size();
  for (const Section& sec : c.sections) {
    if (!sec.bytes.empty()) {
      std::vector<std::uint8_t> bad = bytes;
      bad[off + sec.bytes.size() / 2] ^= 0xff;
      Result<Frame> r = decode_frame(bad);
      ASSERT_FALSE(r.is_ok());
      const std::string want = std::string("section '") +
                               frame_section_name(sec.id) + "'";
      EXPECT_NE(r.error_message().find(want), std::string::npos)
          << r.error_message() << " should contain " << want;
    }
    off += sec.bytes.size();
  }
}

TEST(DistProtocol, PostsDigestIsOrderAndContentSensitive) {
  Frame f = sample_done();
  const std::uint64_t d = posts_digest(f.posts);
  std::vector<sim::PostRecord> swapped = {f.posts[1], f.posts[0]};
  EXPECT_NE(posts_digest(swapped), d);
  std::vector<sim::PostRecord> tweaked = f.posts;
  tweaked[0].seq ^= 1;
  EXPECT_NE(posts_digest(tweaked), d);
  EXPECT_EQ(posts_digest(f.posts), d);
}

TEST(DistProtocol, DiffSummariesNamesTheDivergentField) {
  RunSummary a{10, 2, 3, 4, 5, 6, 7, 8};
  RunSummary b = a;
  EXPECT_EQ(diff_summaries(a, b), "");
  b.rng_digest ^= 0xdead;
  b.executed += 1;
  const std::string diff = diff_summaries(a, b);
  EXPECT_NE(diff.find("rng_digest"), std::string::npos) << diff;
  EXPECT_NE(diff.find("executed"), std::string::npos) << diff;
}

TEST(DistProtocol, FrameStreamParsesAndNamesBadFrameIndex) {
  ByteWriter stream;
  const std::vector<Frame> frames = {sample_done(), sample_done()};
  for (const Frame& f : frames) {
    const std::vector<std::uint8_t> enc = encode_frame(f);
    stream.var(enc.size());
    for (std::uint8_t b : enc) stream.u8(b);
  }
  std::vector<Frame> out;
  Status st = parse_frame_stream(stream.bytes(), out);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(out.size(), 2u);

  // Corrupt the second frame's payload: parse keeps frame 0 and the error
  // names frame 1.
  std::vector<std::uint8_t> bad = stream.bytes();
  bad[bad.size() - 10] ^= 0xff;
  out.clear();
  st = parse_frame_stream(bad, out);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_NE(st.message().find("frame 1"), std::string::npos) << st.message();
}

// Section ids 7 and 8 once carried partitioned-mode data on WindowDone and
// Fin/Finished frames. They are retired, so a decoder meeting one treats it
// like any unknown section (FORMATS §2 rule 4): skipped when intact, still
// checksummed when damaged.
TEST(DistProtocol, RetiredSectionIdsAreSkippedButStillChecksummed) {
  Frame fin;
  fin.type = FrameType::kFin;
  fin.round = 480;
  fin.summary = RunSummary{1, 2, 3, 4, 5, 6, 7, 8};
  const struct {
    Frame frame;
    std::uint32_t id;
  } cases[] = {{sample_done(), 7}, {fin, 8}};
  for (const auto& [frame, id] : cases) {
    auto pc = codec::parse_container(encode_frame(frame), frame_spec());
    ASSERT_TRUE(pc.is_ok()) << pc.error_message();
    SectionContainer c = std::move(pc).value();
    ASSERT_EQ(c.find(id), nullptr) << "encoder still writes section " << id;
    c.section(id).bytes = {0x02, 0x00, 0x05, 0x2a};
    const std::vector<std::uint8_t> bytes =
        codec::serialize_container(c, frame_spec());

    Result<Frame> back = decode_frame(bytes);
    ASSERT_TRUE(back.is_ok()) << "section " << id << ": "
                              << back.error_message();
    EXPECT_EQ(back.value().type, frame.type);
    EXPECT_EQ(back.value().round, frame.round);
    EXPECT_TRUE(back.value().window == frame.window);
    EXPECT_TRUE(back.value().summary == frame.summary);
    ASSERT_EQ(back.value().posts.size(), frame.posts.size());
    for (std::size_t i = 0; i < frame.posts.size(); ++i) {
      EXPECT_TRUE(back.value().posts[i] == frame.posts[i]);
    }

    // The retired section is the last payload, right before the trailer.
    std::vector<std::uint8_t> bad = bytes;
    bad[bad.size() - 8 - 2] ^= 0x10;
    Result<Frame> r = decode_frame(bad);
    ASSERT_FALSE(r.is_ok()) << "flip inside section " << id << " parsed";
    const std::string want = "checksum mismatch in section 'sec" +
                             std::to_string(id) + "'";
    EXPECT_NE(r.error_message().find(want), std::string::npos)
        << r.error_message() << " should contain " << want;
  }
}

TEST(DistProtocol, OwnerWorkerShardsAndRoutesGlobalToCoordinator) {
  EXPECT_EQ(owner_worker(sim::kGlobalOwner, 4), kCoordinatorId);
  EXPECT_EQ(owner_worker(0, 2), 0u);
  EXPECT_EQ(owner_worker(1, 2), 1u);
  EXPECT_EQ(owner_worker(5, 2), 1u);
  EXPECT_EQ(owner_worker(7, 1), 0u);
}

// --- Transport ---------------------------------------------------------------

struct Pair {
  Transport a, b;
};

Pair make_pair_() {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return Pair{Transport(sv[0], "left"), Transport(sv[1], "right")};
}

TEST(DistTransport, FramesSurviveTheSocket) {
  Pair p = make_pair_();
  Status s = send_frame(p.a, sample_done());
  ASSERT_TRUE(s.is_ok()) << s.message();
  Result<Frame> r = recv_frame(p.b);
  ASSERT_TRUE(r.is_ok()) << r.error_message();
  EXPECT_EQ(r.value().round, 42u);
  EXPECT_EQ(p.a.stats().frames_sent, 1u);
  EXPECT_EQ(p.b.stats().frames_received, 1u);
  EXPECT_EQ(p.a.stats().bytes_sent, p.b.stats().bytes_received);
}

TEST(DistTransport, CleanEofIsNamed) {
  Pair p = make_pair_();
  p.a.close();
  Result<Frame> r = recv_frame(p.b);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.error_message().find("connection closed by right"),
            std::string::npos)
      << r.error_message();
}

TEST(DistTransport, EofInsideLengthPrefixIsTorn) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Transport rx(sv[0], "peer");
  const std::uint8_t partial_varint = 0x85;  // continuation bit set
  ASSERT_EQ(::send(sv[1], &partial_varint, 1, 0), 1);
  ::close(sv[1]);
  Result<Frame> r = recv_frame(rx);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.error_message().find("length prefix"), std::string::npos)
      << r.error_message();
}

TEST(DistTransport, EofInsidePayloadReportsShortRead) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Transport rx(sv[0], "peer");
  const std::uint8_t torn[] = {0x20, 1, 2, 3};  // promises 32, sends 3
  ASSERT_EQ(::send(sv[1], torn, sizeof(torn), 0),
            static_cast<ssize_t>(sizeof(torn)));
  ::close(sv[1]);
  Result<Frame> r = recv_frame(rx);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.error_message().find("torn frame"), std::string::npos)
      << r.error_message();
  EXPECT_NE(r.error_message().find("3 of 32"), std::string::npos)
      << r.error_message();
}

TEST(DistTransport, InsaneLengthIsRejectedNotAllocated) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Transport rx(sv[0], "peer");
  ByteWriter w;
  w.var(std::uint64_t{1} << 40);  // a terabyte "frame"
  ASSERT_EQ(::send(sv[1], w.bytes().data(), w.bytes().size(), 0),
            static_cast<ssize_t>(w.bytes().size()));
  Result<Frame> r = recv_frame(rx);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.error_message().find("insane frame length"), std::string::npos)
      << r.error_message();
  ::close(sv[1]);
}

TEST(DistTransport, GarbagePayloadIsBadFrameNotUb) {
  Pair p = make_pair_();
  // A well-framed length followed by non-container bytes: the transport
  // delivers it, decode rejects it with the codec's diagnostic.
  int fd_garbage[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd_garbage), 0);
  Transport rx(fd_garbage[0], "fuzzer");
  std::uint8_t msg[] = {0x04, 'J', 'U', 'N', 'K'};
  ASSERT_EQ(::send(fd_garbage[1], msg, sizeof(msg), 0),
            static_cast<ssize_t>(sizeof(msg)));
  Result<Frame> r = recv_frame(rx);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.error_message().find("bad frame from fuzzer"),
            std::string::npos)
      << r.error_message();
  ::close(fd_garbage[1]);
}

// --- Fleet -------------------------------------------------------------------

TEST(DistFleet, TwoProcessRunMatchesSingleByteForByte) {
  const std::string scenario =
      read_repo_file("examples/scenarios/tourist.scn");
  auto single = run_single(scenario);
  ASSERT_TRUE(single.is_ok()) << single.error_message();

  for (unsigned threads : {1u, 2u}) {
    EndpointConfig cfg;
    cfg.scenario_text = scenario;
    cfg.nworkers = 2;
    cfg.threads = threads;
    auto fleet = run_local_fleet(cfg);
    ASSERT_TRUE(fleet.is_ok()) << fleet.error_message();

    // The ROADMAP acceptance criterion: byte-identical report, equal digest.
    EXPECT_EQ(fleet.value().report, single.value().report)
        << "threads " << threads;
    EXPECT_EQ(diff_summaries(fleet.value().summary, single.value().summary),
              "")
        << "threads " << threads;
    EXPECT_GT(fleet.value().stats.rounds, 0u);
  }
}

TEST(DistFleet, ThreeProcessesMixedThreadCountsStillAgree) {
  auto single = run_single(kMiniScenario, /*threads=*/1);
  ASSERT_TRUE(single.is_ok()) << single.error_message();
  EndpointConfig cfg;
  cfg.scenario_text = kMiniScenario;
  cfg.nworkers = 3;
  cfg.threads = 2;  // every process runs the parallel engine
  auto fleet = run_local_fleet(cfg);
  ASSERT_TRUE(fleet.is_ok()) << fleet.error_message();
  EXPECT_EQ(fleet.value().report, single.value().report);
  EXPECT_EQ(fleet.value().summary.state_digest,
            single.value().summary.state_digest);
}

TEST(DistFleet, CaptureStreamIsInspectable) {
  const std::string path = ::testing::TempDir() + "dist_capture.ofrs";
  EndpointConfig cfg;
  cfg.scenario_text = kMiniScenario;
  cfg.nworkers = 2;
  cfg.capture_path = path;
  auto fleet = run_local_fleet(cfg);
  ASSERT_TRUE(fleet.is_ok()) << fleet.error_message();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<Frame> frames;
  Status st = parse_frame_stream(bytes, frames);
  ASSERT_TRUE(st.is_ok()) << st.message();
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames.front().type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kWelcome);
  EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kFin);
  EXPECT_EQ(frames.back().type, FrameType::kFinished);
  std::remove(path.c_str());
}

TEST(DistFleet, KilledWorkerFailsLoudlyNamingTheRound) {
  EndpointConfig cfg;
  cfg.scenario_text = kMiniScenario;
  cfg.nworkers = 2;
  cfg.die_at_round = 3;  // worker 0 vanishes mid-run without a goodbye
  auto fleet = run_local_fleet(cfg);
  ASSERT_FALSE(fleet.is_ok());
  EXPECT_NE(fleet.error_message().find("worker 0 is gone"), std::string::npos)
      << fleet.error_message();
  EXPECT_NE(fleet.error_message().find("round 3"), std::string::npos)
      << fleet.error_message();
  EXPECT_NE(fleet.error_message().find("dead"), std::string::npos)
      << fleet.error_message();
}

TEST(DistFleet, ScenarioMismatchIsRefusedAtHandshake) {
  // Same fleet, but worker replicas get a different scenario than the
  // coordinator — impossible through run_local_fleet's one-config API, so
  // drive a 1-worker handshake by hand over a socketpair.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Transport wire(sv[0], "worker 0");
  Transport worker_side(sv[1], "coordinator");

  Frame hello;
  hello.type = FrameType::kHello;
  hello.sender = 0;
  hello.handshake = Handshake{kProtocolVersion, 0, 1, /*seed=*/3,
                              /*scenario_hash=*/0xbad, /*lookahead_us=*/10000};
  ASSERT_TRUE(send_frame(worker_side, hello).is_ok());

  EndpointConfig cfg;
  cfg.scenario_text = kMiniScenario;
  cfg.nworkers = 1;
  std::vector<Transport> links;
  links.push_back(std::move(wire));
  Coordinator coord(cfg, std::move(links));
  std::ostringstream os;
  Status st = coord.run(os);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("mismatch"), std::string::npos) << st.message();
  Result<Frame> refusal = recv_frame(worker_side);
  ASSERT_TRUE(refusal.is_ok()) << refusal.error_message();
  EXPECT_EQ(refusal.value().type, FrameType::kError);
}

// --- CLI argument parsing ----------------------------------------------------

TEST(DistLaunch, WorkerCountParserRejectsGarbage) {
  EXPECT_TRUE(parse_count("1").is_ok());
  EXPECT_EQ(parse_count("64").value(), 64u);
  // Junk suffixes, signs, spaces, counts past the shard cap and values
  // that overflow 32 bits are refused, never truncated, wrapped or clamped.
  for (const char* bad : {"0", "65", "100", "", "2x", "-1", "abc", "+2", " 2",
                          "2 ", "4294967297", "99999999999999999999"}) {
    auto r = parse_count(bad);
    EXPECT_FALSE(r.is_ok()) << "'" << bad << "' accepted";
  }
}


// --- Checkpoint / resume error propagation ----------------------------------

TEST(DistErrors, CheckpointWriteFailureFailsTheRun) {
  // Point the checkpoint daemon at a directory that cannot exist: a path
  // *through* an existing regular file. Before the fix the writes failed
  // silently and the run "succeeded" with zero checkpoints.
  const std::string blocker = ::testing::TempDir() + "dist_blocker";
  {
    std::ofstream f(blocker);
    f << "not a directory";
  }
  const std::string scenario = std::string("seed 3\n") +
                               "device a 0 0\n" +
                               "checkpoint every 1s " + blocker + "/sub\n" +
                               "run 2s\n";
  auto parsed = scenario::Scenario::parse(scenario);
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  std::ostringstream os;
  Status st = parsed.value()->run(os);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("checkpoint:"), std::string::npos)
      << st.message();
  std::remove(blocker.c_str());
}

TEST(DistErrors, ResumeFromCorruptSnapshotNamesTheDamage) {
  const std::string scenario = std::string("seed 3\n") +
                               "device a 0 0\n" +
                               "snapshot " + ::testing::TempDir() +
                               "dist_resume.osnap\n" + "run 1s\n";
  auto parsed = scenario::Scenario::parse(scenario);
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  std::ostringstream os;
  ASSERT_TRUE(parsed.value()->run(os).is_ok());

  // Truncate the snapshot and resume from it: the fail-soft reader's
  // diagnostic must surface through the scenario error, not vanish.
  const std::string path = ::testing::TempDir() + "dist_resume.osnap";
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  std::ostringstream os2;
  Status st = parsed.value()->run(os2, 1, false, path);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("truncated"), std::string::npos)
      << st.message();
  std::remove(path.c_str());
}

}  // namespace
