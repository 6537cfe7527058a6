// Wire protocol of the distributed engine: typed frames over the shared
// sectioned container (common/codec.h) with magic "OFRM".
//
// A distributed run is N+1 replicas of one scenario — a coordinator and N
// workers — advancing in lockstep. Determinism does the heavy lifting:
// every replica computes the same windows, the same global events, and the
// same cross-owner mailbox posts, so the protocol's job is to *prove* that
// lockstep each round rather than to ship work. Each conservative window
// [T, W) is an explicit round:
//
//   coordinator --- WindowGrant{round, t, w, executed, globals} --> workers
//   workers ----- WindowDone{round, bounds-after, posts, digest} --> coordinator
//
// A worker's WindowDone carries the canonical (time, src_owner, seq, dst)
// records of the posts *its authoritative owners* produced (owner % N ==
// worker id); the coordinator compares them byte-for-byte against its own
// merge. Any divergence — bounds, counters, records — fails loudly naming
// the round and the worker. The run ends with Fin/Finished frames carrying
// whole-run summaries (executed events, RNG/report/metrics digests) that
// must agree across every process.
//
// Framing on the wire and in `.ofrs` capture files is identical: a LEB128
// varint byte length followed by one serialized container per frame.
// docs/FORMATS.md is the normative byte-level specification.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "sim/simulator.h"

namespace omni::net {
class Testbed;
}

namespace omni::dist {

// The frame codec is the shared container machinery; note the *other*
// omni::ByteWriter (common/byte_buffer.h, big-endian packets) is a
// different animal — dist always means the codec one.
using ::omni::codec::ByteReader;
using ::omni::codec::ByteWriter;
using ::omni::codec::ContainerSpec;
using ::omni::codec::Section;
using ::omni::codec::SectionContainer;

inline constexpr char kFrameMagic[4] = {'O', 'F', 'R', 'M'};
inline constexpr std::uint32_t kFrameVersion = 1;
/// Bumped on any incompatible change to frame semantics (handshake refuses
/// mismatches even when the container version still parses).
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Sender id of the coordinator (workers are 0..nworkers-1).
inline constexpr std::uint32_t kCoordinatorId = 0xffffffffu;

/// Every frame type on the wire. Values are stable protocol constants.
enum class FrameType : std::uint32_t {
  kHello = 1,        ///< worker -> coordinator: identify + prove config
  kWelcome = 2,      ///< coordinator -> worker: accept + authoritative config
  kWindowGrant = 3,  ///< coordinator -> workers: round may execute
  kWindowDone = 4,   ///< worker -> coordinator: round executed + post records
  kFin = 5,          ///< coordinator -> workers: run complete, summary
  kFinished = 6,     ///< worker -> coordinator: summary back, then exit
  kError = 7,        ///< either direction: fatal diagnostic, abort the run
};

/// Human name of a frame type ("WindowGrant", ...; "frame<n>" for unknown
/// values — that pointer is a static scratch).
const char* frame_type_name(FrameType type);

/// Section ids inside a frame container.
enum FrameSectionId : std::uint32_t {
  kFSecHead = 1,       ///< type, sender, round — present in every frame
  kFSecHandshake = 2,  ///< Hello/Welcome payload
  kFSecWindow = 3,     ///< WindowGrant/WindowDone bounds + counters
  kFSecPosts = 4,      ///< WindowDone post records (delta-encoded)
  kFSecSummary = 5,    ///< Fin/Finished whole-run summary
  kFSecError = 6,      ///< Error message
  // Ids 7 and 8 are retired (docs/FORMATS.md §4) and never reused; decoders
  // skip them like any other unknown section.
};

/// Human name for a frame section id ("head", "posts", ...).
const char* frame_section_name(std::uint32_t id);

/// The ContainerSpec describing frames (magic "OFRM" + the names above).
const ContainerSpec& frame_spec();

/// Hello/Welcome payload: everything two replicas must agree on before the
/// first round. The coordinator's Welcome is authoritative; a worker whose
/// Hello disagrees is refused with an Error frame.
struct Handshake {
  std::uint32_t protocol = kProtocolVersion;
  std::uint32_t worker = 0;    ///< sender's id (Hello) / addressee (Welcome)
  std::uint32_t nworkers = 1;  ///< fleet size, excluding the coordinator
  std::uint64_t seed = 0;
  std::uint64_t scenario_hash = 0;  ///< fnv1a64 of the scenario source
  std::int64_t lookahead_us = 0;    ///< conservative window span
};

/// WindowGrant/WindowDone bounds and cumulative engine counters. A grant
/// carries the counters *before* the window; a done carries them *after* —
/// so each round cross-checks both edges of the window.
struct WindowBounds {
  std::int64_t t_us = 0;  ///< window start (inclusive)
  std::int64_t w_us = 0;  ///< window end (exclusive)
  std::uint64_t executed = 0;       ///< cumulative executed_events()
  std::uint64_t global_events = 0;  ///< cumulative global_events_run()

  friend bool operator==(const WindowBounds&, const WindowBounds&) = default;
};

/// Fin/Finished whole-run summary. state_digest folds the other fields
/// into the one number the ROADMAP acceptance compares across process
/// counts; the individual fields make a mismatch diagnosable.
struct RunSummary {
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t global_events = 0;
  std::uint64_t mailbox_posts = 0;
  std::uint64_t rng_digest = 0;      ///< fnv over per-owner RNG digests
  std::uint64_t report_digest = 0;   ///< fnv over the accumulated report text
  std::uint64_t metrics_digest = 0;  ///< fnv over the metrics dump (0 = off)
  std::uint64_t state_digest = 0;    ///< fnv folding all of the above

  friend bool operator==(const RunSummary&, const RunSummary&) = default;
};

/// One decoded frame. Only the members implied by head.type are
/// meaningful; encode_frame writes only those sections.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint32_t sender = kCoordinatorId;
  std::uint64_t round = 0;

  Handshake handshake;                  ///< Hello/Welcome
  WindowBounds window;                  ///< WindowGrant/WindowDone
  std::vector<sim::PostRecord> posts;   ///< WindowDone
  RunSummary summary;                   ///< Fin/Finished
  std::string error;                    ///< Error
};

/// Serialize one frame (container bytes only — no stream length prefix).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Parse + validate one frame. Hardened like snapshot loading: any
/// truncation or bit flip yields a diagnostic naming the damaged section.
Result<Frame> decode_frame(std::span<const std::uint8_t> data);

/// fnv1a64 over the canonical encoding of a post-record list — the
/// per-shard digest a WindowDone carries alongside the records themselves.
std::uint64_t posts_digest(std::span<const sim::PostRecord> posts);

/// Which process is authoritative for posts from `src`: worker
/// `src % nworkers`, or the coordinator for global-owner work.
inline std::uint32_t owner_worker(sim::OwnerId src, std::uint32_t nworkers) {
  return src == sim::kGlobalOwner
             ? kCoordinatorId
             : static_cast<std::uint32_t>(src % (nworkers == 0 ? 1 : nworkers));
}

/// One-line human summary of a frame (`omnisnap inspect` on a captured
/// .ofrs stream prints one per frame).
std::string describe_frame(const Frame& f);

/// Parse a whole frame stream (varint length prefix + container, repeated)
/// — the `.ofrs` capture file format. Appends every cleanly decoded frame
/// to `out`; the error names the frame index and byte offset where the
/// stream went bad.
Status parse_frame_stream(std::span<const std::uint8_t> data,
                          std::vector<Frame>& out);

/// "" when equal; otherwise a diagnostic naming every differing summary
/// field with both values — the end-of-run mismatch must say *what*
/// diverged (RNG vs report vs counters), not just that something did.
std::string diff_summaries(const RunSummary& a, const RunSummary& b);

/// Whole-run summary of a finished testbed: engine counters + RNG digest,
/// folded with the caller-computed report/metrics digests into
/// state_digest. Every replica computes this locally; equality across the
/// fleet is the end-of-run acceptance check.
RunSummary collect_summary(net::Testbed& bed, std::uint64_t report_digest);

}  // namespace omni::dist
