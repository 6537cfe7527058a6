// run_distributed: execute a scenario as a verified multi-process fleet.
//
//   $ run_distributed --workers 2 scenario.scn
//   $ run_distributed --workers 2 --check scenario.scn      # diff vs 1-process
//   $ run_distributed --workers 3 --threads 4 scenario.scn  # threads per process
//   $ run_distributed --workers 2 --capture run.ofrs scenario.scn
//
// Forks N worker processes plus runs the coordinator here (see
// src/dist/launch.h); every conservative window is a verified protocol
// round. The coordinator replica's report goes to stdout. --check
// additionally runs the same scenario single-process in this binary and
// compares the report byte-for-byte and the whole-run summary digest —
// the repo's headline determinism guarantee across *processes*. --capture
// tees every frame on the worker-0 link into an .ofrs stream that
// `omnisnap inspect` can dump.
//
// Exit status: 0 success (and --check matched), 1 any divergence, dead
// worker, or scenario error, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "dist/launch.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--threads N] [--check] [--observe]\n"
               "       %*s [--capture out.ofrs] <scenario-file>\n",
               argv0, static_cast<int>(std::string(argv0).size()), "");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  omni::dist::EndpointConfig cfg;
  cfg.nworkers = 2;
  bool check = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs %s\n", arg.c_str(), what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workers" || arg == "--threads") {
      auto count = omni::dist::parse_count(next("a count"));
      if (!count.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     count.error_message().c_str());
        return usage(argv[0]);
      }
      if (arg == "--workers") cfg.nworkers = count.value();
      else cfg.threads = count.value();
    } else if (arg == "--capture") {
      cfg.capture_path = next("an .ofrs path");
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--observe") {
      cfg.observe = true;
    } else if (arg[0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path == nullptr) return usage(argv[0]);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "run_distributed: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  cfg.scenario_text = text.str();

  auto fleet = omni::dist::run_local_fleet(cfg);
  if (!fleet.is_ok()) {
    std::fprintf(stderr, "run_distributed: %s\n",
                 fleet.error_message().c_str());
    return 1;
  }
  const omni::dist::FleetResult& res = fleet.value();
  std::fputs(res.report.c_str(), stdout);
  std::fprintf(stderr,
               "fleet: %u workers, %llu rounds, %llu frames, %llu bytes, "
               "%llu/%llu posts on wire/merged, state digest %016llx\n",
               cfg.nworkers,
               static_cast<unsigned long long>(res.stats.rounds),
               static_cast<unsigned long long>(res.stats.frames),
               static_cast<unsigned long long>(res.stats.bytes),
               static_cast<unsigned long long>(res.stats.posts_on_wire),
               static_cast<unsigned long long>(res.summary.mailbox_posts),
               static_cast<unsigned long long>(res.summary.state_digest));

  if (check) {
    auto single = omni::dist::run_single(cfg.scenario_text, cfg.threads,
                                         cfg.observe);
    if (!single.is_ok()) {
      std::fprintf(stderr, "run_distributed: 1-process reference failed: %s\n",
                   single.error_message().c_str());
      return 1;
    }
    if (single.value().report != res.report) {
      std::fprintf(stderr,
                   "run_distributed: CHECK FAILED: distributed report is not "
                   "byte-identical to the 1-process run\n");
      return 1;
    }
    const std::string diff =
        omni::dist::diff_summaries(res.summary, single.value().summary);
    if (!diff.empty()) {
      std::fprintf(stderr,
                   "run_distributed: CHECK FAILED: summary diverged "
                   "(fleet vs 1-process): %s\n",
                   diff.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "check: report byte-identical, digests equal at %u workers "
                 "vs 1 process\n",
                 cfg.nworkers);
  }
  return 0;
}
