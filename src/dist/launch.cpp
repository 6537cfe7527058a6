#include "dist/launch.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/hash.h"
#include "dist/worker.h"
#include "scenario/scenario.h"

namespace omni::dist {

Result<FleetResult> run_local_fleet(const EndpointConfig& cfg) {
  using R = Result<FleetResult>;
  const std::uint32_t n = cfg.nworkers;
  if (n == 0) return R::error("a fleet needs at least one worker");

  // All pairs exist before the first fork so every child can close the fds
  // that are not its own.
  std::vector<int> parent_fd(n, -1), child_fd(n, -1);
  for (std::uint32_t i = 0; i < n; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      for (std::uint32_t j = 0; j < i; ++j) {
        ::close(parent_fd[j]);
        ::close(child_fd[j]);
      }
      return R::error("socketpair failed");
    }
    parent_fd[i] = sv[0];
    child_fd[i] = sv[1];
  }

  std::vector<pid_t> pids;
  pids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (std::uint32_t j = 0; j < n; ++j) {
        ::close(parent_fd[j]);
        ::close(child_fd[j]);
      }
      for (pid_t p : pids) ::waitpid(p, nullptr, 0);
      return R::error("fork failed");
    }
    if (pid == 0) {
      // Child: keep only this worker's end of this worker's pair.
      for (std::uint32_t j = 0; j < n; ++j) {
        ::close(parent_fd[j]);
        if (j != i) ::close(child_fd[j]);
      }
      EndpointConfig wcfg = cfg;
      wcfg.worker_id = i;
      wcfg.capture_path.clear();  // only the coordinator captures
      if (i != 0) wcfg.die_at_round = 0;
      Worker worker(std::move(wcfg), Transport(child_fd[i], "coordinator"));
      Status s = worker.run();
      if (!s.is_ok()) {
        std::fprintf(stderr, "[worker %u] %s\n", i, s.message().c_str());
        std::_Exit(1);
      }
      std::_Exit(0);
    }
    pids.push_back(pid);
  }

  FleetResult res;
  Status st = Status::ok();
  {
    std::vector<Transport> links;
    links.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ::close(child_fd[i]);
      links.emplace_back(parent_fd[i], "worker " + std::to_string(i));
    }
    Coordinator coord(cfg, std::move(links));
    std::ostringstream os;
    st = coord.run(os);
    res.report = os.str();
    res.summary = coord.summary();
    res.stats = coord.stats();
  }  // links close here: a child blocked in recv sees EOF and exits

  std::string child_problem;
  for (std::uint32_t i = 0; i < n; ++i) {
    int wstatus = 0;
    ::waitpid(pids[i], &wstatus, 0);
    const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (!clean && child_problem.empty()) {
      child_problem =
          "worker " + std::to_string(i) + " exited with status " +
          std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
    }
  }
  if (!st.is_ok()) return R::error(st.message());
  if (!child_problem.empty()) return R::error(child_problem);
  return res;
}

Result<SingleResult> run_single(const std::string& scenario_text,
                                unsigned threads, bool observe) {
  using R = Result<SingleResult>;
  auto parsed = scenario::Scenario::parse(scenario_text);
  if (!parsed.is_ok()) return R::error("scenario: " + parsed.error_message());
  SingleResult res;
  std::ostringstream os;
  scenario::RunHooks hooks;
  // Same digest discipline as the endpoints: summary over the report text
  // accumulated when the last instruction finished.
  hooks.on_complete = [&](net::Testbed& bed) -> Status {
    res.summary = collect_summary(bed, fnv1a64(os.str()));
    return Status::ok();
  };
  Status s = parsed.value()->run(os, threads, observe, /*resume_path=*/{},
                                 hooks);
  if (!s.is_ok()) return R::error(s.message());
  res.report = os.str();
  return res;
}

Result<std::uint32_t> parse_count(const std::string& text) {
  using R = Result<std::uint32_t>;
  const char* end = text.data() + text.size();
  std::uint32_t v = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (stop != end ||
      (ec != std::errc() && ec != std::errc::result_out_of_range)) {
    return R::error("'" + text + "' is not a count");
  }
  if (ec != std::errc() || v < 1 || v > sim::Simulator::kMaxThreads) {
    return R::error("count " + text + " out of range [1, " +
                    std::to_string(sim::Simulator::kMaxThreads) + "]");
  }
  return v;
}

}  // namespace omni::dist
