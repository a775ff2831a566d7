// serve/server.hpp — the resident sweep service behind `profisched serve`.
//
// One Server owns: an AF_UNIX listening socket, a poll-based accept loop,
// short-lived connection threads speaking the framed protocol, and a single
// scheduler thread that drains the JobQueue. A claimed job runs through the
// job pipeline (dist/job.hpp): K oversplit executes, kept in memory, then the
// same reduce and emit the batch subcommands run. That shared path is the
// service's load-bearing guarantee: a served job's output files are
// byte-identical to the batch subcommand's (CI cmp-checks it).
//
// The scheduler is deliberately sequential (one job at a time; parallelism
// lives inside the job via the runner's thread pool). That choice is what
// keeps the daemon's `phase.*` timers valid sequential sub-intervals of its
// uptime, so every manifest it emits passes tools/metrics_check.py.
//
// Cancellation is cooperative at oversplit-range boundaries: CANCEL on a
// running job raises its flag, the executor notices between ranges, and no
// output file is written for a cancelled job — partial results never escape.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/result_cache.hpp"
#include "dist/shard.hpp"
#include "obs/manifest.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"

namespace profisched::serve {

struct ServeOptions {
  std::string socket_path;       ///< AF_UNIX path; stale files are replaced
  unsigned threads = 0;          ///< per-job runner threads (0 = default)
  std::string cache_dir;         ///< optional shared ResultCache directory
  std::vector<std::string> argv; ///< provenance for the STATS manifest
};

class Server {
 public:
  /// Binds and listens (replacing any stale socket file) and opens the cache
  /// when configured. Throws std::runtime_error on socket or cache failures;
  /// after the constructor returns, clients may connect (the backlog queues
  /// them until run() starts accepting).
  explicit Server(ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until a SHUTDOWN request: accepts connections, schedules jobs,
  /// then drains — cancels queued work, joins every thread, closes and
  /// unlinks the socket. Returns the number of jobs that reached Done.
  std::uint64_t run();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return opts_.socket_path;
  }

  /// The daemon-wide manifest STATS serves — also what `serve --metrics`
  /// writes at exit. scenarios counts completed-job scenarios; elapsed_s is
  /// daemon uptime (the bracket the phase.* invariant is checked against).
  [[nodiscard]] obs::Manifest stats_manifest() const;

 private:
  void scheduler_loop();
  void handle_connection(int fd, std::shared_ptr<std::atomic<bool>> done);
  /// Map one request payload to one response payload (`ok ...` / `err ...`).
  /// Sets `bye` for SHUTDOWN; the caller stops the daemon once the response
  /// is sent.
  [[nodiscard]] std::string handle_request(const std::string& payload, bool& bye);
  [[nodiscard]] std::string handle_submit(Request req);
  [[nodiscard]] std::string handle_status();
  [[nodiscard]] std::string handle_stats();

  /// Run one claimed job end to end; returns the terminal state it earned.
  struct JobOutcome {
    JobState state = JobState::Done;
    std::string detail;
  };
  [[nodiscard]] JobOutcome run_job(const JobQueue::Claimed& claimed);

  [[nodiscard]] double uptime_s() const;

  /// Join connection threads whose handlers have finished (called from the
  /// accept loop so a long-lived daemon does not hoard dead threads), and
  /// close their sockets. With `all`, first shut down every live socket so
  /// handlers blocked on idle clients return.
  void reap_connections(bool all);

  ServeOptions opts_;
  int listen_fd_ = -1;
  std::unique_ptr<dist::ResultCache> cache_;
  dist::ShardRunner runner_;
  JobQueue queue_;
  std::atomic<bool> stop_{false};
  std::int64_t t0_ns_ = 0;  ///< daemon start; every manifest's elapsed_s base

  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;  ///< closed by the reaper after the join
  };
  std::mutex conns_mu_;
  std::vector<Conn> conns_;
};

}  // namespace profisched::serve
