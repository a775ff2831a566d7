#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace profisched::serve {

namespace {

/// Send one framed payload; loops over partial sends. MSG_NOSIGNAL keeps a
/// client that hung up from killing the daemon with SIGPIPE.
bool send_frame(int fd, std::string_view payload) {
  const std::string wire = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServeOptions opts) : opts_(std::move(opts)), runner_(opts_.threads) {
  sockaddr_un addr{};
  if (opts_.socket_path.empty() || opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path must be 1.." +
                             std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got '" +
                             opts_.socket_path + "'");
  }
  if (!opts_.cache_dir.empty()) {
    cache_ = std::make_unique<dist::ResultCache>(opts_.cache_dir);
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size() + 1);
  ::unlink(opts_.socket_path.c_str());  // replace a stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on '" + opts_.socket_path + "': " + why);
  }

  // The daemon is resident: observability is always on, so STATS and per-job
  // --metrics sidecars have real series to report. Sequential scheduling
  // keeps the phase.* timers valid sub-intervals of the uptime this records.
  obs::set_enabled(true);
  t0_ns_ = obs::now_ns();
}

Server::~Server() {
  reap_connections(/*all=*/true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
}

double Server::uptime_s() const {
  return static_cast<double>(obs::now_ns() - t0_ns_) / 1e9;
}

void Server::reap_connections(bool all) {
  std::vector<Conn> finished;
  {
    std::lock_guard lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        // Wake a handler blocked in recv/send on an idle or stalled client.
        // The fd stays open until after the join, so it cannot have been
        // recycled for another connection when this runs.
        if (all) ::shutdown(it->fd, SHUT_RDWR);
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Conn& c : finished) {
    c.thread.join();
    ::close(c.fd);
  }
}

std::uint64_t Server::run() {
  std::thread scheduler(&Server::scheduler_loop, this);

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (rc <= 0) continue;  // timeout or EINTR; re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    obs::Registry::global().counter("serve.connections").add(1);
    reap_connections(/*all=*/false);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard lock(conns_mu_);
    conns_.push_back(Conn{std::thread(&Server::handle_connection, this, fd, done), done, fd});
  }

  // SHUTDOWN already closed the queue (cancelling queued jobs and raising
  // the running one's flag); wait for the scheduler to yield, then for the
  // connection that delivered the shutdown (and any stragglers) to finish.
  scheduler.join();
  reap_connections(/*all=*/true);

  std::uint64_t done_jobs = 0;
  for (const JobInfo& info : queue_.snapshot()) {
    if (info.state == JobState::Done) ++done_jobs;
  }
  return done_jobs;
}

void Server::handle_connection(int fd, std::shared_ptr<std::atomic<bool>> done) {
  std::string buffer;
  char chunk[64 * 1024];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      const FrameDecode frame = decode_frame(buffer);
      if (frame.status == FrameDecode::Status::NeedMore) break;
      if (frame.status == FrameDecode::Status::Error) {
        // The stream is unsynced past a framing violation: answer and hang up.
        send_frame(fd, "err " + frame.error);
        open = false;
        break;
      }
      buffer.erase(0, frame.consumed);
      bool bye = false;
      const bool sent = send_frame(fd, handle_request(frame.payload, bye));
      // Stop only once "ok bye" is out: the stop reaper shuts every socket.
      if (bye) stop_.store(true, std::memory_order_release);
      if (!sent) {
        open = false;
        break;
      }
    }
  }
  done->store(true, std::memory_order_release);  // the reaper closes fd
}

std::string Server::handle_request(const std::string& payload, bool& bye) {
  Request req;
  try {
    req = parse_request(payload);
  } catch (const std::exception& e) {
    return std::string("err ") + e.what();
  }
  switch (req.kind) {
    case Request::Kind::Submit:
      return handle_submit(std::move(req));
    case Request::Kind::Status:
      return handle_status();
    case Request::Kind::Cancel: {
      std::string error;
      if (!queue_.cancel(req.cancel_id, error)) return "err " + error;
      return "ok cancelled " + std::to_string(req.cancel_id);
    }
    case Request::Kind::Stats:
      return handle_stats();
    case Request::Kind::Shutdown:
      queue_.close();
      bye = true;
      return "ok bye";
  }
  return "err unreachable";
}

std::string Server::handle_submit(Request req) {
  if (stop_.load(std::memory_order_acquire) || queue_.closed()) {
    return "err server is shutting down";
  }
  // Same up-front destination validation the batch subcommands do, so a bad
  // path is a submit-time error, not a job that fails an hour later.
  std::string error;
  if (!dist::check_destinations(req, error)) return "err " + error;
  const std::uint64_t id = queue_.submit(std::move(req));
  obs::Registry::global().counter("serve.jobs_submitted").add(1);
  return "ok id " + std::to_string(id);
}

std::string Server::handle_status() {
  const std::vector<JobInfo> jobs = queue_.snapshot();
  std::string out = "ok jobs " + std::to_string(jobs.size());
  for (const JobInfo& j : jobs) {
    out += "\njob " + std::to_string(j.id) + ' ' + to_string(j.state) + ' ' +
           std::string(dist::to_string(j.mode)) + ' ' + std::to_string(j.priority);
    if (!j.detail.empty()) out += ' ' + j.detail;
  }
  return out;
}

obs::Manifest Server::stats_manifest() const {
  obs::Manifest m;
  m.run.subcommand = "serve";
  m.run.argv = opts_.argv;
  m.run.scenarios = queue_.scenarios_completed();
  m.run.threads = runner_.threads();
  m.run.elapsed_s = uptime_s();
  m.metrics = obs::Registry::global().snapshot();
  return m;
}

std::string Server::handle_stats() { return "ok stats\n" + obs::to_json(stats_manifest()); }

void Server::scheduler_loop() {
  while (auto claimed = queue_.claim_next()) {
    obs::set_progress_enabled(claimed->job.progress);
    JobOutcome outcome;
    try {
      outcome = run_job(*claimed);
    } catch (const std::exception& e) {
      outcome = JobOutcome{JobState::Failed, e.what()};
    }
    obs::set_progress_enabled(false);
    queue_.complete(claimed->id, outcome.state, outcome.detail);
    const char* counter = outcome.state == JobState::Done      ? "serve.jobs_done"
                          : outcome.state == JobState::Failed  ? "serve.jobs_failed"
                                                               : "serve.jobs_cancelled";
    obs::Registry::global().counter(counter).add(1);
  }
}

Server::JobOutcome Server::run_job(const JobQueue::Claimed& claimed) {
  const Request& job = claimed.job;
  std::vector<dist::ShardArtifact> artifacts;
  artifacts.reserve(job.oversplit);
  {
    const obs::Span run_span(obs::Registry::global().timer("phase.run"));
    for (std::uint64_t k = 0; k < job.oversplit; ++k) {
      if (claimed.cancelled->load(std::memory_order_relaxed)) {
        return JobOutcome{JobState::Cancelled,
                          "cancelled at range boundary " + std::to_string(k) + "/" +
                              std::to_string(job.oversplit)};
      }
      artifacts.push_back(runner_.run(job.spec, k, job.oversplit, cache_.get()));
    }
  }
  // The same reduce and emit the batch subcommands run: served output is
  // byte-identical to theirs by construction.
  const dist::Table table = dist::reduce(std::move(artifacts));
  dist::emit(job, table);

  JobOutcome outcome;
  outcome.detail = "completed " + std::to_string(job.spec.total_scenarios()) + " scenarios in " +
                   std::to_string(job.oversplit) + " range" + (job.oversplit == 1 ? "" : "s");
  // Same exit rule as the batch paths: the job fails after writing its
  // outputs, exactly like `merge` exits 1 after writing.
  const std::string violation = dist::trait(job.spec.mode).violation(table);
  if (!violation.empty()) outcome = JobOutcome{JobState::Failed, violation};

  if (!job.metrics_path.empty()) {
    // Daemon uptime, not per-job time: the registry snapshot is cumulative
    // across jobs, and uptime is the bracket whose phase.* sums
    // metrics_check.py can validate.
    obs::Manifest m = dist::manifest(job.spec, job.spec.total_scenarios());
    m.run.subcommand = "serve";
    m.run.argv = {"submit", std::string(dist::to_string(job.spec.mode))};
    m.run.threads = runner_.threads();
    m.run.elapsed_s = uptime_s();
    if (!obs::write_manifest_file(job.metrics_path, m)) {
      return JobOutcome{JobState::Failed, "cannot write " + job.metrics_path};
    }
  }
  return outcome;
}

}  // namespace profisched::serve
