// The serve tentpole's must-keep invariant, in-process: a job submitted over
// the socket produces output FILES byte-identical to the batch pipeline's
// serialization, for all four modes and for oversplit K ∈ {1, 3}. Plus the
// daemon's control surface: STATUS rows, CANCEL semantics over the wire,
// STATS manifests that obs::parse_manifest accepts, submit-time destination
// validation, and a clean SHUTDOWN that drains the queue.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "opt/opt_aggregate.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace profisched::serve {
namespace {

namespace fs = std::filesystem;

dist::ShardSpec small_spec(dist::SweepMode mode) {
  dist::ShardSpec sh;
  sh.mode = mode;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 6;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 99;
  sh.spec.replications = 2;
  return sh;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// One daemon per fixture: server thread + scratch dir + a client. The
/// socket lives in /tmp directly — sun_path is ~108 bytes, so deep per-test
/// directories are not an option.
class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "profisched_serve_test").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = "/tmp/profisched-e2e-" + std::to_string(::getpid()) + ".sock";
    ServeOptions opts;
    opts.socket_path = socket_;
    opts.threads = 2;
    server_ = std::make_unique<Server>(opts);
    runner_ = std::thread([this] { done_jobs_ = server_->run(); });
  }

  void TearDown() override {
    if (runner_.joinable()) {
      (void)client().call(format_shutdown());
      runner_.join();
    }
    server_.reset();
    fs::remove_all(dir_);
  }

  [[nodiscard]] Client client() const { return Client(socket_); }

  /// Submit and block until the job leaves queued/running; returns its
  /// STATUS line ("job <id> <state> <mode> <priority> <detail>").
  std::string submit_and_wait(const Request& req) {
    const std::string response = client().call(format_submit(req));
    EXPECT_EQ(response.rfind("ok id ", 0), 0u) << response;
    const std::string needle = "job " + response.substr(6) + ' ';
    for (;;) {
      const std::string status = client().call(format_status());
      std::istringstream lines(status);
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind(needle, 0) != 0) continue;
        if (line.find(" queued ") == std::string::npos &&
            line.find(" running ") == std::string::npos) {
          return line;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::string dir_;
  std::string socket_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
  std::uint64_t done_jobs_ = 0;
};

TEST_F(ServeE2E, ServedJobsAreByteIdenticalToTheBatchPipelineForEveryMode) {
  engine::SweepRunner single(2);
  for (const dist::SweepMode mode :
       {dist::SweepMode::Analysis, dist::SweepMode::Sim, dist::SweepMode::Combined,
        dist::SweepMode::Optimize}) {
    const dist::ShardSpec spec = small_spec(mode);
    std::string ref_csv, ref_json;
    switch (mode) {
      case dist::SweepMode::Analysis: {
        const auto t = engine::aggregate(spec.spec.sweep, single.run(spec.spec.sweep));
        ref_csv = t.to_csv();
        ref_json = t.to_json();
        break;
      }
      case dist::SweepMode::Sim: {
        const auto t = engine::aggregate_sim(spec.spec, single.run_sim(spec.spec));
        ref_csv = t.to_csv();
        ref_json = t.to_json();
        break;
      }
      case dist::SweepMode::Combined: {
        const auto t = engine::consistency_table(spec.spec, single.run_combined(spec.spec));
        ref_csv = t.to_csv();
        ref_json = t.to_json();
        break;
      }
      case dist::SweepMode::Optimize: {
        const opt::OptimizeSpec os{spec.spec.sweep, spec.optimize};
        const auto t = opt::aggregate_optimize(os, opt::run_optimize(single, os));
        ref_csv = t.to_csv();
        ref_json = t.to_json();
        break;
      }
    }
    for (const std::uint64_t oversplit : {1ULL, 3ULL}) {
      const std::string tag =
          std::string(dist::to_string(mode)) + "-k" + std::to_string(oversplit);
      Request req;
      req.kind = Request::Kind::Submit;
      req.spec = spec;
      req.oversplit = oversplit;
      req.csv_path = dir_ + "/" + tag + ".csv";
      req.json_path = dir_ + "/" + tag + ".json";
      const std::string line = submit_and_wait(req);
      EXPECT_NE(line.find(" done "), std::string::npos) << line;
      EXPECT_EQ(read_file(req.csv_path), ref_csv) << tag;
      EXPECT_EQ(read_file(req.json_path), ref_json) << tag;
    }
  }
}

TEST_F(ServeE2E, CancelOverTheWireStopsAQueuedOrRunningJob) {
  // Two sim jobs: the single scheduler thread serialises them, so job 2 is
  // still queued (or at worst in an early oversplit range) when the cancel
  // lands — either way CANCEL must succeed and the job must end cancelled.
  Request blocker;
  blocker.kind = Request::Kind::Submit;
  blocker.spec = small_spec(dist::SweepMode::Sim);
  blocker.spec.spec.sweep.scenarios_per_point = 40;
  Request victim = blocker;
  victim.oversplit = 40;

  ASSERT_EQ(client().call(format_submit(blocker)).rfind("ok id 1", 0), 0u);
  ASSERT_EQ(client().call(format_submit(victim)).rfind("ok id 2", 0), 0u);
  EXPECT_EQ(client().call(format_cancel(2)), "ok cancelled 2");
  for (;;) {
    const std::string status = client().call(format_status());
    if (status.find("job 2 cancelled") != std::string::npos) break;
    ASSERT_EQ(status.find("job 2 done"), std::string::npos) << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Unknown and already-terminal ids are loud errors, not silent no-ops.
  EXPECT_EQ(client().call(format_cancel(99)).rfind("err unknown job 99", 0), 0u);
  const std::string again = client().call(format_cancel(2));
  EXPECT_EQ(again.rfind("err ", 0), 0u);
  EXPECT_NE(again.find("already cancelled"), std::string::npos);
}

TEST_F(ServeE2E, StatsServesAManifestTheParserAndInvariantsAccept) {
  Request req;
  req.kind = Request::Kind::Submit;
  req.spec = small_spec(dist::SweepMode::Analysis);
  req.metrics_path = dir_ + "/job-metrics.json";
  const std::string line = submit_and_wait(req);
  ASSERT_NE(line.find(" done "), std::string::npos) << line;

  const std::string response = client().call(format_stats());
  ASSERT_EQ(response.rfind("ok stats\n", 0), 0u) << response;
  const obs::Manifest m = obs::parse_manifest(response.substr(9));
  EXPECT_EQ(m.run.subcommand, "serve");
  EXPECT_EQ(m.run.scenarios, req.spec.total_scenarios());
  EXPECT_GT(m.run.elapsed_s, 0.0);
  // The registry is process-global, so earlier tests in this binary also
  // incremented the serve counters — assert presence, not exact counts.
  EXPECT_GE(m.metrics.counter("serve.jobs_submitted"), 1u);
  EXPECT_GE(m.metrics.counter("serve.jobs_done"), 1u);
  // The per-job --metrics sidecar is the same document shape.
  const obs::Manifest job = obs::parse_manifest(read_file(req.metrics_path));
  EXPECT_EQ(job.run.subcommand, "serve");
  EXPECT_EQ(job.run.scenarios, req.spec.total_scenarios());
}

TEST_F(ServeE2E, SubmitValidatesDestinationsAndRejectsProtocolGarbage) {
  Request req;
  req.kind = Request::Kind::Submit;
  req.spec = small_spec(dist::SweepMode::Analysis);
  req.csv_path = "/nonexistent_profisched_dir/out.csv";
  const std::string response = client().call(format_submit(req));
  EXPECT_EQ(response.rfind("err ", 0), 0u);
  EXPECT_NE(response.find("parent directory"), std::string::npos) << response;

  EXPECT_EQ(client().call("frobnicate").rfind("err ", 0), 0u);
  EXPECT_EQ(client().call("status with trailing junk").rfind("err ", 0), 0u);
}

TEST_F(ServeE2E, ShutdownDrainsCancelsQueuedJobsAndRemovesTheSocket) {
  Request queued;
  queued.kind = Request::Kind::Submit;
  queued.spec = small_spec(dist::SweepMode::Sim);
  queued.spec.spec.sweep.scenarios_per_point = 40;
  ASSERT_EQ(client().call(format_submit(queued)).rfind("ok id 1", 0), 0u);
  ASSERT_EQ(client().call(format_submit(queued)).rfind("ok id 2", 0), 0u);

  EXPECT_EQ(client().call(format_shutdown()), "ok bye");
  runner_.join();
  // Job 1 ran (or was cut off at a boundary); job 2 never started and must
  // be cancelled by the drain, not silently dropped.
  server_.reset();  // destructor unlinks the socket
  EXPECT_FALSE(fs::exists(socket_));
  EXPECT_THROW((void)client().call(format_status()), std::runtime_error);
}

TEST_F(ServeE2E, ShutdownDoesNotWaitForAnIdleClient) {
  // A client that connects and never sends a byte parks its handler in
  // recv; SHUTDOWN must still return run() promptly.
  const int idle = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
  ASSERT_EQ(::connect(idle, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(client().call(format_status()).rfind("ok jobs", 0), 0u);  // idle one accepted

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client().call(format_shutdown()), "ok bye");
  std::atomic<bool> returned{false};
  std::thread watcher([&] {
    runner_.join();
    returned = true;
  });
  while (!returned && std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(returned) << "run() still blocked 2 s after SHUTDOWN with an idle client";
  ::close(idle);  // unblocks run() in the failing case, so the test ends
  watcher.join();
}

}  // namespace
}  // namespace profisched::serve
