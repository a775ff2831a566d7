// perfbench_client — the benchmark's closed-loop client for `profisched serve`.
//
// Submits jobs one after another through serve::Client and polls STATUS every
// millisecond until each job settles, timing every job from SUBMIT
// sent to `done` seen. `profisched submit --wait` polls every 200 ms, which
// would round every sub-200 ms job up to one poll interval. Each job's flags
// go through serve::parse_submit_args, so a job here is exactly what
// `profisched submit` would send.
//
// usage:
//   perfbench_client env
//   perfbench_client --socket PATH --job NAME SUBMIT_FLAGS... [--job NAME ...]
//
// `env` prints the SIMD backend this build dispatches to. Otherwise one JSON
// object per job goes to stdout; the exit code is 0 only when every job
// reached `done`.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_cli.hpp"

namespace {

using namespace profisched;
using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kPoll{1'000};

std::int64_t ns_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

struct Job {
  std::string name;
  std::vector<std::string> flags;
};

/// The state word of job `id` in an `ok jobs N` STATUS payload; empty when
/// the job is missing.
std::string job_state(const std::string& payload, std::uint64_t id) {
  const std::string needle = "\njob " + std::to_string(id) + ' ';
  const std::size_t at = payload.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = payload.find_first_of(" \n", begin);
  return payload.substr(begin, end == std::string::npos ? end : end - begin);
}

/// Runs one job to a terminal state and prints its timing line. Returns true
/// when the job reached `done`.
bool run_job(const serve::Client& client, const std::string& socket, const Job& job) {
  std::vector<std::string> args{"--socket", socket};
  args.insert(args.end(), job.flags.begin(), job.flags.end());
  serve::SubmitCli cli;
  std::string error;
  if (!serve::parse_submit_args(args, cli, error) ||
      cli.action != serve::SubmitCli::Action::Submit) {
    std::fprintf(stderr, "job %s: %s\n", job.name.c_str(), error.c_str());
    return false;
  }
  const std::string submit = serve::format_submit(cli.job);
  const std::string status = serve::format_status();

  const Clock::time_point t0 = Clock::now();
  const std::string ack = client.call(submit, /*connect_retry_ms=*/5'000);
  const Clock::time_point t_ack = Clock::now();
  if (ack.rfind("ok id ", 0) != 0) {
    std::fprintf(stderr, "job %s: submit answered '%s'\n", job.name.c_str(), ack.c_str());
    return false;
  }
  const std::uint64_t id = std::stoull(ack.substr(6));

  std::vector<std::int64_t> rtts;
  Clock::time_point t_running{};
  bool seen_running = false;
  std::string state;
  Clock::time_point next = t_ack;
  for (;;) {
    next += kPoll;
    std::this_thread::sleep_until(next);
    const Clock::time_point r0 = Clock::now();
    const std::string reply = client.call(status);
    const Clock::time_point r1 = Clock::now();
    rtts.push_back(ns_since(r0, r1));
    state = job_state(reply, id);
    if (state == "running" && !seen_running) {
      seen_running = true;
      t_running = r0;
    }
    if (state != "queued" && state != "running") break;
  }
  const Clock::time_point t_end = Clock::now();
  // A job that finished between two polls was never seen running; its queue
  // wait then counts as run time, which keeps queue wait a lower bound.
  if (!seen_running) t_running = t_ack;

  std::sort(rtts.begin(), rtts.end());
  std::printf("{\"job\": \"%s\", \"id\": %llu, \"state\": \"%s\", \"latency_ns\": %lld, "
              "\"queue_wait_ns\": %lld, \"run_ns\": %lld, \"polls\": %zu, "
              "\"rtt_ns_p50\": %lld, \"rtt_ns_max\": %lld}\n",
              job.name.c_str(), static_cast<unsigned long long>(id),
              state.empty() ? "missing" : state.c_str(),
              static_cast<long long>(ns_since(t0, t_end)),
              static_cast<long long>(ns_since(t_ack, t_running)),
              static_cast<long long>(ns_since(t_running, t_end)), rtts.size(),
              static_cast<long long>(rtts[rtts.size() / 2]),
              static_cast<long long>(rtts.back()));
  std::fflush(stdout);
  return state == "done";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_client env\n"
               "       perfbench_client --socket PATH --job NAME SUBMIT_FLAGS... "
               "[--job NAME ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "env") {
    std::printf("{\"simd_backend\": \"%s\"}\n", simd::backend_name());
    return 0;
  }

  std::string socket;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool has_value = i + 1 < args.size();
    if (!jobs.empty() && args[i] != "--job") {
      jobs.back().flags.push_back(args[i]);
    } else if (args[i] == "--socket" && has_value) {
      socket = args[++i];
    } else if (args[i] == "--job" && has_value) {
      jobs.push_back(Job{args[++i], {}});
    } else {
      return usage();
    }
  }
  if (socket.empty() || jobs.empty()) return usage();

  try {
    const serve::Client client(socket);
    bool all_done = true;
    for (const Job& job : jobs) {
      all_done = run_job(client, socket, job) && all_done;
    }
    return all_done ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_client: %s\n", e.what());
    return 1;
  }
}
