// Unit tests for the --metrics run-manifest sidecar: full JSON round-trip
// through to_json/parse_manifest, string sanitization into the engine's
// escape-free grammar, schema-version rejection, the file writer, and a
// mutation suite: the parser accepts only the bytes to_json writes.
#include "obs/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace profisched::obs {
namespace {

Manifest sample_manifest() {
  Manifest m;
  m.run.subcommand = "sweep";
  m.run.argv = {"--scenarios", "40", "--u", "0.2:0.8:4"};
  m.run.config_digest = 0xdeadbeefcafef00dULL;
  m.run.scenarios = 160;
  m.run.points = 4;
  m.run.policies = 3;
  m.run.replications = 1;
  m.run.threads = 8;
  m.run.elapsed_s = 1.25;
  m.metrics.counters = {{"cache.hits", 12}, {"cache.misses", 4}};
  m.metrics.gauges = {{"pool.queue_depth_hwm", 7}};
  m.metrics.timers = {{"phase.run", 1, 1'000'000}, {"runner.analyze", 160, 900'000}};
  HistogramSample h;
  h.name = "pool.task_latency_ns";
  h.count = 3;
  h.sum = 70;
  h.bins = {0, 0, 0, 1, 0, 2};
  m.metrics.histograms = {h};
  return m;
}

TEST(ObsManifest, RoundTripsEveryField) {
  const Manifest m = sample_manifest();
  const Manifest r = parse_manifest(to_json(m));

  EXPECT_EQ(r.run.tool, "profisched");
  EXPECT_EQ(r.run.subcommand, m.run.subcommand);
  EXPECT_EQ(r.run.argv, m.run.argv);
  EXPECT_EQ(r.run.config_digest, m.run.config_digest);
  EXPECT_EQ(r.run.scenarios, m.run.scenarios);
  EXPECT_EQ(r.run.points, m.run.points);
  EXPECT_EQ(r.run.policies, m.run.policies);
  EXPECT_EQ(r.run.replications, m.run.replications);
  EXPECT_EQ(r.run.threads, m.run.threads);
  EXPECT_DOUBLE_EQ(r.run.elapsed_s, m.run.elapsed_s);

  ASSERT_EQ(r.metrics.counters.size(), 2u);
  EXPECT_EQ(r.metrics.counters[0].name, "cache.hits");
  EXPECT_EQ(r.metrics.counters[0].value, 12u);
  EXPECT_EQ(r.metrics.counters[1].value, 4u);
  ASSERT_EQ(r.metrics.gauges.size(), 1u);
  EXPECT_EQ(r.metrics.gauges[0].value, 7u);
  ASSERT_EQ(r.metrics.timers.size(), 2u);
  EXPECT_EQ(r.metrics.timers[1].count, 160u);
  EXPECT_EQ(r.metrics.timers[1].total_ns, 900'000u);
  ASSERT_EQ(r.metrics.histograms.size(), 1u);
  EXPECT_EQ(r.metrics.histograms[0].count, 3u);
  EXPECT_EQ(r.metrics.histograms[0].sum, 70u);
  EXPECT_EQ(r.metrics.histograms[0].bins, (std::vector<std::uint64_t>{0, 0, 0, 1, 0, 2}));
}

TEST(ObsManifest, RoundTripsEmptySections) {
  Manifest m;
  m.run.subcommand = "merge";
  const Manifest r = parse_manifest(to_json(m));
  EXPECT_EQ(r.run.subcommand, "merge");
  EXPECT_TRUE(r.run.argv.empty());
  EXPECT_TRUE(r.metrics.counters.empty());
  EXPECT_TRUE(r.metrics.gauges.empty());
  EXPECT_TRUE(r.metrics.timers.empty());
  EXPECT_TRUE(r.metrics.histograms.empty());
}

TEST(ObsManifest, SanitizesStringsIntoTheEscapeFreeGrammar) {
  Manifest m;
  m.run.subcommand = "swe\"ep";
  m.run.argv = {"--csv", "a\\b\nc"};
  const std::string json = to_json(m);
  EXPECT_EQ(json.find("swe\"ep"), std::string::npos);
  const Manifest r = parse_manifest(json);
  EXPECT_EQ(r.run.subcommand, "swe?ep");
  ASSERT_EQ(r.run.argv.size(), 2u);
  EXPECT_EQ(r.run.argv[1], "a?b?c");
}

TEST(ObsManifest, RejectsUnknownSchema) {
  std::string json = to_json(sample_manifest());
  const std::size_t pos = json.find(kManifestSchema);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string(kManifestSchema).size(), "profisched-metrics-v999");
  EXPECT_THROW((void)parse_manifest(json), std::invalid_argument);
}

TEST(ObsManifest, RejectsTruncatedInput) {
  const std::string json = to_json(sample_manifest());
  EXPECT_THROW((void)parse_manifest(json.substr(0, json.size() / 2)), std::invalid_argument);
}

TEST(ObsManifest, WriteManifestFileRoundTrips) {
  const Manifest m = sample_manifest();
  // A temporary path: the test runs from the repo root, whatever the build
  // directory is called.
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("obs_manifest_test_" + std::to_string(::getpid()) + ".json"))
                               .string();
  ASSERT_TRUE(write_manifest_file(path, m));
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::ostringstream text;
  text << is.rdbuf();
  EXPECT_EQ(text.str(), to_json(m));
  const Manifest r = parse_manifest(text.str());
  EXPECT_EQ(r.run.config_digest, m.run.config_digest);
  std::remove(path.c_str());
}

struct Xorshift {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// One mutation of `text` at a random position: a truncation, a bit flip, an
/// insertion drawn mostly from the manifest's own alphabet, a deletion, or a
/// splice of another stretch of the document.
std::string mutate(const std::string& text, Xorshift& rng) {
  static constexpr char kAlphabet[] = "0123456789.e-+ \n\",:[]{}";
  std::string m = text;
  const std::size_t pos = rng.next() % m.size();
  switch (rng.next() % 5) {
    case 0:
      m.resize(pos);
      break;
    case 1:
      m[pos] = static_cast<char>(m[pos] ^ (1 << (rng.next() % 8)));
      break;
    case 2: {
      const std::uint64_t r = rng.next();
      const char c = r % 4 == 0 ? static_cast<char>(r >> 8)
                                : kAlphabet[(r >> 8) % (sizeof kAlphabet - 1)];
      m.insert(pos, 1, c);
      break;
    }
    case 3:
      m.erase(pos, 1 + rng.next() % 3);
      break;
    default: {
      const std::size_t from = rng.next() % text.size();
      m.insert(pos, text.substr(from, 1 + rng.next() % 24));
      break;
    }
  }
  return m;
}

// The ROADMAP fuzz contract for byte parsers: every mutant of a real-shaped
// manifest either is rejected with std::invalid_argument or parses to a
// manifest that to_json writes back in exactly the mutated bytes — no other
// spelling of a number, no other whitespace, no trailing bytes.
TEST(ObsManifest, MutantsRoundTripOrAreRejected) {
  constexpr int kMutants = 60'000;
  Xorshift rng{0x2545f4914f6cdd1dULL};
  const std::string text = to_json(sample_manifest());
  ASSERT_EQ(to_json(parse_manifest(text)), text);
  std::size_t accepted = 0, diverged = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(text, rng);
    Manifest parsed;
    try {
      parsed = parse_manifest(m);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    if (to_json(parsed) != m && ++diverged <= 3) {
      ADD_FAILURE() << "accepted a manifest that serializes differently:\n" << m;
    }
  }
  EXPECT_EQ(diverged, 0u);
  EXPECT_GT(accepted, 0u);  // the mutants reached past the parser
}

}  // namespace
}  // namespace profisched::obs
