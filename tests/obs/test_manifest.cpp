// Unit tests for the --metrics run-manifest sidecar: full JSON round-trip
// through to_json/parse_manifest, string sanitization into the engine's
// escape-free grammar, schema-version rejection, and the file writer.
#include "obs/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

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

}  // namespace
}  // namespace profisched::obs
