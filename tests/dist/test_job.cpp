// The job pipeline's contracts: one mode table, one cell codec per mode shared
// by result-cache records and shard rows, one size check on every job source,
// and one flag table on which every subcommand agrees.
#include "dist/job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "engine/detail/cli_parse.hpp"

namespace profisched::dist {
namespace {

ShardSpec small_spec(SweepMode mode) {
  ShardSpec sh;
  sh.mode = mode;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 3;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 99;
  sh.spec.replications = 2;
  return sh;
}

/// In-memory ScenarioCache that also keeps every stored payload in order.
class MemoryCache : public engine::ScenarioCache {
 public:
  bool load(const engine::CacheKey& key, std::string& payload) override {
    const std::lock_guard lock(mu_);
    const auto it = entries_.find({key.scenario, key.params});
    if (it == entries_.end()) return false;
    payload = it->second;
    return true;
  }
  void store(const engine::CacheKey& key, const std::string& payload) override {
    const std::lock_guard lock(mu_);
    entries_[{key.scenario, key.params}] = payload;
    stored.push_back(payload);
  }
  std::vector<std::string> stored;

 private:
  std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> entries_;
};

TEST(ModeTable, OneEntryPerModeAndBothVocabularies) {
  for (const SweepMode m : {SweepMode::Analysis, SweepMode::Sim, SweepMode::Combined,
                            SweepMode::Optimize}) {
    const ModeTrait& t = trait(m);
    EXPECT_EQ(t.mode, m);
    EXPECT_EQ(find_mode(t.word), &t);
    EXPECT_EQ(find_mode(t.spec_word, &ModeTrait::spec_word), &t);
    EXPECT_EQ(to_string(m), t.spec_word);
  }
  EXPECT_EQ(find_mode("sweep")->mode, SweepMode::Analysis);
  EXPECT_EQ(find_mode("sim", &ModeTrait::spec_word)->mode, SweepMode::Sim);
  EXPECT_EQ(find_mode("analysis"), nullptr);  // spec word, not a command-line word
  EXPECT_EQ(find_mode("warp"), nullptr);
}

/// For every mode: the records a cold run stores and the rows its artifact
/// writes are the same cells in the same bytes; a warm run decodes every
/// record back to identical rows; the artifact text round-trips.
void expect_one_codec(const ShardSpec& spec) {
  SCOPED_TRACE(std::string(to_string(spec.mode)));
  ShardRunner runner(1);  // one worker: records are stored in id, policy order
  MemoryCache cache;
  const ShardArtifact cold = runner.run(spec, 0, 1, &cache);
  const std::string text = cold.to_text();
  const std::size_t n_pol = spec.spec.sweep.policies.size();
  ASSERT_EQ(cache.stored.size(), spec.total_scenarios() * n_pol);

  std::istringstream lines(text.substr(text.find("\no ") + 1));
  for (std::size_t id = 0; id < spec.total_scenarios(); ++id) {
    std::string row;
    ASSERT_TRUE(std::getline(lines, row));
    std::string cells;
    for (std::size_t p = 0; p < n_pol; ++p) {
      const std::string& record = cache.stored[id * n_pol + p];
      cells += record.substr(record.find(' '));  // the record minus its tag
    }
    // Row = "o id seed point" + the policies' cells, byte for byte.
    EXPECT_EQ(row.substr(row.size() - cells.size()), cells) << "scenario " << id;
    EXPECT_EQ(row.rfind("o " + std::to_string(id) + ' ', 0), 0u);
  }

  const ShardArtifact warm = runner.run(spec, 0, 1, &cache);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.stats.cache_hits, spec.total_scenarios() * n_pol);
  EXPECT_EQ(warm.to_text(), text);
  EXPECT_EQ(ShardArtifact::from_text(text).to_text(), text);
}

TEST(CellCodec, AnalysisRecordsAndRowsShareOneCodec) {
  expect_one_codec(small_spec(SweepMode::Analysis));
}

TEST(CellCodec, SimRecordsAndRowsShareOneCodec) { expect_one_codec(small_spec(SweepMode::Sim)); }

TEST(CellCodec, CombinedRecordsAndRowsShareOneCodec) {
  expect_one_codec(small_spec(SweepMode::Combined));
  ShardSpec faulted = small_spec(SweepMode::Combined);
  faulted.spec.sim.faults.token_loss_prob = 0.03;
  faulted.spec.sim.faults.token_recovery = 900;
  expect_one_codec(faulted);
}

TEST(CellCodec, OptimizeRecordsAndRowsShareOneCodec) {
  ShardSpec spec = small_spec(SweepMode::Optimize);
  spec.spec.sweep.scenarios_per_point = 2;
  expect_one_codec(spec);
  // breakdown_u rides in both in shortest round-trip form: a cache hit
  // restores the exact double without regenerating the scenario.
  const ShardArtifact art = ShardRunner(1).run(spec, 0, 1);
  const ShardArtifact back = ShardArtifact::from_text(art.to_text());
  ASSERT_EQ(back.optimize.size(), art.optimize.size());
  for (std::size_t i = 0; i < art.optimize.size(); ++i) {
    for (std::size_t p = 0; p < spec.spec.sweep.policies.size(); ++p) {
      EXPECT_EQ(back.optimize[i].cells[p].breakdown_u, art.optimize[i].cells[p].breakdown_u);
    }
  }
}

TEST(CellCodec, StaleRecordTagsMissCleanly) {
  // A cache filled under an older record tag: every entry must read as a
  // miss and be recomputed, never misread.
  struct StaleCache : MemoryCache {
    void store(const engine::CacheKey& key, const std::string& payload) override {
      MemoryCache::store(key, "a1" + payload.substr(payload.find(' ')));
    }
  } stale;
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardRunner runner(1);
  const std::string reference = runner.run(spec, 0, 1).to_text();
  (void)runner.run(spec, 0, 1, &stale);
  const ShardArtifact rerun = runner.run(spec, 0, 1, &stale);
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.to_text(), reference);
}

// ------------------------------------------------------------ one size check

TEST(JobValidation, ParseSpecRejectsABlockOverTheCap) {
  ShardSpec spec = small_spec(SweepMode::Analysis);
  spec.spec.sweep.scenarios_per_point = engine::kMaxScenarios;  // x 2 points
  const std::string block = serialize_spec(spec);
  try {
    (void)parse_spec(block);
    FAIL() << "a spec over the cap parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos) << e.what();
  }
  spec.spec.sweep.scenarios_per_point = engine::kMaxScenarios / 2;
  EXPECT_NO_THROW((void)parse_spec(serialize_spec(spec)));
}

TEST(JobValidation, SpecsNameTheirModesPolicyRule) {
  ShardSpec spec = small_spec(SweepMode::Sim);
  spec.spec.sweep.policies.push_back(engine::Policy::Opa);
  EXPECT_THROW(validate_spec(spec), std::invalid_argument);
  EXPECT_THROW((void)parse_spec(serialize_spec(spec)), std::invalid_argument);
  spec.mode = SweepMode::Analysis;
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(JobValidation, ArtifactRowCountIsCheckedBeforeAnyRowOrAllocation) {
  ShardSpec spec = small_spec(SweepMode::Analysis);
  spec.spec.sweep.points.resize(1);
  spec.spec.sweep.scenarios_per_point = 10'000'000;
  ShardArtifact art;
  art.spec = spec;
  art.range = engine::IdRange{0, 10'000'000};
  // The text form claims 10^7 ids with no rows: refused by the reader...
  try {
    (void)ShardArtifact::from_text(art.to_text());
    FAIL() << "a row-less 10^7-id artifact parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("0 outcome rows for a range of 10000000"),
              std::string::npos)
        << e.what();
  }
  // ...and the in-memory form by merge, before it sizes the merged result.
  try {
    (void)merge_shards({art});
    FAIL() << "merge accepted a row-less 10^7-id artifact";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("carries 0 outcomes"), std::string::npos) << e.what();
  }
}

TEST(JobValidation, OlderArtifactFormatsAreRefusedByName) {
  const std::string text = ShardRunner(1).run(small_spec(SweepMode::Analysis), 0, 1).to_text();
  ASSERT_EQ(text.substr(0, text.find('\n')), "profisched-shard v3");
  for (const std::string magic : {"profisched-shard v1", "profisched-shard v2"}) {
    try {
      (void)ShardArtifact::from_text(magic + text.substr(text.find('\n')));
      ADD_FAILURE() << magic << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + magic + "'"), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------------ one flag table

/// Parse `args` on `surface` (shard gets its required --shard/--out).
bool parse(Surface surface, std::vector<std::string> args, JobArgs& a, std::string& error) {
  if (surface == Surface::Shard) {
    args.insert(args.end(), {"--shard", "1/1", "--out", "/tmp/profisched-job-test.shard"});
  }
  return parse_job_args(surface, args, a, error);
}

std::string fail_message(Surface surface, const std::vector<std::string>& args) {
  JobArgs a;
  std::string error;
  EXPECT_FALSE(parse(surface, args, a, error));
  return error;
}

TEST(JobFlags, EmptyOutputPathsAreRejectedEverywhere) {
  for (const Surface s : {Surface::Sweep, Surface::Simulate, Surface::Optimize, Surface::Merge,
                          Surface::Submit}) {
    EXPECT_EQ(fail_message(s, {"--csv", ""}), "--csv needs a file path");
    EXPECT_EQ(fail_message(s, {"--json", ""}), "--json needs a file path");
  }
  EXPECT_EQ(fail_message(Surface::Shard, {"--metrics", ""}), "--metrics needs a file path");
}

TEST(JobFlags, SweepNamesTheBadFlag) {
  EXPECT_EQ(fail_message(Surface::Sweep, {"--frobnicate"}), "unknown sweep flag '--frobnicate'");
  EXPECT_EQ(fail_message(Surface::Sweep, {"--scenarios", "x"}),
            "--scenarios needs an integer in [1, 1e8]");
  // A range the flag parser leaves open is the spec's, named the same way a
  // SUBMIT spec block's is.
  EXPECT_EQ(fail_message(Surface::Sweep, {"--u", "1500:2000:1"}),
            "job: point u 1500 is outside (0, 1000]");
}

TEST(JobFlags, DeadlineRatiosFitInTicks) {
  // D = beta*T must fit in Ticks for every period the spec allows; a ratio of
  // 1e300 used to reach the generator, whose llround overflowed.
  for (const Surface s : {Surface::Sweep, Surface::Simulate, Surface::Optimize, Surface::Shard,
                          Surface::Submit}) {
    EXPECT_EQ(fail_message(s, {"--beta-lo", "1e300", "--beta-hi", "1e300"}),
              "--beta-lo must be <= 1000 (D = beta*T in Ticks)");
    EXPECT_EQ(fail_message(s, {"--beta-hi", "1e300"}),
              "--beta-hi must be <= 1000 (D = beta*T in Ticks)");
    EXPECT_EQ(fail_message(s, {"--beta", "0.5:1e300:2"}),
              "--beta grid needs HI <= 1000 (D = beta*T in Ticks)");
  }
  JobArgs a;
  std::string error;
  EXPECT_TRUE(parse(Surface::Sweep, {"--beta-lo", "1000", "--beta-hi", "1000"}, a, error))
      << error;
}

TEST(JobFlags, TtrStartsAtOne) {
  // Every point has u > 0, so generation is utilization-driven and needs a
  // T_TR: --ttr 0 is refused by name on every surface, and a spec block that
  // asks for it (a SUBMIT's, say) by validate_spec.
  for (const Surface s : {Surface::Sweep, Surface::Simulate, Surface::Optimize, Surface::Shard,
                          Surface::Submit}) {
    EXPECT_EQ(fail_message(s, {"--ttr", "0"}), "--ttr needs a tick count >= 1");
  }
  ShardSpec spec = small_spec(SweepMode::Analysis);
  spec.spec.sweep.base.ttr = 0;
  try {
    validate_spec(spec);
    ADD_FAILURE() << "ttr 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "job: ttr 0 is outside [1, 1000000000000000]");
  }
}

TEST(JobFlags, MethodAppliesToCombinedEverywhere) {
  // `simulate --combined --method paper` has the single-process twin its
  // shard set needs: all three surfaces build the same spec.
  std::vector<std::string> spec_blocks;
  for (const auto& [surface, args] :
       std::vector<std::pair<Surface, std::vector<std::string>>>{
           {Surface::Simulate, {"--combined", "--method", "refined"}},
           {Surface::Shard, {"--mode", "combined", "--method", "refined"}},
           {Surface::Submit, {"--method", "refined", "--mode", "combined"}}}) {
    JobArgs a;
    std::string error;
    ASSERT_TRUE(parse(surface, args, a, error)) << error;
    EXPECT_EQ(a.job.spec.spec.sweep.engine.method, profibus::TcycleMethod::PerMasterRefined);
    spec_blocks.push_back(serialize_spec(a.job.spec));
  }
  EXPECT_EQ(spec_blocks[0], spec_blocks[1]);
  EXPECT_EQ(spec_blocks[0], spec_blocks[2]);
}

TEST(JobFlags, SimulatorFlagsDoNotApplyToSweepMode) {
  for (const Surface s : {Surface::Sweep, Surface::Shard, Surface::Submit}) {
    EXPECT_EQ(fail_message(s, {"--reps", "3"}), "--reps does not apply to sweep mode");
    EXPECT_EQ(fail_message(s, {"--faults", "loss=0.1"}), "--faults does not apply to sweep mode");
  }
}

/// Every surface that builds a job accepts the same flags in the same mode,
/// and builds the same spec from them.
TEST(JobFlags, EverySurfaceAgreesInEveryMode) {
  const std::vector<std::vector<std::string>> flags = {
      {"--scenarios", "7"},   {"--masters", "2,3"},     {"--streams", "4"},
      {"--u", "0.2:0.6:3"},   {"--beta", "0.5:1:2"},    {"--beta-lo", "0.6"},
      {"--split", "1,2"},     {"--skew", "0.5"},        {"--policies", "dm,edf"},
      {"--policies", "opa"},  {"--policies", "token"},  {"--seed", "5"},
      {"--ttr", "4000"},      {"--method", "refined"},  {"--reps", "2"},
      {"--horizon", "9000"},  {"--cycles", "30"},       {"--model", "uniform"},
      {"--quantile", "0.5"},  {"--faults", "loss=0.1"}, {"--lp"},
      {"--scale-lo", "0.5"},  {"--scale-hi", "4"},      {"--ttr-cap", "90000"},
      {"--dratio-lo", "0.5"}, {"--dratio-hi", "2"},     {"--progress"},
      {"--metrics", "/tmp/profisched-job-test.json"},
  };
  const std::vector<std::pair<Surface, std::vector<std::string>>> batch = {
      {Surface::Sweep, {}},
      {Surface::Simulate, {}},
      {Surface::Simulate, {"--combined"}},
      {Surface::Optimize, {}}};
  for (const auto& [surface, selector] : batch) {
    JobArgs probe;
    std::string error;
    ASSERT_TRUE(parse(surface, selector, probe, error)) << error;
    const std::string word = trait(probe.job.spec.mode).word;
    for (const std::vector<std::string>& flag : flags) {
      SCOPED_TRACE(word + " " + flag[0]);
      std::vector<std::string> batch_args = selector;
      batch_args.insert(batch_args.end(), flag.begin(), flag.end());
      std::vector<std::string> mode_args = {"--mode", word};
      mode_args.insert(mode_args.end(), flag.begin(), flag.end());
      JobArgs b, sh, su;
      std::string eb, esh, esu;
      const bool ok = parse(surface, batch_args, b, eb);
      EXPECT_EQ(parse(Surface::Shard, mode_args, sh, esh), ok) << eb << " | " << esh;
      EXPECT_EQ(parse(Surface::Submit, mode_args, su, esu), ok) << eb << " | " << esu;
      if (ok) {
        EXPECT_EQ(serialize_spec(sh.job.spec), serialize_spec(b.job.spec));
        EXPECT_EQ(serialize_spec(su.job.spec), serialize_spec(b.job.spec));
      }
    }
  }
}

// ------------------------------------------------------------ cache keys

/// ScenarioCache that misses every lookup and records the params half of
/// each key, once, in first-lookup order.
class KeyRecorder : public engine::ScenarioCache {
 public:
  bool load(const engine::CacheKey& key, std::string&) override {
    const std::lock_guard lock(mu_);
    if (std::find(params.begin(), params.end(), key.params) == params.end()) {
      params.push_back(key.params);
    }
    return false;
  }
  void store(const engine::CacheKey&, const std::string&) override {}
  std::vector<std::uint64_t> params;

 private:
  std::mutex mu_;
};

TEST(CacheKeys, DefaultJobsKeepTheirKeys) {
  // The params half of every key a default job looks up, one per policy
  // (FCFS, DM, EDF), as earlier builds computed them when the engine's
  // formulation, fuel, horizon cap and histogram switch were still options.
  // A change here makes every cache warmed by those builds miss.
  const struct {
    Surface surface;
    std::vector<std::string> args;
  } jobs[] = {
      {Surface::Sweep, {}},
      {Surface::Simulate, {}},
      {Surface::Simulate, {"--combined"}},
      {Surface::Simulate, {"--combined", "--faults", "loss=0.02,corrupt=0.05,burst=0.7"}},
      {Surface::Optimize, {}},
  };
  const std::vector<std::uint64_t> keys[] = {
      {0x7ed0f9756c1587ddULL, 0xcafce3f633283becULL, 0x89825f42b20208dfULL},
      {0x63caec9944dfa910ULL, 0x6a2bebae87d58f09ULL, 0xe0081a08d168a5ceULL},
      {0x81656c9cd81bc891ULL, 0xca9216cfbf598cf1ULL, 0x934db1d2b17a5523ULL},
      {0x3ce1b42deedec1adULL, 0xc1fbd7516c64c006ULL, 0x49d158cb59b29f29ULL},
      {0xda2aeaf39c26166fULL, 0x16ccaf11426d36b2ULL, 0x05babcc9b4a50fb1ULL},
  };
  for (std::size_t j = 0; j < std::size(jobs); ++j) {
    std::vector<std::string> args = jobs[j].args;
    args.insert(args.end(), {"--scenarios", "1", "--u", "0.5:0.5:1"});  // the grid is not keyed
    JobArgs a;
    std::string error;
    ASSERT_TRUE(parse(jobs[j].surface, args, a, error)) << error;
    KeyRecorder recorder;
    (void)ShardRunner(1).run(a.job.spec, 0, 1, &recorder);
    EXPECT_EQ(recorder.params, keys[j]) << "job " << j;
  }
}

}  // namespace
}  // namespace profisched::dist
