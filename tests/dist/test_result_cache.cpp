// ResultCache contract: hit-after-miss determinism (cached results
// bit-identical to recomputed ones, across all three sweep modes),
// version-mismatch invalidation, corrupted-entry rejection, incremental
// policy-set re-sweeps, and concurrent writers sharing one directory (this
// suite runs under the CI TSan job via the dist_ test-name filter).
#include "dist/result_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "obs/metrics.hpp"

namespace profisched::dist {
namespace {

namespace fs = std::filesystem;

/// The process-wide `cache.file.<series>` counter, the one count of cache
/// file traffic; tests compare its deltas.
std::uint64_t file_count(const char* series) {
  return obs::Registry::global().snapshot().counter(std::string("cache.file.") + series);
}

/// Fresh cache directory per test, removed on destruction.
class CacheDir {
 public:
  explicit CacheDir(const char* name)
      : path_((fs::temp_directory_path() / "profisched_cache_test" / name).string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(fs::path(path_).parent_path()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

engine::SweepSpec small_sweep() {
  engine::SweepSpec spec;
  spec.base.n_masters = 2;
  spec.base.streams_per_master = 3;
  spec.base.ttr = 3'000;
  spec.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.8, 0.5, 1.0}};
  spec.scenarios_per_point = 5;
  spec.policies = {engine::Policy::Fcfs, engine::Policy::Dm};
  spec.seed = 7;
  return spec;
}

void expect_same_outcomes(const engine::SweepResult& a, const engine::SweepResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].seed, b.outcomes[i].seed);
    ASSERT_EQ(a.outcomes[i].cells.size(), b.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a.outcomes[i].cells.size(); ++p) {
      EXPECT_EQ(a.outcomes[i].cells[p].tcycle, b.outcomes[i].cells[p].tcycle);
      EXPECT_EQ(a.outcomes[i].cells[p].schedulable, b.outcomes[i].cells[p].schedulable);
    }
  }
}

TEST(ResultCache, PayloadRoundTrip) {
  const CacheDir dir("roundtrip");
  const std::uint64_t hits = file_count("hits"), misses = file_count("misses"),
                      stores = file_count("stores");
  ResultCache cache(dir.path());
  const engine::CacheKey key{0x1234'5678'9abc'def0ULL, 42};
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  cache.store(key, "a1 100 1 7\nwith embedded newline");
  ASSERT_TRUE(cache.load(key, payload));
  EXPECT_EQ(payload, "a1 100 1 7\nwith embedded newline");
  EXPECT_EQ(file_count("hits") - hits, 1u);
  EXPECT_EQ(file_count("misses") - misses, 1u);
  EXPECT_EQ(file_count("stores") - stores, 1u);
}

TEST(ResultCache, HitAfterMissIsBitIdentical) {
  const CacheDir dir("deterministic");
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  const engine::SweepResult plain = runner.run(spec);

  ResultCache cache(dir.path());
  const engine::SweepResult cold = runner.run(spec, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, spec.total_scenarios() * spec.policies.size());

  const engine::SweepResult warm = runner.run(spec, &cache);
  EXPECT_EQ(warm.cache_hits, spec.total_scenarios() * spec.policies.size());
  EXPECT_EQ(warm.cache_misses, 0u);

  expect_same_outcomes(plain, cold);
  expect_same_outcomes(plain, warm);
  EXPECT_EQ(engine::aggregate(spec, warm).to_csv(), engine::aggregate(spec, plain).to_csv());
}

TEST(ResultCache, SimAndCombinedModesHitWarm) {
  const CacheDir dir("sim");
  engine::SimSweepSpec spec;
  spec.sweep = small_sweep();
  spec.replications = 2;
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());

  const engine::SimSweepResult plain = runner.run_sim(spec);
  const engine::SimSweepResult cold = runner.run_sim(spec, &cache);
  const engine::SimSweepResult warm = runner.run_sim(spec, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(engine::aggregate_sim(spec, warm).to_csv(),
            engine::aggregate_sim(spec, plain).to_csv());

  // Combined records are keyed separately (they carry the joined columns):
  // the sim-mode entries above must not leak into combined mode.
  const engine::CombinedResult cplain = runner.run_combined(spec);
  const engine::CombinedResult ccold = runner.run_combined(spec, &cache);
  EXPECT_EQ(ccold.cache_hits, 0u);
  const engine::CombinedResult cwarm = runner.run_combined(spec, &cache);
  EXPECT_EQ(cwarm.cache_misses, 0u);
  EXPECT_EQ(engine::consistency_table(spec, cwarm).to_csv(),
            engine::consistency_table(spec, cplain).to_csv());
}

TEST(ResultCache, PolicySetChangeRecomputesOnlyMisses) {
  const CacheDir dir("policies");
  engine::SweepSpec spec = small_sweep();
  spec.policies = {engine::Policy::Fcfs};
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());
  (void)runner.run(spec, &cache);

  // Adding DM and EDF re-sweeps the same scenarios: FCFS entries hit, only
  // the new policies compute (ROADMAP's "incremental re-sweep" item).
  spec.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  const engine::SweepResult extended = runner.run(spec, &cache);
  EXPECT_EQ(extended.cache_hits, spec.total_scenarios());
  EXPECT_EQ(extended.cache_misses, 2 * spec.total_scenarios());

  engine::SweepRunner reference(2);
  expect_same_outcomes(reference.run(spec), extended);
}

TEST(ResultCache, AddedUPointsReuseExistingEntries) {
  const CacheDir dir("upoints");
  engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  ResultCache cache(dir.path());
  (void)runner.run(spec, &cache);

  // Appending a u-point keeps the existing points' ids — and the cache is
  // content-addressed anyway, so every previously-swept scenario hits.
  engine::SweepSpec wider = spec;
  wider.points.push_back(engine::SweepPoint{1.1, 0.5, 1.0});
  const engine::SweepResult r = runner.run(wider, &cache);
  EXPECT_EQ(r.cache_hits, spec.total_scenarios() * spec.policies.size());
  EXPECT_EQ(r.cache_misses, wider.scenarios_per_point * wider.policies.size());
}

TEST(ResultCache, VersionMismatchInvalidates) {
  const CacheDir dir("version");
  ResultCache cache(dir.path());
  const engine::CacheKey key{1, 2};
  cache.store(key, "payload");
  const std::string entry = cache.entry_path(key);

  // Rewrite the entry as a future format version: load must reject it (and
  // a subsequent store/load cycle must recover the slot).
  {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os << "profisched-cache v999\nkey " << ResultCache::entry_name(key) << "\nlen 7\npayload";
  }
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  cache.store(key, "payload");
  EXPECT_TRUE(cache.load(key, payload));
  EXPECT_EQ(payload, "payload");
}

TEST(ResultCache, CorruptedEntriesAreRejected) {
  const CacheDir dir("corrupt");
  ResultCache cache(dir.path());
  const engine::CacheKey key{3, 4};
  cache.store(key, "intact payload bytes");
  const std::string entry = cache.entry_path(key);
  std::string payload;

  const auto write_entry = [&](const std::string& bytes) {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os << bytes;
  };
  // Truncated payload, garbage, empty file, and a key echo that does not
  // match the filename (a renamed/colliding entry) must all read as misses.
  write_entry("profisched-cache v1\nkey " + ResultCache::entry_name(key) + "\nlen 20\nshort");
  EXPECT_FALSE(cache.load(key, payload));
  write_entry("complete garbage");
  EXPECT_FALSE(cache.load(key, payload));
  write_entry("");
  EXPECT_FALSE(cache.load(key, payload));
  write_entry("profisched-cache v1\nkey 00000000000000000000000000000000\nlen 3\nabc");
  EXPECT_FALSE(cache.load(key, payload));

  // A corrupted entry in a live sweep is recomputed and healed, not trusted.
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner runner(2);
  ResultCache swept(dir.path());
  (void)runner.run(spec, &swept);
  for (const auto& e : fs::recursive_directory_iterator(dir.path())) {
    if (!e.is_regular_file()) continue;  // skip the fan-out subdirectories
    std::ofstream os(e.path(), std::ios::binary | std::ios::trunc);
    os << "junk";
  }
  const engine::SweepResult healed = runner.run(spec, &swept);
  EXPECT_EQ(healed.cache_hits, 0u);  // every entry was junk
  const engine::SweepResult warm = runner.run(spec, &swept);
  EXPECT_EQ(warm.cache_misses, 0u);  // ...and every entry got rewritten
  engine::SweepRunner reference(2);
  expect_same_outcomes(reference.run(spec), warm);
}

TEST(ResultCache, EqualContentDifferentSeedScenariosDoNotShareSimRecords) {
  // Adversarial construction: one stream per master with every generator
  // knob pinned (fixed frame sizes, beta_lo == beta_hi, no LP traffic,
  // UUniFast with n = 1 is deterministic) makes every scenario of a point
  // byte-identical in CONTENT while keeping distinct RNG seeds. Simulation
  // outcomes still differ across them (replication draws derive from the
  // seed), so a cache that keyed sim records by content alone would serve
  // scenario 0's record to every sibling and silently corrupt the sweep.
  const CacheDir dir("seeded");
  engine::SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 1;
  spec.sweep.base.request_chars_min = spec.sweep.base.request_chars_max = 20;
  spec.sweep.base.response_chars_min = spec.sweep.base.response_chars_max = 20;
  spec.sweep.base.low_priority_traffic = false;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.9, 1.0, 1.0}};
  spec.sweep.scenarios_per_point = 4;
  spec.sweep.policies = {engine::Policy::Fcfs};
  spec.sweep.seed = 5;
  spec.replications = 3;  // reps >= 1 draw random phases from the seed
  spec.sim.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;

  const engine::Scenario s0 = engine::SweepRunner::make_scenario(spec.sweep, 0);
  const engine::Scenario s1 = engine::SweepRunner::make_scenario(spec.sweep, 1);
  ASSERT_EQ(engine::canonical_hash(s0), engine::canonical_hash(s1));  // setup is adversarial
  ASSERT_NE(s0.seed, s1.seed);

  engine::SweepRunner runner(2);
  const engine::SimSweepResult plain = runner.run_sim(spec);
  // The distinct seeds genuinely matter: sibling scenarios observe different
  // maxima (uniform cycle draws + random phases).
  EXPECT_NE(plain.outcomes[0].cells[0].observed_max, plain.outcomes[1].cells[0].observed_max);

  ResultCache cache(dir.path());
  (void)runner.run_sim(spec, &cache);
  const engine::SimSweepResult warm = runner.run_sim(spec, &cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(engine::aggregate_sim(spec, warm).to_csv(),
            engine::aggregate_sim(spec, plain).to_csv());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    ASSERT_EQ(warm.outcomes[i].cells.size(), plain.outcomes[i].cells.size());
    for (std::size_t p = 0; p < plain.outcomes[i].cells.size(); ++p) {
      EXPECT_EQ(warm.outcomes[i].cells[p].observed_max, plain.outcomes[i].cells[p].observed_max)
          << i;
      EXPECT_EQ(warm.outcomes[i].cells[p].misses, plain.outcomes[i].cells[p].misses) << i;
    }
  }
}

TEST(ResultCache, OpenSweepsOldOrphanTmpFilesButSparesFreshOnes) {
  const CacheDir dir("orphans");
  const engine::CacheKey key{0xabcd, 0xef01};
  fs::path real_entry;
  {
    // Populate one real entry, then plant writer scratch files around it as
    // if two processes died mid-store: one long ago, one a moment ago.
    ResultCache seeder(dir.path());
    seeder.store(key, "kept payload");
    real_entry = seeder.entry_path(key);
  }
  const fs::path old_orphan = real_entry.string() + ".tmp.4242.77.0";
  const fs::path fresh_orphan = real_entry.string() + ".tmp.4243.88.1";
  std::ofstream(old_orphan) << "half-written";
  std::ofstream(fresh_orphan) << "still being written";
  fs::last_write_time(old_orphan, fs::file_time_type::clock::now() - std::chrono::hours(2));

  const std::uint64_t reaped = file_count("orphans_reaped");
  ResultCache cache(dir.path(), /*orphan_min_age=*/std::chrono::minutes(5));
  EXPECT_EQ(file_count("orphans_reaped") - reaped, 1u);
  EXPECT_FALSE(fs::exists(old_orphan));      // the dead writer's leak is gone
  EXPECT_TRUE(fs::exists(fresh_orphan));     // a live writer's file survives
  std::string payload;
  EXPECT_TRUE(cache.load(key, payload));     // real entries are never touched
  EXPECT_EQ(payload, "kept payload");
}

TEST(ResultCache, OrphanSweepIgnoresNonTmpNamesAndEmptyDirs) {
  const CacheDir dir("orphans_safe");
  // Opening a brand-new (empty) directory sweeps nothing and must not throw.
  const std::uint64_t reaped = file_count("orphans_reaped");
  ResultCache first(dir.path(), std::chrono::seconds(0));
  EXPECT_EQ(file_count("orphans_reaped") - reaped, 0u);

  // With min_age 0 every tmp file qualifies immediately; entry files and
  // oddly-named bystanders still survive because only `*.tmp.*` is reaped.
  const engine::CacheKey key{7, 9};
  first.store(key, "payload");
  const fs::path bystander = fs::path(dir.path()) / "README";
  std::ofstream(bystander) << "not a scratch file";
  std::ofstream(first.entry_path(key) + ".tmp.1.2.3") << "orphan";

  ResultCache second(dir.path(), std::chrono::seconds(0));
  EXPECT_EQ(file_count("orphans_reaped") - reaped, 1u);
  EXPECT_TRUE(fs::exists(bystander));
  std::string payload;
  EXPECT_TRUE(second.load(key, payload));
  EXPECT_EQ(payload, "payload");
}

TEST(ResultCache, ConcurrentWritersSharingOneDirectory) {
  const CacheDir dir("concurrent");
  const engine::SweepSpec spec = small_sweep();
  engine::SweepRunner reference(2);
  const engine::SweepResult plain = reference.run(spec);

  // Two populators race on one cold directory — as two processes sharing a
  // cache would. Each uses its own multi-threaded runner, so stores collide
  // both within and across ResultCache instances.
  ResultCache a(dir.path()), b(dir.path());
  engine::SweepResult ra, rb;
  std::thread ta([&] { ra = engine::SweepRunner(2).run(spec, &a); });
  std::thread tb([&] { rb = engine::SweepRunner(2).run(spec, &b); });
  ta.join();
  tb.join();
  expect_same_outcomes(plain, ra);
  expect_same_outcomes(plain, rb);

  ResultCache warm_cache(dir.path());
  const engine::SweepResult warm = reference.run(spec, &warm_cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  expect_same_outcomes(plain, warm);
}

}  // namespace
}  // namespace profisched::dist
