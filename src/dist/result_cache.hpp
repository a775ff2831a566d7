// dist/result_cache.hpp — the persistent, content-addressed scenario-result
// store behind `profisched sweep/simulate/shard --cache <dir>`.
//
// One entry per (scenario, policy, options) cache key, one file per entry,
// named by the key's 128-bit hex and fanned out into 256 subdirectories on
// the first hex byte (flat directories degrade sharply at the many-millions-
// of-entries scale the CacheKey design targets). Entries carry a versioned
// header plus a key echo and payload length, so a format bump invalidates
// every old entry
// wholesale and a truncated, corrupted, or hash-colliding file is rejected
// as a miss — the engine then recomputes and overwrites it. Stores write to
// a unique temp file and rename() into place: within one directory that is
// atomic on POSIX, so any number of concurrent writers (threads or whole
// processes sharing the directory) race benignly — a reader sees either no
// entry or one complete entry, never a torn one.
//
// The cache is strictly advisory: every I/O failure degrades to a miss or a
// dropped store, never an exception out of load()/store() — a flaky disk
// must not kill a sweep that could simply recompute.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"

namespace profisched::dist {

class ResultCache final : public engine::ScenarioCache {
 public:
  /// Bump to invalidate every existing on-disk entry (the header carries it).
  static constexpr std::uint32_t kFormatVersion = 1;

  /// A `*.tmp.*` writer scratch file older than this at open time is treated
  /// as an orphan (its writer died between create and rename) and reaped. Any
  /// live writer renames within seconds, so 15 minutes is a wide safety
  /// margin for concurrent processes sharing the directory.
  static constexpr std::chrono::seconds kDefaultOrphanMinAge{15 * 60};

  /// Creates `dir` (and parents) if missing; throws std::runtime_error when
  /// the directory cannot be created at all. On open, sweeps orphaned temp
  /// files at least `orphan_min_age` old (age-gated so a concurrent writer's
  /// in-flight temp file is never touched).
  explicit ResultCache(std::string dir,
                       std::chrono::seconds orphan_min_age = kDefaultOrphanMinAge);

  bool load(const engine::CacheKey& key, std::string& payload) override;
  void store(const engine::CacheKey& key, const std::string& payload) override;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Entry file name for a key: 32 lower-case hex digits.
  [[nodiscard]] static std::string entry_name(const engine::CacheKey& key);

  /// Full path of a key's entry file: <dir>/<first 2 hex>/<entry_name>.
  [[nodiscard]] std::string entry_path(const engine::CacheKey& key) const;

 private:
  /// Delete `*.tmp.*` scratch files under dir_ whose mtime is at least
  /// `min_age` in the past, counting them in cache.file.orphans_reaped.
  /// Advisory like all cache I/O: any filesystem error just leaves the file
  /// for the next open.
  void sweep_orphaned_tmp(std::chrono::seconds min_age);

  std::string dir_;
  std::atomic<std::uint64_t> tmp_seq_{0};  ///< unique temp-file suffix source

  // The file-level series, the one count of this cache's traffic and distinct
  // from the runner's record-level cache.* series: hits, misses, stores,
  // reaped orphans, bytes moved and "heals" — entries that existed but were
  // refused (wrong version / foreign key / bad length / short read) and will
  // be recomputed and overwritten.
  obs::Counter obs_hits_ = obs::Registry::global().counter("cache.file.hits");
  obs::Counter obs_misses_ = obs::Registry::global().counter("cache.file.misses");
  obs::Counter obs_heals_ = obs::Registry::global().counter("cache.file.corruption_heals");
  obs::Counter obs_stores_ = obs::Registry::global().counter("cache.file.stores");
  obs::Counter obs_orphans_ = obs::Registry::global().counter("cache.file.orphans_reaped");
  obs::Counter obs_bytes_read_ = obs::Registry::global().counter("cache.file.bytes_read");
  obs::Counter obs_bytes_written_ = obs::Registry::global().counter("cache.file.bytes_written");
};

}  // namespace profisched::dist
