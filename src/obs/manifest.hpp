// manifest.hpp — the versioned metrics + run-manifest JSON sidecar emitted
// by `--metrics FILE` on every subcommand. One document records what ran
// (subcommand, argv, config digest, scenario/thread counts, wall time) and
// every registry series at exit, so an artifact's provenance and cost are
// reconstructable without rerunning. The grammar sticks to the engine's
// serialize conventions (to_chars numbers, escape-free strings) so the
// existing JsonCursor parses it and output bytes are host-independent.
//
// Schema "profisched-metrics-v1":
//   {
//     "schema": "profisched-metrics-v1",
//     "tool": "profisched", "subcommand": "sweep",
//     "argv": ["--scenarios", "40", ...],
//     "config_digest": U64,          FNV-1a of the serialized shard-spec
//     "scenarios": N, "points": N, "policies": N, "replications": N,
//     "threads": N,
//     "elapsed_s": F,                fixed-6 wall time of the whole command
//     "counters":   [{"name": S, "value": U64}, ...],        sorted by name
//     "gauges":     [{"name": S, "value": U64}, ...],
//     "timers":     [{"name": S, "count": U64, "total_ns": U64}, ...],
//     "histograms": [{"name": S, "count": U64, "sum": U64,
//                     "bins": [U64, ...]}, ...]    power-of-two bins,
//   }                                              trailing zeros trimmed
//
// Invariants metrics_check.py enforces: sum of `phase.*` timer totals is
// <= elapsed_s (phases are sequential sub-intervals of the command), cache
// hits + misses == lookups, histogram count == sum(bins), sorted unique
// series names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace profisched::obs {

inline constexpr const char* kManifestSchema = "profisched-metrics-v1";

/// Provenance half of the sidecar: what ran and how big it was.
struct RunInfo {
  std::string tool = "profisched";
  std::string subcommand;
  std::vector<std::string> argv;  ///< flags after the subcommand, verbatim
  std::uint64_t config_digest = 0;
  std::uint64_t scenarios = 0;  ///< scenarios this process executed
  std::uint64_t points = 0;
  std::uint64_t policies = 0;
  std::uint64_t replications = 0;
  std::uint64_t threads = 0;
  double elapsed_s = 0.0;  ///< whole-command wall time
};

struct Manifest {
  RunInfo run;
  Snapshot metrics;
};

/// Serialize to the schema above. Strings are sanitized to the escape-free
/// grammar ('"', '\\', and control bytes become '?').
[[nodiscard]] std::string to_json(const Manifest& m);

/// Parse a to_json() document back. Throws std::invalid_argument on
/// malformed input, a schema mismatch, or any bytes to_json would not write
/// for the parsed manifest (other whitespace, number spellings, trailing
/// bytes), so every accepted document round-trips byte-identically.
[[nodiscard]] Manifest parse_manifest(const std::string& json);

/// Write to_json(m) to `path`; returns false on I/O failure.
[[nodiscard]] bool write_manifest_file(const std::string& path, const Manifest& m);

}  // namespace profisched::obs
