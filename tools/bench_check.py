#!/usr/bin/env python3
"""Gate a bench_runner result against the committed baseline.

Usage: bench_check.py CURRENT.json BASELINE.json

Checks, in order:
  1. schema match, and no stale baseline: every baseline key must be one the
     current run emits (a *_simd_ratio key only when the current run had a
     vector backend live), so the baseline cannot keep gates whose code the
     harness no longer runs;
  2. deterministic sanity — on same-config runs the simulator must process
     exactly the baseline's event count: a drift means the simulation
     behaved differently, not just slower;
  3. the headline acceptance: at least one in-binary speedup pair
     (reference vs optimized analyze) must show >= 2x;
  4. regression: no tracked speedup ratio may fall below half its baseline
     value, and no throughput metric below half the baseline (the ">2x
     regression fails" contract — ratios are machine-independent, the two
     throughput floors are the coarse backstop);
  5. SIMD dispatch: when the current run had a vector backend live
     (simd_active == 1) every scalar/vector ratio key must be present, show
     the vector path at least as fast as scalar (>= 0.9, noise margin), and
     not regress below half its baseline ratio. Runs without an active
     backend (-DPROFISCHED_NO_SIMD=ON builds, non-SIMD hosts) skip these
     gates — bench_runner itself exits non-zero on any scalar/vector result
     divergence, so CI still covers exactness there.

Exit code 0 = pass, 1 = fail (reasons on stderr).
"""
import json
import sys

SPEEDUP_PAIRS = [
    ("core_np_dm_analyze_ns_ref", "core_np_dm_analyze_ns_opt", "NP-DM analyze"),
    ("core_edf_analyze_ns_ref", "core_edf_analyze_ns_opt", "EDF analyze"),
]
THROUGHPUT_KEYS = ["engine_scenarios_per_sec", "sim_events_per_sec"]
SIMD_RATIO_KEYS = [
    ("core_np_dm_simd_ratio", "NP-DM analyze scalar/vector"),
    ("core_edf_simd_ratio", "EDF analyze scalar/vector"),
    ("core_busy_simd_ratio", "busy period scalar/vector"),
]
# The vector path may not be slower than scalar beyond timing noise.
SIMD_RATIO_FLOOR = 0.9


def fail(msg):
    print(f"bench_check: FAIL: {msg}", file=sys.stderr)
    return 1


def speedup(data, hi_key, lo_key):
    hi, lo = data.get(hi_key), data.get(lo_key)
    if hi is None or lo is None or lo <= 0:
        return None
    return hi / lo


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        cur = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    rc = 0
    if cur.get("schema") != base.get("schema"):
        rc |= fail(f"schema mismatch: {cur.get('schema')} vs {base.get('schema')}")

    simd_live = cur.get("simd_active") == 1
    for key in base:
        if key not in cur and (simd_live or not key.endswith("_simd_ratio")):
            rc |= fail(f"stale baseline: {key} is not emitted by the current run")

    same_config = cur.get("quick") == base.get("quick")
    if same_config and "sim_events_per_run" in base:
        if cur.get("sim_events_per_run") != base["sim_events_per_run"]:
            rc |= fail(
                "simulator event count drifted: "
                f"{cur.get('sim_events_per_run')} != {base['sim_events_per_run']} "
                "(behavioural change, not a perf regression)"
            )

    best = 0.0
    for hi, lo, label in SPEEDUP_PAIRS:
        cur_s = speedup(cur, hi, lo)
        if cur_s is None:
            rc |= fail(f"missing metric pair for {label}")
            continue
        best = max(best, cur_s)
        base_s = speedup(base, hi, lo)
        if base_s is not None and cur_s < base_s / 2.0:
            rc |= fail(
                f"{label} speedup regressed >2x: {cur_s:.2f}x now vs {base_s:.2f}x baseline"
            )
        base_txt = f"{base_s:.2f}x" if base_s is not None else "n/a"
        print(f"bench_check: {label}: {cur_s:.2f}x (baseline {base_txt})")

    if best < 2.0:
        rc |= fail(f"no tracked kernel reached the 2x acceptance bar (best {best:.2f}x)")

    if simd_live:
        for key, label in SIMD_RATIO_KEYS:
            cur_r = cur.get(key)
            if cur_r is None:
                rc |= fail(f"simd_active but missing ratio {key}")
                continue
            if cur_r < SIMD_RATIO_FLOOR:
                rc |= fail(f"{label} ratio {cur_r:.2f} below floor {SIMD_RATIO_FLOOR}")
            base_r = base.get(key) if base.get("simd_active") == 1 else None
            if base_r is not None and cur_r < base_r / 2.0:
                rc |= fail(
                    f"{label} regressed >2x: {cur_r:.2f}x now vs {base_r:.2f}x baseline"
                )
            base_txt = f"{base_r:.2f}x" if base_r is not None else "n/a"
            print(f"bench_check: {label}: {cur_r:.2f}x (baseline {base_txt})")
    else:
        print(
            f"bench_check: no vector backend active "
            f"(backend={cur.get('simd_backend')!r}) — SIMD ratio gates skipped"
        )

    for key in THROUGHPUT_KEYS:
        cur_v, base_v = cur.get(key), base.get(key)
        if cur_v is None or base_v is None:
            rc |= fail(f"missing throughput metric {key}")
        elif cur_v < base_v / 2.0:
            rc |= fail(f"{key} regressed >2x: {cur_v:.0f} vs baseline {base_v:.0f}")
        else:
            print(f"bench_check: {key}: {cur_v:.0f} (baseline {base_v:.0f})")

    if rc == 0:
        print(f"bench_check: PASS (best in-binary speedup {best:.2f}x)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
