#!/usr/bin/env python3
"""Validate a --metrics run-manifest sidecar (see src/obs/manifest.hpp).

Usage: metrics_check.py MANIFEST.json [--scenarios N]

Checks, in order:
  1. schema and required run keys (tool, subcommand, argv, config_digest,
     scenarios, points, policies, replications, threads, elapsed_s);
  2. series hygiene — every section sorted by unique name, all values
     non-negative integers;
  3. phase accounting — the `phase.*` timers are sequential sub-intervals
     of the command, so their total_ns must sum to <= elapsed_s (plus a
     small slack for clock granularity);
  4. cache coherence — when the record-level cache series are present,
     cache.hits + cache.misses == cache.lookups, and the file-level
     cache.file.corruption_heals <= cache.file.misses;
  5. histogram internal consistency — count == sum(bins) for every
     histogram;
  6. stage attribution — a process that completed scenarios timed their
     generation (runner.generate counts at least one span per completed
     scenario) and their analysis or simulation (runner.analyze or
     runner.simulate counts some span) — except a combined run whose cells
     all came from the cache (cache.lookups > 0, cache.misses == 0), since
     `simulate --combined` times only the cells it computes;
  7. simulation sharing — a process that simulated (sim.replications > 0)
     ran 0 < sim.events_executed <= sim.events: the policies of one
     replication share their common prefix, so the kernels run at most the
     events the per-policy runs count;
  8. optimizer accounting — a process that bisected (opt.bisections > 0)
     reached at least one master verdict per probe, by analysis or from the
     per-master bracket: opt.master_verdicts.analysed + .decided >= the sum
     of opt.probes.*; the D/T probes keep no bracket, so
     opt.probes.dratio <= .analysed_dratio <= .analysed;
  9. simulation series — a simulation run (subcommand `simulate`, or
     `--mode simulate|combined` in argv) lists the sim.* series, at zero
     when each of its cells came from the cache: the simulation bridge
     registers them all at once, so sim.replications stands for them;
 10. optionally (--scenarios N) that runner.scenarios_completed matches the
     scenario count the caller expected the process to execute.

Exit code 0 = pass, 1 = fail (reasons on stderr).
"""
import json
import sys

SCHEMA = "profisched-metrics-v1"
RUN_KEYS = [
    "schema",
    "tool",
    "subcommand",
    "argv",
    "config_digest",
    "scenarios",
    "points",
    "policies",
    "replications",
    "threads",
    "elapsed_s",
]
# Fraction of elapsed_s the phase sum may exceed it by: steady-clock reads at
# phase edges land nanoseconds apart from the whole-command bracket.
PHASE_SLACK = 0.05


def fail(msg):
    print(f"metrics_check: FAIL: {msg}", file=sys.stderr)
    return 1


def run_modes(doc):
    """The engine modes a command ran: its `--mode` values, or simulate's own."""
    argv = doc["argv"]
    modes = {argv[i + 1] for i in range(len(argv) - 1) if argv[i] == "--mode"}
    if doc["subcommand"] == "simulate":
        modes.add("combined" if "--combined" in argv else "simulate")
    return modes


def check_section(doc, section, value_keys):
    """Sorted unique names + non-negative integer values; returns name->entry."""
    entries = doc.get(section)
    if not isinstance(entries, list):
        raise ValueError(f"'{section}' missing or not a list")
    names = [e["name"] for e in entries]
    if names != sorted(names):
        raise ValueError(f"'{section}' not sorted by name")
    if len(names) != len(set(names)):
        raise ValueError(f"'{section}' has duplicate names")
    for e in entries:
        for k in value_keys:
            v = e.get(k)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{section}/{e['name']}: '{k}' not a non-negative integer")
    return {e["name"]: e for e in entries}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    expect_scenarios = None
    if len(argv) >= 4 and argv[2] == "--scenarios":
        expect_scenarios = int(argv[3])

    with open(path) as f:
        doc = json.load(f)

    missing = [k for k in RUN_KEYS if k not in doc]
    if missing:
        return fail(f"missing run keys: {', '.join(missing)}")
    if doc["schema"] != SCHEMA:
        return fail(f"schema is '{doc['schema']}', expected '{SCHEMA}'")
    if doc["tool"] != "profisched":
        return fail(f"tool is '{doc['tool']}'")
    if not isinstance(doc["argv"], list):
        return fail("argv is not a list")
    if not isinstance(doc["elapsed_s"], (int, float)) or doc["elapsed_s"] < 0:
        return fail("elapsed_s is not a non-negative number")

    try:
        counters = check_section(doc, "counters", ["value"])
        check_section(doc, "gauges", ["value"])
        timers = check_section(doc, "timers", ["count", "total_ns"])
        histograms = check_section(doc, "histograms", ["count", "sum"])
    except (ValueError, KeyError, TypeError) as e:
        return fail(str(e))

    phase_ns = sum(t["total_ns"] for name, t in timers.items() if name.startswith("phase."))
    budget_ns = doc["elapsed_s"] * 1e9 * (1.0 + PHASE_SLACK) + 1e6
    if phase_ns > budget_ns:
        return fail(
            f"phase.* timers sum to {phase_ns} ns > wall time "
            f"{doc['elapsed_s']} s (phases must be sequential sub-intervals)"
        )

    if "cache.lookups" in counters:
        hits = counters.get("cache.hits", {"value": 0})["value"]
        misses = counters.get("cache.misses", {"value": 0})["value"]
        lookups = counters["cache.lookups"]["value"]
        if hits + misses != lookups:
            return fail(
                f"cache.hits ({hits}) + cache.misses ({misses}) != cache.lookups ({lookups})"
            )
    if "cache.file.corruption_heals" in counters:
        heals = counters["cache.file.corruption_heals"]["value"]
        file_misses = counters.get("cache.file.misses", {"value": 0})["value"]
        if heals > file_misses:
            return fail(
                f"cache.file.corruption_heals ({heals}) > cache.file.misses ({file_misses})"
            )

    for name, h in histograms.items():
        bins = h.get("bins")
        if not isinstance(bins, list) or any(not isinstance(b, int) or b < 0 for b in bins):
            return fail(f"histogram {name}: bad bins")
        if sum(bins) != h["count"]:
            return fail(f"histogram {name}: count {h['count']} != sum(bins) {sum(bins)}")

    def counter(name):
        return counters.get(name, {"value": 0})["value"]

    done = counter("runner.scenarios_completed")
    if done > 0:
        spans = {s: timers.get(f"runner.{s}", {"count": 0})["count"]
                 for s in ("generate", "analyze", "simulate")}
        if spans["generate"] < done:
            return fail(f"runner.generate counts {spans['generate']} spans for {done} "
                        "completed scenarios")
        all_cached = counter("cache.lookups") > 0 and counter("cache.misses") == 0
        exempt = all_cached and "combined" in run_modes(doc)
        if not exempt and spans["analyze"] + spans["simulate"] == 0:
            return fail(f"{done} scenarios completed, but runner.analyze and "
                        "runner.simulate timed nothing")

    if counter("sim.replications") > 0:
        events = counter("sim.events")
        executed = counter("sim.events_executed")
        if not 0 < executed <= events:
            return fail(f"sim.events_executed ({executed}) outside (0, sim.events = {events}]")

    if counter("opt.bisections") > 0:
        probes = sum(counter(f"opt.probes.{axis}") for axis in ("breakdown", "ttr", "dratio"))
        analysed = counter("opt.master_verdicts.analysed")
        decided = counter("opt.master_verdicts.decided")
        dratio = counter("opt.master_verdicts.analysed_dratio")
        if analysed + decided < probes:
            return fail(f"opt.master_verdicts.analysed ({analysed}) + .decided ({decided}) < "
                        f"the {probes} opt.probes.* (every probe decides a master)")
        if not counter("opt.probes.dratio") <= dratio <= analysed:
            return fail(f"opt.master_verdicts.analysed_dratio ({dratio}) outside "
                        f"[opt.probes.dratio = {counter('opt.probes.dratio')}, "
                        f".analysed = {analysed}]")

    if run_modes(doc) & {"simulate", "combined"} and "sim.replications" not in counters:
        return fail("a simulation run's sidecar lacks the sim.* series")

    if expect_scenarios is not None:
        if done != expect_scenarios:
            return fail(f"runner.scenarios_completed is {done}, expected {expect_scenarios}")

    print(
        f"metrics_check: OK: {doc['subcommand']} manifest, "
        f"{len(counters)} counters, {len(timers)} timers, "
        f"phase sum {phase_ns / 1e9:.3f} s / wall {doc['elapsed_s']:.3f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
