#!/usr/bin/env python3
"""Perf-regression gate: compare BENCH_*.json reports against committed baselines.

Usage:
    scripts/bench_compare.py --baseline bench/baselines --candidate bench-out \
        [--threshold 15] [--bench fig4_throughput --bench fig5_pipeline ...] \
        [--update]

With --update the comparison still runs and prints per-scalar deltas, but
instead of gating, every candidate BENCH_*.json is written over the baseline
directory (intentional perf changes are recorded by committing the refreshed
baselines). Baselines are slim: the report header plus, per run, only the
sections this gate reads (BASELINE_RUN_KEYS); stages, histograms, gauges,
timelines and critical-path exemplars stay in the full reports. New candidate
reports are added; exit status is 0 unless files cannot be read or written.

For every BENCH_<name>.json in the baseline directory (optionally restricted
with --bench), the candidate directory must contain a report with the same
name, the same run labels, and the same scalar keys. Each scalar is classified
by name:

  higher-is-better:  contains "throughput", "kops", or "ops_per_sec"
  lower-is-better:   ends in "_us" or contains "latency"
  informational:     everything else (drop counts, fault edges, ...) -- never
                     gates, printed for context only.

A gated scalar that is more than --threshold percent worse than its baseline
fails the comparison; a missing candidate report, run, or scalar also fails
(silently dropping a bench is itself a regression). Exception: runs whose
label matches an entry in INFORMATIONAL_LABELS -- "stage_mix" (experimental
stage-composition sweeps), "proto_" (alternative replication-protocol runs:
quorum trades fan-out bandwidth for commit latency) and "scaleout_"
(open-loop shard sweeps: absolute rates shift with load-generator tuning) --
never gate, and such a run present on only one side is reported as a note,
not a failure (new protocols, stage plugins and sweep points can be
benchmarked before their baselines are committed). The "meta" block (git sha, wall runtime) is
provenance and is always ignored.

Three deterministic counters from each run's "counters" section are gated
too, lower-is-better, at the much tighter COUNTER_THRESHOLD_PCT (0.5
percent): "sim.events_processed" (DES events the run took),
"sim.queue_depth_max" (the engine's pending-event high-water mark) and
"pmem.bytes_backed" (host memory backing the run's simulated PM). The
simulation is deterministic, so these move only when the work the simulator
does changes; they stand in for wall time, which is too noisy to gate. A
counter absent from the baseline is not gated (older baselines predate it);
one present in the baseline but missing from the candidate fails.

A run's "config" section (the knobs the bench set) is not gated by value, but
its key set must equal the baseline run's: a key that only one side has means
a knob was added, renamed or removed without refreshing the baselines, so the
baseline no longer describes what the code runs. Every such run is printed
with the keys each side lacks, and the comparison fails.

Schema v3 adds a per-run "timeline" section (windowed virtual-time series:
delivered/shed rate, queue depth, latency percentiles per window) plus
"p999"/"p999_us" fields on histogram summaries. The timeline is purely
informational for this gate -- only "scalars" and the three counters above are
compared, and a v3 candidate gates cleanly against a v2 baseline (the extra
fields are simply never looked at). Exit status: 0 clean, 1 regression or
structural mismatch, 2 usage/IO error.

Only the Python standard library is used.
"""

import argparse
import json
import os
import sys

HIGHER_BETTER = ("throughput", "kops", "ops_per_sec")
GATED_COUNTERS = ("sim.events_processed", "sim.queue_depth_max", "pmem.bytes_backed")
# Limit for GATED_COUNTERS: they are deterministic, so they need no room for noise.
COUNTER_THRESHOLD_PCT = 0.5
LOWER_BETTER = ("latency",)
LOWER_BETTER_SUFFIX = "_us"
# Per-run sections a committed baseline keeps: what the gate compares, plus
# the virtual time for context.
BASELINE_RUN_KEYS = ("label", "scalars", "counters", "config", "virtual_time_us")


def classify(name):
    """Returns +1 (higher better), -1 (lower better), or 0 (informational)."""
    lowered = name.lower()
    if any(tag in lowered for tag in HIGHER_BETTER):
        return 1
    if lowered.endswith(LOWER_BETTER_SUFFIX) or any(tag in lowered for tag in LOWER_BETTER):
        return -1
    return 0


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def runs_by_label(report, path):
    out = {}
    for run in report.get("runs", []):
        label = run.get("label", "")
        if label in out:
            raise SystemExit(f"error: duplicate run label {label!r} in {path}")
        out[label] = run
    return out


# Run-label substrings whose runs are tracked but never gated (experimental
# sweeps whose absolute numbers are expected to move): see module docstring.
INFORMATIONAL_LABELS = ("stage_mix", "proto_", "scaleout_")


def informational_label(label):
    """Experimental-sweep runs (stage-mix, alternative protocols, scale-out
    shard sweeps) are tracked but never gated."""
    return any(tag in label for tag in INFORMATIONAL_LABELS)


def gate(direction, base_val, cand_val, threshold_pct):
    """Returns (delta_pct, worse) for one value; delta_pct is None at base 0."""
    delta_pct = None
    if base_val != 0:
        delta_pct = 100.0 * (cand_val - base_val) / abs(base_val)
    if direction == 0:
        return delta_pct, False
    if base_val == 0:
        # Can't compute a ratio; gate only on a worse sign.
        return delta_pct, (cand_val < 0 if direction > 0 else cand_val > 0)
    worse_pct = -delta_pct if direction > 0 else delta_pct
    return delta_pct, worse_pct > threshold_pct


def compare_report(name, base, cand, threshold_pct, failures, rows):
    base_runs = runs_by_label(base, name)
    cand_runs = runs_by_label(cand, name)
    for label, base_run in base_runs.items():
        informational_run = informational_label(label)
        cand_run = cand_runs.get(label)
        if cand_run is None:
            if informational_run:
                print(f"note: {name}: informational run {label!r} absent from candidate "
                      "(not gated)")
            else:
                failures.append(f"{name}: run {label!r} missing from candidate")
            continue
        base_keys = set(base_run.get("config", {}))
        cand_keys = set(cand_run.get("config", {}))
        if base_keys != cand_keys:
            drift = (f"{name}/{label}: config keys differ from baseline "
                     f"(only in baseline: {sorted(base_keys - cand_keys)}, "
                     f"only in candidate: {sorted(cand_keys - base_keys)})")
            print(f"config drift: {drift}")
            failures.append(drift)
        # (key, baseline, candidate, direction, threshold) for every gated value.
        checks = []
        base_scalars = base_run.get("scalars", {})
        cand_scalars = cand_run.get("scalars", {})
        for key, base_val in base_scalars.items():
            checks.append((key, base_val, cand_scalars.get(key), classify(key), threshold_pct))
        base_counters = base_run.get("counters", {})
        cand_counters = cand_run.get("counters", {})
        for key in GATED_COUNTERS:
            if key in base_counters:
                checks.append((key, base_counters[key], cand_counters.get(key), -1,
                               COUNTER_THRESHOLD_PCT))
        for key, base_val, cand_val, direction, limit in checks:
            if informational_run:
                direction = 0
            if cand_val is None:
                if informational_run:
                    continue
                failures.append(f"{name}/{label}: {key!r} missing from candidate")
                continue
            delta_pct, worse = gate(direction, base_val, cand_val, limit)
            verdict = "info" if direction == 0 else "ok"
            if worse:
                verdict = "FAIL"
                failures.append(
                    f"{name}/{label}: {key} regressed "
                    f"{base_val:g} -> {cand_val:g} "
                    f"({delta_pct:+.1f}%, limit {limit:g}%)"
                )
            rows.append((name, label, key, base_val, cand_val, delta_pct, verdict, direction))
    for label in cand_runs:
        if label not in base_runs and informational_label(label):
            print(f"note: {name}: informational run {label!r} has no committed baseline "
                  "(not gated)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="directory of baseline BENCH_*.json")
    parser.add_argument("--candidate", required=True, help="directory of fresh BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="max tolerated regression, percent (default 15)")
    parser.add_argument("--bench", action="append", default=None,
                        help="gate only BENCH_<name>.json (repeatable; default: all baselines)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline dir from the candidate reports instead of "
                             "gating (prints per-scalar deltas, exits 0)")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline):
        print(f"error: baseline dir {args.baseline!r} not found", file=sys.stderr)
        return 2
    names = sorted(
        f[len("BENCH_"):-len(".json")]
        for f in os.listdir(args.baseline)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if args.bench:
        missing = [b for b in args.bench if b not in names]
        if missing:
            print(f"error: no baseline for {missing}", file=sys.stderr)
            return 2
        names = [n for n in names if n in args.bench]
    if not names:
        print("error: no BENCH_*.json baselines found", file=sys.stderr)
        return 2

    failures = []
    rows = []
    for name in names:
        base_path = os.path.join(args.baseline, f"BENCH_{name}.json")
        cand_path = os.path.join(args.candidate, f"BENCH_{name}.json")
        try:
            base = load_report(base_path)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {base_path}: {e}", file=sys.stderr)
            return 2
        if not os.path.exists(cand_path):
            failures.append(f"{name}: candidate report {cand_path} missing")
            continue
        try:
            cand = load_report(cand_path)
        except (OSError, ValueError) as e:
            failures.append(f"{name}: cannot read candidate: {e}")
            continue
        compare_report(name, base, cand, args.threshold, failures, rows)

    width = max((len(f"{n}/{l}") for n, l, *_ in rows), default=20)
    print(f"{'bench/run':<{width}}  {'scalar':<28} {'baseline':>14} {'candidate':>14} "
          f"{'delta':>8}  verdict")
    for name, label, key, base_val, cand_val, delta_pct, verdict, _ in rows:
        delta = f"{delta_pct:+.1f}%" if delta_pct is not None else "n/a"
        print(f"{name + '/' + label:<{width}}  {key:<28} {base_val:>14.3f} "
              f"{cand_val:>14.3f} {delta:>8}  {verdict}")

    if args.update:
        return update_baselines(args, rows)

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(rows)} values within their limits (scalars {args.threshold:g}%, "
          f"counters {COUNTER_THRESHOLD_PCT:g}%)")
    return 0


def slim_report(report):
    """The report header plus each run's BASELINE_RUN_KEYS sections."""
    slim = {key: value for key, value in report.items() if key != "runs"}
    slim["runs"] = [{key: value for key, value in run.items() if key in BASELINE_RUN_KEYS}
                    for run in report.get("runs", [])]
    return slim


def update_baselines(args, rows):
    """Writes every candidate BENCH_*.json, slimmed, over the baseline dir
    (adding new reports) and summarizes how the gated scalars moved."""
    cand_files = sorted(
        f for f in os.listdir(args.candidate)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if args.bench:
        cand_files = [f for f in cand_files
                      if f[len("BENCH_"):-len(".json")] in args.bench]
    if not cand_files:
        print("error: no candidate BENCH_*.json to update from", file=sys.stderr)
        return 2

    improved = regressed = 0
    print("\nbaseline update: per-value movement (gated scalars and counters only)")
    for name, label, key, base_val, cand_val, delta_pct, _, direction in rows:
        if direction == 0 or delta_pct is None:
            continue
        better_pct = delta_pct if direction > 0 else -delta_pct
        tag = "improved" if better_pct > 0 else ("regressed" if better_pct < 0 else "unchanged")
        improved += better_pct > 0
        regressed += better_pct < 0
        print(f"  {name}/{label}: {key} {base_val:g} -> {cand_val:g} "
              f"({better_pct:+.1f}% {tag})")

    stale = []
    for f in os.listdir(args.baseline):
        if f.startswith("BENCH_") and f.endswith(".json") and f not in cand_files:
            stale.append(f)
    for f in stale:
        print(f"  warning: baseline {f} has no fresh candidate; left untouched",
              file=sys.stderr)

    for f in cand_files:
        try:
            report = slim_report(load_report(os.path.join(args.candidate, f)))
            with open(os.path.join(args.baseline, f), "w", encoding="utf-8") as out:
                json.dump(report, out, indent=2)
                out.write("\n")
        except (OSError, ValueError) as e:
            print(f"error: cannot update {f}: {e}", file=sys.stderr)
            return 2
        print(f"  updated {os.path.join(args.baseline, f)}")
    print(f"\nbaselines rewritten from {args.candidate}: {len(cand_files)} report(s), "
          f"{improved} value(s) improved, {regressed} regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
