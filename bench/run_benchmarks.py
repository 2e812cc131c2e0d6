#!/usr/bin/env python3
"""Run the data-plane hot-path benchmarks and emit BENCH_hotpath.json.

Each benchmark binary carries the seed ("before") implementation next to
the current ("after") one — LegacyMapPreprocessor, LegacyHeapEventQueue,
and the std::set PIFO backend are compiled into the same binary — so one
run of the release-bench build produces honest before/after pairs under
an identical harness, compiler, and machine.

Usage:
    python3 bench/run_benchmarks.py [--build-dir build-release-bench]
        [--out BENCH_hotpath.json] [--repetitions 3] [--min-time 0.5]

Methodology notes recorded in the output:
  * each suite is run --runs times; per benchmark the BEST median over
    --repetitions in-run repetitions is kept. Shared-machine noise is
    one-sided (a neighbour can only slow a deterministic loop down), so
    best-of-runs is the least-disturbed measurement, and it is applied
    to the before and after sides alike;
  * items/sec counts one item per enqueue and one per dequeue (a
    steady-state pair is two items);
  * the harness feeds packets from a pre-generated ring and batches 16
    pairs per benchmark iteration, applied identically to both sides
    (see bench_schedulers.cpp for why).
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

PAIRS = {
    # metric -> (before benchmark, after benchmark)
    "pifo_narrow_256level_depth256": (
        "BM_PifoNarrowRanks/256",
        "BM_BucketedPifoNarrowRanks/256",
    ),
    "pifo_narrow_256level_depth1024": (
        "BM_PifoNarrowRanks/1024",
        "BM_BucketedPifoNarrowRanks/1024",
    ),
    "pifo_narrow_256level_depth4096": (
        "BM_PifoNarrowRanks/4096",
        "BM_BucketedPifoNarrowRanks/4096",
    ),
    "preprocessor_scalar_8tenants": (
        "BM_PreprocessorLegacyMap/8",
        "BM_PreprocessorProcess/8",
    ),
    "preprocessor_scalar_32tenants": (
        "BM_PreprocessorLegacyMap/32",
        "BM_PreprocessorProcess/32",
    ),
    "preprocessor_batch_8tenants": (
        "BM_PreprocessorLegacyMap/8",
        "BM_PreprocessorBatch/8",
    ),
    "event_queue_schedule_run_1024": (
        "BM_LegacyEventScheduleRun/1024",
        "BM_EventScheduleRun/1024",
    ),
    "event_queue_schedule_cancel": (
        "BM_LegacyEventScheduleCancel",
        "BM_EventScheduleCancel",
    ),
    "event_queue_packet_capture": (
        "BM_LegacyEventPacketCapture",
        "BM_EventPacketCapture",
    ),
}

# After-only context: no seed twin exists in-binary, recorded for the
# table in README.md and for regression tracking.
EXTRAS = [
    "BM_BucketedPifoDirect/256",
    "BM_BucketedPifoDirect/4096",
    "BM_BucketedPifoBatch/256",
    "BM_BucketedPifoBatch/4096",
    "BM_BucketedPifoWideRanks",
    "BM_BucketedPifoEvicting",
    "BM_SpPifo/2",
    "BM_SpPifo/8",
    "BM_SpPifo/32",
    "BM_QvisorPortEnqueueDequeue",
]

BINARIES = {
    "bench_schedulers": "NarrowRanks|BucketedPifo|BM_SpPifo",
    "bench_preprocessor": "Preprocessor(Process|LegacyMap|Batch)|QvisorPort",
    "bench_event_queue": "Event",
}

# --- simulation-core mode (--simcore -> BENCH_simcore.json) ----------------
#
# Two views of the simulation-core overhaul (timing wheel + coalesced
# link drains), both measured against the runtime-selectable per-event
# reference engine compiled into the same binaries:
#   * microbench rows — the CURRENT EventQueue with the wheel active vs
#     the same queue forced heap-only (the reference engine's layout;
#     same slots, same EventFn, only the ordering structure differs);
#   * end-to-end rows — bench_simcore fig4 cells, reference and
#     overhauled run back to back per pair, median of per-pair
#     events/sec ratios (machine-speed epochs cancel within a pair).
# The acceptance bar lives on the headline end-to-end cell.
SIMCORE_PAIRS = {
    # metric -> (heap-only reference benchmark, wheel benchmark)
    "event_queue_steady_depth1024": (
        "BM_HeapOnlyEventScheduleRun/1024",
        "BM_EventScheduleRun/1024",
    ),
    "event_queue_steady_depth16384": (
        "BM_HeapOnlyEventScheduleRun/16384",
        "BM_EventScheduleRun/16384",
    ),
    "event_queue_schedule_cancel": (
        "BM_HeapOnlyEventScheduleCancel",
        "BM_EventScheduleCancel",
    ),
    "event_queue_bimodal_horizon_depth16384": (
        "BM_HeapOnlyEventBimodalHorizon/16384",
        "BM_EventBimodalHorizon/16384",
    ),
    "event_queue_cancel_heavy": (
        "BM_HeapOnlyEventCancelHeavy",
        "BM_EventCancelHeavy",
    ),
    "event_queue_monotone_drain_4096": (
        "BM_HeapOnlyEventMonotoneDrain/4096",
        "BM_EventMonotoneDrain/4096",
    ),
}
SIMCORE_BINARIES = {"bench_event_queue": "Event"}
# Median per-pair end-to-end ratio the headline cell must reach.
SIMCORE_E2E_BAR = 1.5

# --- observability overhead mode (--obs -> BENCH_obs.json) -----------------
#
# bench_obs runs the SAME steady-state harnesses with the producer-side
# instrumentation pattern in the loop; Arg 0 is "obs disabled" (a null
# tracer pointer test per packet), Arg 1 is "obs enabled" (ring pushes +
# live counter increments).
OBS_PAIRS = {
    # metric -> (disabled benchmark, enabled benchmark)
    "bucketed_pifo_hotpath": (
        "BM_BucketedPifoObs/0",
        "BM_BucketedPifoObs/1",
    ),
    "preprocessor_hotpath": (
        "BM_PreprocessorObs/0",
        "BM_PreprocessorObs/1",
    ),
}

# Raw primitive costs, for the DESIGN.md overhead table.
OBS_PRIMITIVES = ["BM_CounterInc", "BM_TracerInstant", "BM_Log2HistogramAdd"]

# The disabled side must stay within OBS_BUDGET of the uninstrumented
# hot-path benchmarks. The budget is judged against a LIVE
# re-measurement of the reference benchmark in the same invocation —
# absolute numbers drift several percent across sessions on a shared
# machine, which would otherwise drown the 3% signal (or hide a real
# regression behind a fast day). The corresponding stored
# BENCH_hotpath.json value is recorded alongside for context.
# disabled benchmark ->
#   (live reference benchmark, BENCH_hotpath comparison key + side)
OBS_BASELINES = {
    "BM_BucketedPifoObs/0": (
        "BM_BucketedPifoNarrowRanks/256",
        ("pifo_narrow_256level_depth256", "after_items_per_sec"),
    ),
    "BM_PreprocessorObs/0": (
        "BM_PreprocessorProcess/8",
        ("preprocessor_scalar_8tenants", "after_items_per_sec"),
    ),
}
OBS_BUDGET = 0.03
# Measurement noise allowance on top of OBS_BUDGET. The check compares
# two different binaries run minutes apart; on shared single-core VMs,
# steal time routinely skews such a single-run ratio by 3-9% in either
# direction (observed: 0.91-0.97x on IDENTICAL code both sides). The
# per-run pairing below cancels the slow-machine epochs that last
# longer than one run; this constant absorbs what pairing cannot —
# intra-run steal bursts. A real instrumentation leak sits on the hot
# path of every packet and shows up well beyond 10%.
OBS_NOISE_TOLERANCE = 0.07

# Healthy-path throughput the dataplane fault domain may cost when
# enabled with no faults injected (heartbeat stores, deferred ring
# commits, periodic checkpoint copies). Checked as a paired ratio in
# run_dataplane_mode with OBS_NOISE_TOLERANCE on top.
SUPERVISION_OVERHEAD_BUDGET = 0.03

OBS_BINARIES = {
    "bench_obs": "Obs|BM_CounterInc|BM_TracerInstant|BM_Log2HistogramAdd",
    # Live uninstrumented references for OBS_BASELINES.
    "bench_schedulers": "BM_BucketedPifoNarrowRanks/256$",
    "bench_preprocessor": "BM_PreprocessorProcess/8$",
}

# Per-child wall-clock budget (seconds), overridable with
# --child-timeout. A wedged child (deadlocked ring, livelocked retry
# loop) gets ONE retry — benchmarks share machines with noisy
# neighbours and a single overrun is not evidence of a hang — and then
# fails the whole run loudly instead of wedging CI forever.
CHILD_TIMEOUT = 900.0


def run_child(cmd):
    """subprocess.run with the hang policy: timeout, one retry, then a
    non-zero exit naming the stuck command."""
    for attempt in (1, 2):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"timeout after {CHILD_TIMEOUT:.0f}s "
                  f"(attempt {attempt}/2): {' '.join(cmd)}",
                  file=sys.stderr)
    sys.exit(f"child hung twice, giving up: {' '.join(cmd)}")


def run_binary(path, bench_filter, repetitions, min_time):
    cmd = [
        path,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=true",
        "--benchmark_format=json",
    ]
    out = run_child(cmd)
    return json.loads(out.stdout)


def collect_per_run(build_dir, repetitions, min_time, runs,
                    binaries=BINARIES):
    """One dict per run: name -> median items_per_second in that run.
    Keeping runs separate lets callers pair measurements taken close
    together in time (ratios within a run cancel machine-speed epochs
    that a cross-run best-of would mix)."""
    per_run = []
    for _ in range(runs):
        run_items = {}
        for binary, bench_filter in binaries.items():
            path = os.path.join(build_dir, "bench", binary)
            if not os.path.exists(path):
                sys.exit(f"missing benchmark binary: {path} (build the "
                         f"'release-bench' preset first)")
            report = run_binary(path, bench_filter, repetitions, min_time)
            for b in report.get("benchmarks", []):
                if b.get("aggregate_name") != "median":
                    continue
                name = b["run_name"]
                if "items_per_second" in b:
                    run_items[name] = b["items_per_second"]
        per_run.append(run_items)
    return per_run


def collect(build_dir, repetitions, min_time, runs, binaries=BINARIES):
    """name -> best (max) median items_per_second across `runs` runs."""
    items = {}
    for run_items in collect_per_run(build_dir, repetitions, min_time,
                                     runs, binaries):
        for name, value in run_items.items():
            items[name] = max(items.get(name, 0.0), value)
    return items


def collect_seed(build_dir, repetitions, min_time, runs):
    """Measure the seed commit's own benchmark binaries (built with the
    same -O3 flags from a checkout of the seed revision). The seed
    harness differs — it regenerated each packet with RNG calls inside
    the timed loop — so these are the end-to-end bench items/sec the
    repo reported before this change, not a same-harness ablation (the
    in-binary legacy implementations cover that)."""
    seed = {}
    for _ in range(runs):
        for binary, bench_filter in {
            "bench_schedulers": "BM_PifoNarrowRanks",
            "bench_preprocessor": "BM_PreprocessorProcess",
        }.items():
            path = os.path.join(build_dir, "bench", binary)
            if not os.path.exists(path):
                sys.exit(f"missing seed benchmark binary: {path}")
            report = run_binary(path, bench_filter, repetitions, min_time)
            for b in report.get("benchmarks", []):
                if b.get("aggregate_name") != "median":
                    continue
                if "items_per_second" in b:
                    name = b["run_name"]
                    seed[name] = max(seed.get(name, 0),
                                     round(b["items_per_second"]))
    return seed


def run_obs_mode(args):
    """--obs: measure instrumentation overhead -> BENCH_obs.json."""
    per_run = collect_per_run(args.build_dir, args.repetitions,
                              args.min_time, args.runs,
                              binaries=OBS_BINARIES)
    items = {}
    for run_items in per_run:
        for name, value in run_items.items():
            items[name] = max(items.get(name, 0.0), value)

    hotpath = {}
    for metric, (disabled, enabled) in OBS_PAIRS.items():
        if disabled not in items or enabled not in items:
            continue
        hotpath[metric] = {
            "disabled_benchmark": disabled,
            "enabled_benchmark": enabled,
            "disabled_items_per_sec": round(items[disabled]),
            "enabled_items_per_sec": round(items[enabled]),
            "enabled_over_disabled": round(
                items[enabled] / items[disabled], 3),
        }

    baseline_check = {}
    try:
        with open(args.hotpath_ref) as f:
            ref = json.load(f)["comparisons"]
    except (OSError, KeyError):
        ref = {}
    for bench, (live_ref, (key, side)) in OBS_BASELINES.items():
        if bench not in items or live_ref not in items:
            continue
        live = items[live_ref]
        # Median of per-run PAIRED ratios, not a ratio of cross-run
        # aggregates: each run measures both sides back to back, so a
        # machine-speed epoch hits numerator and denominator together
        # and cancels. (A single-run ratio flagged 0.91-0.97x on
        # identical code here before — pure steal noise.)
        ratios = sorted(r[bench] / r[live_ref] for r in per_run
                        if bench in r and live_ref in r)
        ratio = ratios[len(ratios) // 2]
        entry = {
            "reference_benchmark": live_ref,
            "reference_items_per_sec": round(live),
            "measured_items_per_sec": round(items[bench]),
            "per_run_ratios": [round(x, 3) for x in ratios],
            "ratio": round(ratio, 3),
            # One-sided like the rest of the harness: a disabled-obs
            # loop can only be slower than the reference, never
            # legitimately faster, so only a deficit beyond budget +
            # noise tolerance fails (see OBS_NOISE_TOLERANCE).
            "within_budget":
                ratio >= 1.0 - OBS_BUDGET - OBS_NOISE_TOLERANCE,
        }
        if key in ref:
            # Stored-file context; drifts with machine state across
            # sessions, so it carries no pass/fail weight.
            entry["stored_hotpath_reference"] = f"{key}.{side}"
            entry["stored_items_per_sec"] = ref[key][side]
            entry["ratio_vs_stored"] = round(items[bench] / ref[key][side],
                                             3)
        baseline_check[bench] = entry

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "aggregate": f"best of {args.runs} runs of the median over "
                         f"{args.repetitions} repetitions, min_time "
                         f"{args.min_time}s each",
            "pattern": "per-packet `if (tracer && tracer->enabled(cat))` "
                       "guard; Arg 0 = null tracer (disabled), Arg 1 = "
                       "enabled tracer + live counter handles",
            "budget": f"disabled side within {OBS_BUDGET:.0%} (+ "
                      f"{OBS_NOISE_TOLERANCE:.0%} measurement-noise "
                      f"tolerance) of the uninstrumented BENCH_hotpath "
                      f"benchmarks, judged on the MEDIAN of per-run "
                      f"paired ratios re-measured live in this "
                      f"invocation (the stored {args.hotpath_ref} "
                      f"values are recorded for context; cross-session "
                      f"machine drift makes them unusable as a "
                      f"pass/fail bar, and single-run ratios flag steal "
                      f"noise on shared single-core hosts)",
        },
        "hotpath": hotpath,
        "primitives_items_per_sec": {
            name: round(items[name])
            for name in OBS_PRIMITIVES if name in items
        },
        "baseline_check": baseline_check,
    }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for metric, c in hotpath.items():
        print(f"  {metric}: disabled "
              f"{c['disabled_items_per_sec'] / 1e6:.1f}M, enabled "
              f"{c['enabled_items_per_sec'] / 1e6:.1f}M "
              f"({c['enabled_over_disabled']}x)")
    ok = all(c["within_budget"] for c in baseline_check.values())
    for bench, c in baseline_check.items():
        print(f"  {bench} vs {c['reference_benchmark']}: "
              f"ratio {c['ratio']} "
              f"({'ok' if c['within_budget'] else 'OVER BUDGET'})")
    if baseline_check and not ok:
        sys.exit("obs-disabled hot path regressed beyond the "
                 f"{OBS_BUDGET:.0%} budget (+ {OBS_NOISE_TOLERANCE:.0%} "
                 f"noise tolerance)")


def sweep_artifacts(out_dir):
    """Non-trace artifact basenames of a sweep output dir, sorted."""
    return sorted(name for name in os.listdir(out_dir)
                  if not name.endswith("_trace.json"))


def run_parallel_mode(args):
    """--parallel: measure the sweep engine's scaling -> BENCH_parallel.json.

    Times the chaos harness (the heaviest per-cell experiment with an
    invariant-checked exit code) over a fixed seed grid at increasing
    --jobs, and byte-compares every non-trace artifact of each parallel
    run against the --jobs 1 run — the scaling curve is only meaningful
    if the output stayed identical.
    """
    binary = os.path.join(args.build_dir, "src", "experiments", "chaos")
    if not os.path.exists(binary):
        sys.exit(f"missing experiment binary: {binary} (build the "
                 f"'release-bench' preset first)")
    seeds = args.parallel_seeds
    jobs_list = sorted({int(j) for j in args.jobs_list.split(",")})
    n_cells = len(seeds.split(","))
    host_cores = os.cpu_count() or 1

    work = tempfile.mkdtemp(prefix="bench_parallel_")
    curve = {}
    serial_dir = None
    equivalence = {}
    try:
        for jobs in jobs_list:
            best = None
            out_dir = os.path.join(work, f"j{jobs}")
            for _ in range(args.runs):
                shutil.rmtree(out_dir, ignore_errors=True)
                os.makedirs(out_dir)
                start = time.monotonic()
                run_child([binary, "--seeds", seeds, "--jobs", str(jobs),
                           "--out", out_dir])
                elapsed = time.monotonic() - start
                best = elapsed if best is None else min(best, elapsed)
            curve[jobs] = {
                "jobs": jobs,
                "wall_seconds": round(best, 3),
                "runs_per_sec": round(n_cells / best, 2),
            }
            if jobs == 1:
                serial_dir = out_dir
            elif serial_dir:
                names = sweep_artifacts(out_dir)
                if names != sweep_artifacts(serial_dir):
                    sys.exit(f"--jobs {jobs} produced a different artifact "
                             f"set than --jobs 1")
                _, mismatch, errors = filecmp.cmpfiles(
                    serial_dir, out_dir, names, shallow=False)
                equivalence[jobs] = {
                    "artifacts_compared": len(names),
                    "identical": not mismatch and not errors,
                }
                if mismatch or errors:
                    sys.exit(f"--jobs {jobs} output differs from --jobs 1: "
                             f"{mismatch or errors}")
        for jobs in jobs_list:
            curve[jobs]["speedup_vs_j1"] = round(
                curve[jobs]["runs_per_sec"] / curve[1]["runs_per_sec"], 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes = [
        "speedup is bounded by min(jobs, cells, host_cores); asking for "
        "more workers than cores measures scheduler overhead, not the "
        "sweep engine",
    ]
    max_speedup = max(c["speedup_vs_j1"] for c in curve.values())
    if host_cores < max(jobs_list):
        notes.append(
            f"HOST-CORE CEILING: this machine has {host_cores} core(s), "
            f"so the curve above cannot exceed ~{host_cores}x regardless "
            f"of --jobs; the engine's scaling must be read on a "
            f"multi-core host (the determinism guarantee is what these "
            f"numbers certify here)")

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "binary": "src/experiments/chaos (invariant-checked exit "
                      "code; heaviest per-cell run)",
            "grid": f"seeds {seeds} ({n_cells} independent cells)",
            "aggregate": f"best wall time of {args.runs} runs per jobs "
                         f"value (one-sided shared-machine noise)",
            "equivalence": "every non-trace artifact of each parallel "
                           "run byte-compared against the --jobs 1 run; "
                           "any difference fails the whole benchmark",
        },
        "host_cores": host_cores,
        "scaling": {str(j): curve[j] for j in jobs_list},
        "max_speedup_vs_j1": max_speedup,
        "serial_equivalence": {str(j): equivalence[j] for j in equivalence},
        "notes": notes,
    }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} (host_cores={host_cores})")
    for j in jobs_list:
        c = curve[j]
        eq = equivalence.get(j, {}).get("identical")
        eq_str = "" if j == 1 else f", identical to j1: {eq}"
        print(f"  jobs={j}: {c['wall_seconds']}s, "
              f"{c['runs_per_sec']} runs/s, "
              f"{c['speedup_vs_j1']}x{eq_str}")


def run_dataplane_cell(binary, extra_args):
    """One bench_dataplane invocation -> parsed result JSON. The binary
    exits non-zero if any conservation book fails to balance, so every
    timing sample doubles as a correctness check."""
    out = run_child([binary] + extra_args)
    result = json.loads(out.stdout)
    if not result["balanced"]:
        sys.exit(f"bench_dataplane reported unbalanced books: "
                 f"{result['book']}")
    return result


def run_dataplane_mode(args):
    """--dataplane: measure the sharded run-to-completion engine ->
    BENCH_dataplane.json.

    Two views:
      * pps vs shards — the pipelined mode (generator thread -> SPSC
        ring -> worker thread per shard), median pps over --runs runs
        per point. Bounded by host cores: each shard needs two.
      * supervision on vs off at one fused shard — paired ratio with a
        hard bar (see below).
    """
    binary = os.path.join(args.build_dir, "bench", "bench_dataplane")
    if not os.path.exists(binary):
        sys.exit(f"missing benchmark binary: {binary} (build the "
                 f"'release-bench' preset first)")
    shards_list = sorted({int(s) for s in args.shards_list.split(",")})
    packets = args.dataplane_packets
    host_cores = os.cpu_count() or 1
    # The supervision comparison is a median of paired ratios; below 5
    # pairs a single steal burst can still own the median on a shared
    # host.
    compare_runs = max(args.runs, 5)

    scaling = {}
    books_balanced = True
    for shards in shards_list:
        samples = []
        for _ in range(args.runs):
            r = run_dataplane_cell(binary, [
                "--shards", str(shards), "--packets", str(packets)])
            samples.append(r["pps"])
            books_balanced = books_balanced and r["balanced"]
        samples.sort()
        scaling[shards] = {
            "shards": shards,
            "threads": 2 * shards,
            "pps_median": round(samples[len(samples) // 2]),
            "pps_runs": [round(s) for s in samples],
        }
    for shards in shards_list:
        scaling[shards]["speedup_vs_1shard"] = round(
            scaling[shards]["pps_median"] /
            scaling[shards_list[0]]["pps_median"], 2)

    # Supervision overhead: the fault domain armed but no faults
    # injected (heartbeats + deferred ring commits + checkpoints) vs the
    # plain engine. Paired per run — off and on back to back, ratio
    # within the run — then the median ratio, so machine-speed epochs
    # longer than one run cancel (the PR 6 methodology); the
    # OBS_NOISE_TOLERANCE absorbs intra-run steal bursts. The bar:
    # supervision may cost at most SUPERVISION_OVERHEAD_BUDGET of
    # healthy-path throughput.
    sup_pairs = {"off": [], "on": []}
    sup_ratios = []
    for _ in range(compare_runs):
        pair = {}
        for label, sup in (("off", "false"), ("on", "true")):
            r = run_dataplane_cell(binary, [
                "--shards", "1", "--packets", str(packets),
                "--fused=true", f"--supervision={sup}"])
            pair[label] = r["pps"]
            sup_pairs[label].append(r["pps"])
            books_balanced = books_balanced and r["balanced"]
        sup_ratios.append(pair["on"] / pair["off"])
    sup_ratios.sort()
    sup_ratio = sup_ratios[len(sup_ratios) // 2]
    sup_bar = (1.0 - SUPERVISION_OVERHEAD_BUDGET) - OBS_NOISE_TOLERANCE
    supervision_ok = sup_ratio >= sup_bar

    notes = [
        "pps counts packets carried through the full pipeline "
        "(pre-processor + admission + PIFO enqueue/dequeue); drops are "
        "work too and are counted",
        "every sample run re-checks the per-port conservation books; "
        "an unbalanced book fails the whole benchmark",
    ]
    if host_cores < 2 * shards_list[-1]:
        notes.append(
            f"HOST-CORE CEILING: this machine has {host_cores} core(s); "
            f"the pipelined curve needs 2 threads per shard, so scaling "
            f"beyond {max(1, host_cores // 2)} shard(s) measures OS "
            f"timeslicing, not the engine. Read the curve on a host "
            f"with >= {2 * shards_list[-1]} cores; the per-shard book "
            f"determinism is what these numbers certify here.")

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "binary": "bench/bench_dataplane (exit code asserts "
                      "conservation)",
            "workload": f"{packets} packets/port, 8 tenants under "
                        f"'t0 >> t1 + ... + t7', last tenant "
                        f"rate-policed, seed 1",
            "aggregate": f"median pps of {args.runs} runs per scaling "
                         f"point; median of paired ratios for the "
                         f"supervision comparison",
            "supervision_comparison": f"fused, 1 shard, paired per run "
                                      f"(off/on back to back, ratio "
                                      f"within the run), median of "
                                      f"{compare_runs} paired ratios; "
                                      f"bar: ratio >= "
                                      f"1 - {SUPERVISION_OVERHEAD_BUDGET} "
                                      f"- {OBS_NOISE_TOLERANCE} noise "
                                      f"tolerance",
        },
        "host_cores": host_cores,
        "scaling": {str(s): scaling[s] for s in shards_list},
        "supervision_overhead": {
            "pps_runs_off": [round(s) for s in sup_pairs["off"]],
            "pps_runs_on": [round(s) for s in sup_pairs["on"]],
            "paired_ratios": [round(r, 4) for r in sup_ratios],
            "median_paired_ratio": round(sup_ratio, 4),
            "overhead_budget": SUPERVISION_OVERHEAD_BUDGET,
            "noise_tolerance": OBS_NOISE_TOLERANCE,
            "bar": round(sup_bar, 4),
            "within_budget": supervision_ok,
        },
        "conservation_books_balanced": books_balanced,
        "notes": notes,
    }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} (host_cores={host_cores})")
    for s in shards_list:
        c = scaling[s]
        print(f"  shards={s}: {c['pps_median'] / 1e6:.2f}M pps "
              f"({c['speedup_vs_1shard']}x vs 1 shard)")
    print(f"  supervision on/off paired ratio: {sup_ratio:.4f} "
          f"(bar {sup_bar:.2f}, within budget: {supervision_ok})")
    if not books_balanced:
        sys.exit("conservation books failed to balance")
    if not supervision_ok:
        sys.exit(f"supervision overhead exceeds budget: median paired "
                 f"ratio {sup_ratio:.4f} < {sup_bar:.2f} "
                 f"(>{SUPERVISION_OVERHEAD_BUDGET:.0%} slowdown beyond "
                 f"the {OBS_NOISE_TOLERANCE:.0%} noise tolerance)")


def run_simcore_cell(binary, scheme, load, per_event):
    """One timed bench_simcore invocation -> parsed JSON."""
    out = run_child([binary, "--scheme", scheme, "--load", str(load),
                     f"--per-event={'true' if per_event else 'false'}"])
    return json.loads(out.stdout)


def run_simcore_mode(args):
    """--simcore: measure the simulation-core overhaul against the
    per-event reference engine -> BENCH_simcore.json.

    Every pair asserts the deterministic result fingerprint is
    identical across engines, and a separate artifact run byte-compares
    the real sweep outputs (flows.csv / metrics.json / summary JSON) —
    an engine that got faster by diverging fails the benchmark, not
    just the test suite. Exits non-zero if the headline cell's median
    paired ratio falls below SIMCORE_E2E_BAR or any comparison differs.
    """
    binary = os.path.join(args.build_dir, "bench", "bench_simcore")
    if not os.path.exists(binary):
        sys.exit(f"missing benchmark binary: {binary} (build the "
                 f"'release-bench' preset first)")

    cells = []
    for spec in args.simcore_cells.split(","):
        scheme, _, load = spec.partition(":")
        cells.append((scheme.strip(), float(load)))
    pairs = max(args.simcore_pairs, 3)

    # End-to-end rows: reference and overhauled back to back per pair.
    e2e = {}
    for scheme, load in cells:
        ratios = []
        ref_eps, over_eps = [], []
        wheel = None
        events = None
        replayed = None
        for _ in range(pairs):
            ref = run_simcore_cell(binary, scheme, load, per_event=True)
            over = run_simcore_cell(binary, scheme, load, per_event=False)
            if ref["result"] != over["result"]:
                sys.exit(f"simcore engines DIVERGED on {scheme}:{load}: "
                         f"reference {ref['result']} vs overhauled "
                         f"{over['result']}")
            ref_eps.append(ref["events_per_sec"])
            over_eps.append(over["events_per_sec"])
            ratios.append(over["events_per_sec"] / ref["events_per_sec"])
            wheel = over["wheel"]
            events = over["events"]
            replayed = over["events_replayed"]
        ratios.sort()
        e2e[f"{scheme}:{load}"] = {
            "scheme": scheme,
            "load": load,
            "events": events,
            "reference_events_per_sec": round(max(ref_eps)),
            "overhauled_events_per_sec": round(max(over_eps)),
            "paired_ratios": [round(r, 3) for r in ratios],
            "median_paired_ratio": round(ratios[len(ratios) // 2], 3),
            "fingerprints_identical": True,
            # Diagnostics from the overhauled run: where events lived
            # (wheel vs overflow heap), how many migrated down on
            # rotation, and how many link sub-steps the coalesced drain
            # replayed inline instead of dispatching.
            "wheel": wheel,
            "events_replayed": replayed,
        }

    # Microbench rows: wheel vs heap-only, paired within each run.
    per_run = collect_per_run(args.build_dir, args.repetitions,
                              args.min_time, args.runs,
                              binaries=SIMCORE_BINARIES)
    items = {}
    for run_items in per_run:
        for name, value in run_items.items():
            items[name] = max(items.get(name, 0.0), value)
    micro = {}
    for metric, (heap_only, wheel_bench) in SIMCORE_PAIRS.items():
        if heap_only not in items or wheel_bench not in items:
            continue
        ratios = sorted(r[wheel_bench] / r[heap_only] for r in per_run
                        if wheel_bench in r and heap_only in r)
        micro[metric] = {
            "heap_only_benchmark": heap_only,
            "wheel_benchmark": wheel_bench,
            "heap_only_items_per_sec": round(items[heap_only]),
            "wheel_items_per_sec": round(items[wheel_bench]),
            "per_run_ratios": [round(x, 3) for x in ratios],
            "median_paired_ratio": round(ratios[len(ratios) // 2], 3),
        }

    # Mandatory artifact equivalence: one sweep cell per engine, every
    # non-trace artifact byte-compared.
    headline_scheme, headline_load = cells[0]
    work = tempfile.mkdtemp(prefix="bench_simcore_")
    try:
        dirs = {}
        for engine, per_event in (("reference", "true"),
                                  ("overhauled", "false")):
            out_dir = os.path.join(work, engine)
            os.makedirs(out_dir)
            run_child([binary, "--scheme", headline_scheme,
                       "--load", str(headline_load),
                       f"--per-event={per_event}",
                       "--artifacts", out_dir])
            dirs[engine] = out_dir
        names = sweep_artifacts(dirs["overhauled"])
        if names != sweep_artifacts(dirs["reference"]):
            sys.exit("simcore engines produced different artifact sets")
        _, mismatch, errors = filecmp.cmpfiles(
            dirs["reference"], dirs["overhauled"], names, shallow=False)
        if mismatch or errors:
            sys.exit(f"simcore artifacts differ across engines: "
                     f"{mismatch or errors}")
        artifact_equivalence = {
            "cell": f"{headline_scheme}:{headline_load}",
            "artifacts_compared": len(names),
            "identical": True,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    headline = e2e[f"{headline_scheme}:{headline_load}"]
    acceptance = {
        "bar": f"headline end-to-end cell median paired ratio >= "
               f"{SIMCORE_E2E_BAR}x, fingerprints and artifacts "
               f"byte-identical across engines",
        "cell": f"{headline_scheme}:{headline_load}",
        "median_paired_ratio": headline["median_paired_ratio"],
        "met": headline["median_paired_ratio"] >= SIMCORE_E2E_BAR,
    }

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "binary": "bench/bench_simcore (one fig4 cell per "
                      "invocation; exit code asserts the engine ran)",
            "e2e_aggregate": f"median of {pairs} per-pair ratios, "
                             f"reference and overhauled run back to "
                             f"back within each pair so machine-speed "
                             f"epochs cancel (single-core hosts see "
                             f"±15% per-run noise; see EXPERIMENTS.md)",
            "micro_aggregate": f"best of {args.runs} runs of the median "
                               f"over {args.repetitions} repetitions; "
                               f"ratios paired within each run",
            "reference": "the SAME binaries with the per-event engine "
                         "selected at runtime: heap-only event "
                         "ordering, one event per link sub-step "
                         "(Simulator::SimCore::kPerEventReference)",
            "equivalence": "per-pair result fingerprints (%.17g "
                           "doubles) plus a full sweep-artifact "
                           "byte-compare; any divergence fails the run",
        },
        "end_to_end": e2e,
        "microbench": micro,
        "artifact_equivalence": artifact_equivalence,
        "acceptance": acceptance,
    }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for key, c in e2e.items():
        print(f"  e2e {key}: ref "
              f"{c['reference_events_per_sec'] / 1e6:.2f}M ev/s -> "
              f"overhauled {c['overhauled_events_per_sec'] / 1e6:.2f}M "
              f"ev/s (median paired {c['median_paired_ratio']}x, "
              f"replayed {c['events_replayed']})")
    for metric, c in micro.items():
        print(f"  micro {metric}: heap-only "
              f"{c['heap_only_items_per_sec'] / 1e6:.1f}M -> wheel "
              f"{c['wheel_items_per_sec'] / 1e6:.1f}M "
              f"({c['median_paired_ratio']}x)")
    print(f"  artifacts: {artifact_equivalence['artifacts_compared']} "
          f"compared, identical")
    print(f"  acceptance ({acceptance['bar']}): "
          f"{'MET' if acceptance['met'] else 'NOT MET'} "
          f"({acceptance['median_paired_ratio']}x)")
    if not acceptance["met"]:
        sys.exit(f"simcore end-to-end speedup below the "
                 f"{SIMCORE_E2E_BAR}x bar")


def run_control_cell(binary, extra_args):
    """One bench_control invocation -> parsed result JSON. The binary
    exits non-zero if a deploy fails, an incremental edit falls off the
    delta path, or the fleet's epochs diverge, so every timing sample
    doubles as a correctness check."""
    out = run_child([binary] + extra_args)
    return json.loads(out.stdout)


def run_control_mode(args):
    """--control: measure the group-compiled control plane ->
    BENCH_control.json.

    Three views per tenant-count grid point:
      * full vs incremental re-synthesis latency — median deploy ns on
        each path (the binary medians over --control-deploys deploys;
        we median again over --runs invocations), plus the ratio. The
        acceptance bar lives here: incremental >= 5x faster than full
        at 1M tenants.
      * tenant->group lookup ns — dense array load vs sorted-spill
        binary search, median over runs.
      * memory split — O(groups) transform table vs O(tenants) dense
        index vs the fixed per-distribution sketch budget. Deterministic
        per config, reported from the first run.
    """
    binary = os.path.join(args.build_dir, "bench", "bench_control")
    if not os.path.exists(binary):
        sys.exit(f"missing benchmark binary: {binary} (build the "
                 f"'release-bench' preset first)")
    tenants_list = sorted({int(t) for t in args.tenants_list.split(",")})
    runs = max(args.runs, 3)

    def med(samples):
        samples = sorted(samples)
        return samples[len(samples) // 2]

    curve = {}
    for tenants in tenants_list:
        cells = []
        for _ in range(runs):
            cells.append(run_control_cell(binary, [
                "--tenants", str(tenants),
                "--groups", str(args.control_groups),
                "--deploys", str(args.control_deploys),
                "--lookups", str(args.control_lookups)]))
        full = med([c["deploy_ns"]["full_median"] for c in cells])
        incremental = med(
            [c["deploy_ns"]["incremental_median"] for c in cells])
        curve[tenants] = {
            "tenants": tenants,
            "full_deploy_ns_median": full,
            "incremental_deploy_ns_median": incremental,
            "incremental_speedup": round(full / incremental, 2),
            "lookup_ns": {
                "dense": round(med([c["lookup_ns"]["dense"]
                                    for c in cells]), 2),
                "spill": round(med([c["lookup_ns"]["spill"]
                                    for c in cells]), 2),
            },
            "memory_bytes": cells[0]["memory_bytes"],
        }

    top = max(tenants_list)
    speedup_at_top = curve[top]["incremental_speedup"]
    acceptance = {
        "bar": "incremental re-synthesis >= 5x faster than full at the "
               "largest grid point",
        "tenants": top,
        "incremental_speedup": speedup_at_top,
        "met": speedup_at_top >= 5.0,
    }

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "binary": "bench/bench_control (exit code asserts deploys "
                      "commit, edits stay on the delta path, and fleet "
                      "epochs agree)",
            "workload": f"[0, N) partitioned into {args.control_groups} "
                        f"groups across 4 switches; full = "
                        f"deploy_full from scratch, incremental = "
                        f"one-group weight edit through the diff path",
            "aggregate": f"median of {runs} runs of the median over "
                         f"{args.control_deploys} deploys per path; "
                         f"lookup ns medians {args.control_lookups} "
                         f"probes per run",
        },
        "curve": {str(t): curve[t] for t in tenants_list},
        "acceptance": acceptance,
        "notes": [
            "deploy latency is the ControlPlane's own wall-clock stamp "
            "around compile + diff + two-phase fleet commit",
            "memory_bytes.index is the O(tenants) part (4 B/id dense "
            "array, shared fleet-wide); table is O(groups); "
            "sketch_per_distribution is the fixed RankDigest budget at "
            "the guard default (epsilon 0.02, 4096 B cap)",
        ],
    }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for t in tenants_list:
        c = curve[t]
        print(f"  tenants={t}: full "
              f"{c['full_deploy_ns_median'] / 1e6:.2f}ms, incremental "
              f"{c['incremental_deploy_ns_median'] / 1e6:.2f}ms "
              f"({c['incremental_speedup']}x), dense lookup "
              f"{c['lookup_ns']['dense']}ns")
    print(f"  acceptance ({acceptance['bar']}): "
          f"{'MET' if acceptance['met'] else 'NOT MET'} "
          f"({speedup_at_top}x at {top} tenants)")
    if not acceptance["met"]:
        sys.exit("incremental re-synthesis speedup below the 5x bar")


def main():
    global CHILD_TIMEOUT
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build-release-bench")
    ap.add_argument("--out", default=None)
    ap.add_argument("--repetitions", type=int, default=3)
    ap.add_argument("--min-time", type=float, default=0.5)
    ap.add_argument("--runs", type=int, default=3,
                    help="full suite runs; best median per benchmark "
                         "is kept (one-sided noise rejection)")
    ap.add_argument("--seed-build-dir", default=None,
                    help="build dir of the seed commit (same flags); "
                         "adds a seed_binary_reference section")
    ap.add_argument("--obs", action="store_true",
                    help="measure observability overhead (bench_obs) "
                         "and write BENCH_obs.json instead")
    ap.add_argument("--hotpath-ref", default="BENCH_hotpath.json",
                    help="reference for the --obs baseline check")
    ap.add_argument("--parallel", action="store_true",
                    help="measure the sweep engine's --jobs scaling "
                         "(chaos harness) and write BENCH_parallel.json "
                         "instead")
    ap.add_argument("--parallel-seeds", default="1,2,3,4,5,6,7,8",
                    help="seed grid for --parallel")
    ap.add_argument("--jobs-list", default="1,2,4,8",
                    help="--jobs values to time for --parallel")
    ap.add_argument("--dataplane", action="store_true",
                    help="measure the sharded run-to-completion "
                         "dataplane (bench_dataplane) and write "
                         "BENCH_dataplane.json instead")
    ap.add_argument("--shards-list", default="1,2,4",
                    help="--shards values to time for --dataplane")
    ap.add_argument("--dataplane-packets", type=int, default=2_000_000,
                    help="packets per port per --dataplane run")
    ap.add_argument("--simcore", action="store_true",
                    help="measure the simulation-core overhaul "
                         "(bench_simcore + bench_event_queue wheel "
                         "pairs) and write BENCH_simcore.json instead")
    ap.add_argument("--simcore-cells", default="qvisor-share:0.7,fifo:0.5",
                    help="comma list of scheme:load fig4 cells for "
                         "--simcore; the first is the headline cell "
                         "the >= 1.5x bar applies to")
    ap.add_argument("--simcore-pairs", type=int, default=5,
                    help="back-to-back reference/overhauled pairs per "
                         "--simcore cell (min 3)")
    ap.add_argument("--control", action="store_true",
                    help="measure the group-compiled control plane "
                         "(bench_control) and write BENCH_control.json "
                         "instead")
    ap.add_argument("--tenants-list", default="10000,100000,1000000",
                    help="tenant-count grid for --control")
    ap.add_argument("--control-groups", type=int, default=64,
                    help="groups in the --control policy")
    ap.add_argument("--control-deploys", type=int, default=9,
                    help="timed deploys per path per --control run")
    ap.add_argument("--control-lookups", type=int, default=2_000_000,
                    help="GroupIndex probes per --control run")
    ap.add_argument("--child-timeout", type=float, default=CHILD_TIMEOUT,
                    help="wall-clock seconds per child process; a child "
                         "that exceeds it gets one retry, then the run "
                         "exits non-zero")
    args = ap.parse_args()
    CHILD_TIMEOUT = args.child_timeout

    if args.obs:
        args.out = args.out or "BENCH_obs.json"
        run_obs_mode(args)
        return
    if args.parallel:
        args.out = args.out or "BENCH_parallel.json"
        run_parallel_mode(args)
        return
    if args.dataplane:
        args.out = args.out or "BENCH_dataplane.json"
        run_dataplane_mode(args)
        return
    if args.simcore:
        args.out = args.out or "BENCH_simcore.json"
        run_simcore_mode(args)
        return
    if args.control:
        args.out = args.out or "BENCH_control.json"
        run_control_mode(args)
        return
    args.out = args.out or "BENCH_hotpath.json"

    items = collect(args.build_dir, args.repetitions, args.min_time,
                    args.runs)

    comparisons = {}
    for metric, (before, after) in PAIRS.items():
        if before not in items or after not in items:
            continue
        comparisons[metric] = {
            "before_benchmark": before,
            "after_benchmark": after,
            "before_items_per_sec": round(items[before]),
            "after_items_per_sec": round(items[after]),
            "speedup": round(items[after] / items[before], 2),
        }

    result = {
        "methodology": {
            "build": "release-bench preset (-O3 -DNDEBUG)",
            "aggregate": f"best of {args.runs} runs of the median over "
                         f"{args.repetitions} repetitions, min_time "
                         f"{args.min_time}s each (shared-machine noise "
                         f"is one-sided; applied to both sides alike)",
            "items": "one item per enqueue/dequeue/process call",
            "before": "seed implementations compiled into the same "
                      "binary (std::set PIFO backend, "
                      "LegacyMapPreprocessor, LegacyHeapEventQueue), "
                      "measured under the identical harness",
        },
        "comparisons": comparisons,
        "after_only": {
            name: round(items[name]) for name in EXTRAS if name in items
        },
    }

    if args.seed_build_dir:
        result["seed_binary_reference"] = {
            "note": "items/sec reported by the seed commit's own "
                    "benchmark binaries, rebuilt with the same -O3 "
                    "flags and measured back-to-back on this machine. "
                    "The seed harness generated packets with RNG calls "
                    "inside the timed loop; the in-binary 'before' "
                    "rows above isolate the implementation change "
                    "under the current harness.",
            "items_per_sec": collect_seed(args.seed_build_dir,
                                          args.repetitions,
                                          args.min_time, args.runs),
        }

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for metric, c in comparisons.items():
        print(f"  {metric}: {c['before_items_per_sec'] / 1e6:.1f}M -> "
              f"{c['after_items_per_sec'] / 1e6:.1f}M  "
              f"({c['speedup']}x)")


if __name__ == "__main__":
    main()
