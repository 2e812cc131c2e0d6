#!/usr/bin/env python3
"""The microbench ledger: regenerate one BENCH_<family>.json per run.

    python3 bench/run_benchmarks.py [--build-dir build-release-bench]
        [--out FILE] [--runs 3] [--min-time 0.5]      # hotpath (default)
    python3 bench/run_benchmarks.py --obs | --parallel
    python3 bench/run_benchmarks.py --dataplane [--dataplane-packets N]
    python3 bench/run_benchmarks.py --simcore [--simcore-pairs N]
    python3 bench/run_benchmarks.py --control [--control-lookups N]

Build the `release-bench` preset first (-O3 -DNDEBUG).

Every family writes one document shape, which validate() enforces
before anything is written:

    schema, family, host {cores, machine, commit, dirty}, settings,
    rows, checks, frozen

One rule makes every row (row()):
  * an absolute row keeps one sample per run and reports their median;
  * a comparison row measures its base and subject back to back within
    each run and reports the median of the per-run ratios: the
    subject's speedup over the base (subject / base for rates,
    base / subject for times). Pairing within a run cancels
    machine-speed epochs that last longer than one run.
A median is statistics.median: an even count takes the mean of the two
middle values. A row with a bar also carries `bar` and `met`
(median >= bar). A check (name, ok, detail) records an equivalence the
numbers depend on. The document is written even when a bar or check
fails; the runner then exits 1.

`frozen` rows are measurements of deleted code: the seed
implementations that were the "before" side of BENCH_hotpath.json.
They are constants here, copied verbatim with the commit that last
measured them, and no run can regenerate them.
"""

import argparse
import filecmp
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

SCHEMA = "qvisor-microbench-ledger/1"
DOC_KEYS = ["schema", "family", "host", "settings", "rows", "checks",
            "frozen"]
HOST_KEYS = ["cores", "machine", "commit", "dirty"]
ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
BUILD = "release-bench preset (-O3 -DNDEBUG)"
RULE = ("absolute row: median over runs; comparison row: median of the "
        "per-run paired ratios, subject speedup over base")
LOWER_IS_BETTER = {"ns", "s"}

# google-benchmark repetitions per run; a run's sample is their median.
REPETITIONS = 3
# Per-child wall-clock budget (seconds). A child over it gets one retry
# (one overrun on a shared host is not evidence of a hang), then the run
# fails instead of wedging CI.
CHILD_TIMEOUT = 900.0

# The disabled-obs hot path and the armed-but-idle dataplane fault
# domain may each cost 3% of throughput. The bars add 7% for the steal
# bursts that pairing within a run cannot cancel (single-run ratios read
# 0.91-0.97x on identical code on shared hosts); a real leak on the
# per-packet path shows up well beyond 10%.
BUDGET, NOISE_TOLERANCE = 0.03, 0.07
OVERHEAD_BAR = round(1.0 - BUDGET - NOISE_TOLERANCE, 2)
SIMCORE_BAR = 1.5  # headline fig4 cell, overhauled over per-event engine
CONTROL_BAR = 5.0  # incremental over full re-synthesis at 1M tenants

S, P, E, O = ("bench_schedulers:", "bench_preprocessor:",
              "bench_event_queue:", "bench_obs:")


def absolute(*benches):
    return [(None, None, b, None) for b in benches]


# google-benchmark rows: (name, base benchmark or None, subject
# benchmark, bar). Benchmarks are "binary:name"; a row without a base is
# absolute and named after its benchmark.
HOTPATH = [
    ("pifo_narrow_256level_depth256", S + "BM_PifoNarrowRanks/256",
     S + "BM_BucketedPifoNarrowRanks/256", None),
    ("pifo_narrow_256level_depth1024", S + "BM_PifoNarrowRanks/1024",
     S + "BM_BucketedPifoNarrowRanks/1024", None),
    ("pifo_narrow_256level_depth4096", S + "BM_PifoNarrowRanks/4096",
     S + "BM_BucketedPifoNarrowRanks/4096", None),
] + absolute(
    P + "BM_PreprocessorProcess/8", P + "BM_PreprocessorProcess/32",
    P + "BM_PreprocessorBatch/8", E + "BM_EventScheduleRun/1024",
    E + "BM_EventScheduleCancel", E + "BM_EventPacketCapture",
    S + "BM_BucketedPifoDirect/256", S + "BM_BucketedPifoDirect/4096",
    S + "BM_BucketedPifoBatch/256", S + "BM_BucketedPifoBatch/4096",
    S + "BM_BucketedPifoWideRanks", S + "BM_BucketedPifoEvicting",
    S + "BM_SpPifo/2", S + "BM_SpPifo/8", S + "BM_SpPifo/32",
    P + "BM_QvisorPortEnqueueDequeue")

# bench_obs runs the hot-path harnesses with the instrumentation pattern
# in the loop: Arg 0 = null tracer (disabled), Arg 1 = enabled tracer
# and live counters. The bars compare the disabled side against the
# uninstrumented benchmark, re-measured in the same run.
OBS = [
    ("bucketed_pifo_enabled_vs_disabled", O + "BM_BucketedPifoObs/0",
     O + "BM_BucketedPifoObs/1", None),
    ("preprocessor_enabled_vs_disabled", O + "BM_PreprocessorObs/0",
     O + "BM_PreprocessorObs/1", None),
    ("bucketed_pifo_disabled_vs_uninstrumented",
     S + "BM_BucketedPifoNarrowRanks/256", O + "BM_BucketedPifoObs/0",
     OVERHEAD_BAR),
    ("preprocessor_disabled_vs_uninstrumented",
     P + "BM_PreprocessorProcess/8", O + "BM_PreprocessorObs/0",
     OVERHEAD_BAR),
] + absolute(O + "BM_CounterInc", O + "BM_TracerInstant",
             O + "BM_Log2HistogramAdd")

# The timing wheel against the same EventQueue forced heap-only (same
# slots, EventFn and cancel semantics), so the ratio isolates ordering.
SIMCORE_MICRO = [
    (f"event_queue_{name}", E + f"BM_HeapOnlyEvent{bench}",
     E + f"BM_Event{bench}", None)
    for name, bench in (
        ("steady_depth1024", "ScheduleRun/1024"),
        ("steady_depth16384", "ScheduleRun/16384"),
        ("schedule_cancel", "ScheduleCancel"),
        ("bimodal_horizon_depth16384", "BimodalHorizon/16384"),
        ("cancel_heavy", "CancelHeavy"),
        ("monotone_drain_4096", "MonotoneDrain/4096"))]

SIMCORE_CELLS = [("qvisor-share", 0.7), ("fifo", 0.5)]  # first: headline
PARALLEL_SEEDS = "1,2,3,4,5,6,7,8"
PARALLEL_JOBS = [1, 2, 4, 8]
DATAPLANE_SHARDS = [1, 2, 4]
CONTROL_TENANTS = [10_000, 100_000, 1_000_000]
CONTROL_GROUPS = 64
CONTROL_DEPLOYS = 9

# --- frozen rows: measurements of deleted code ------------------------------

SEED_COMMIT = "d33ff2b3e7431b2580daf50cc386e85f5f3ad676"
FROZEN_NOTE = (
    "frozen rows measure code that no longer exists: the seed hash-map "
    "preprocessor and std::function heap event queue, compiled next to "
    "the current ones under the identical harness (best of 4 runs of "
    "the median over 3 repetitions), and the seed commit's own bench "
    "binaries rebuilt at -O3; copied verbatim from BENCH_hotpath.json "
    "at `commit`")


def frozen_pair(name, base, before, subject, after, speedup):
    return {"name": name, "unit": "items/s",
            "base": {"name": base, "samples": [before]},
            "subject": {"name": subject, "samples": [after]},
            "pair_ratios": [speedup], "median": speedup,
            "commit": SEED_COMMIT}


def frozen_seed_binary(bench, value):
    return {"name": f"seed_binary {bench}", "unit": "items/s",
            "samples": [value], "median": value, "commit": SEED_COMMIT}


MAP_PRE, HEAP_EQ = "seed map preprocessor", "seed heap event queue"
FROZEN = {"hotpath": [
    frozen_pair("preprocessor_scalar_8tenants", MAP_PRE + "/8", 125110386,
                "BM_PreprocessorProcess/8", 245994062, 1.97),
    frozen_pair("preprocessor_scalar_32tenants", MAP_PRE + "/32",
                123793595, "BM_PreprocessorProcess/32", 248003379, 2.0),
    frozen_pair("preprocessor_batch_8tenants", MAP_PRE + "/8", 125110386,
                "BM_PreprocessorBatch/8", 247297600, 1.98),
    frozen_pair("event_queue_schedule_run_1024", HEAP_EQ + " run/1024",
                14680449, "BM_EventScheduleRun/1024", 13001287, 0.89),
    frozen_pair("event_queue_schedule_cancel", HEAP_EQ + " cancel",
                15555194, "BM_EventScheduleCancel", 81909203, 5.27),
    frozen_pair("event_queue_packet_capture", HEAP_EQ + " capture",
                50366456, "BM_EventPacketCapture", 102493559, 2.03),
    frozen_seed_binary("BM_PifoNarrowRanks", 37075679),
    frozen_seed_binary("BM_PreprocessorProcess/2", 51146501),
    frozen_seed_binary("BM_PreprocessorProcess/8", 47099316),
    frozen_seed_binary("BM_PreprocessorProcess/32", 46060561),
]}

# --- the one row rule ---------------------------------------------------------


def tidy(x):
    """Round a stored number: whole units at or above 1000, else 4 places."""
    return round(x) if abs(x) >= 1000 else round(x, 4)


def median(values):
    return tidy(statistics.median(values))


def row(name, unit, samples=None, base=None, subject=None, bar=None):
    """The ledger's one row rule. An absolute row takes `samples`, one
    per run. A comparison row takes `base` and `subject` as
    (label, samples), sample i of both measured back to back in run i,
    and reports the median of the per-run ratios."""
    if samples is not None:
        r = {"name": name, "unit": unit,
             "samples": [tidy(x) for x in samples]}
        r["median"] = median(r["samples"])
    else:
        assert len(base[1]) == len(subject[1]), name
        ratios = [b / s if unit in LOWER_IS_BETTER else s / b
                  for b, s in zip(base[1], subject[1])]
        r = {"name": name, "unit": unit,
             "base": {"name": base[0], "samples": [tidy(b) for b in base[1]]},
             "subject": {"name": subject[0],
                         "samples": [tidy(s) for s in subject[1]]},
             "pair_ratios": [round(x, 4) for x in ratios]}
        r["median"] = median(r["pair_ratios"])
    if bar is not None:
        r["bar"] = bar
        r["met"] = r["median"] >= bar
    return r


def check(name, problems, detail):
    """An equivalence check: ok when `problems` is empty."""
    return {"name": name, "ok": not problems,
            "detail": "; ".join(problems) if problems else detail}


def validate(doc):
    """Raise ValueError unless `doc` has the ledger shape."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"{doc.get('family', '?')} ledger: {what}")

    need(list(doc) == DOC_KEYS, f"keys {list(doc)} != {DOC_KEYS}")
    need(doc["schema"] == SCHEMA, f"schema {doc['schema']!r}")
    need(list(doc["host"]) == HOST_KEYS, f"host keys {list(doc['host'])}")
    need(isinstance(doc["settings"], dict), "settings is not an object")
    need(doc["rows"], "no rows")
    for frozen, rows in ((False, doc["rows"]), (True, doc["frozen"])):
        for r in rows:
            cmp = "samples" not in r
            shape = (["name", "unit"] +
                     (["base", "subject", "pair_ratios"] if cmp
                      else ["samples"]) + ["median"] +
                     (["bar", "met"] if "bar" in r else []) +
                     (["commit"] if frozen else []))
            need(list(r) == shape, f"row {r.get('name')}: keys {list(r)}")
            values = r["pair_ratios"] if cmp else r["samples"]
            need(values and all(isinstance(v, (int, float))
                                for v in values),
                 f"row {r['name']}: empty or non-numeric samples")
            if cmp:
                for side in ("base", "subject"):
                    need(list(r[side]) == ["name", "samples"] and
                         len(r[side]["samples"]) == len(values),
                         f"row {r['name']}: {side} is not paired")
            if not frozen:
                need(r["median"] == median(values),
                     f"row {r['name']}: median {r['median']} does not "
                     f"follow from its samples")
            if "bar" in r:
                need(r["met"] == (r["median"] >= r["bar"]),
                     f"row {r['name']}: met disagrees with bar")
    for c in doc["checks"]:
        need(list(c) == ["name", "ok", "detail"] and
             isinstance(c["ok"], bool), f"check {c}")


# --- children -------------------------------------------------------------------


def run_child(cmd):
    """stdout of `cmd`; a second timeout or a non-zero exit (every bench
    binary exits non-zero when its own invariants fail) ends the run."""
    for attempt in (1, 2):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, timeout=CHILD_TIMEOUT).stdout
        except subprocess.TimeoutExpired:
            print(f"timeout after {CHILD_TIMEOUT:.0f}s "
                  f"(attempt {attempt}/2): {' '.join(cmd)}", file=sys.stderr)
        except subprocess.CalledProcessError as e:
            sys.exit(f"{' '.join(cmd)} exited {e.returncode}:\n{e.stderr}")
    sys.exit(f"child hung twice, giving up: {' '.join(cmd)}")


def binary(args, subdir, name):
    path = os.path.join(args.build_dir, subdir, name)
    if not os.path.exists(path):
        sys.exit(f"missing binary: {path} (build the 'release-bench' "
                 f"preset first)")
    return path


def sweep_artifacts(out_dir):
    """Non-trace artifact names of a sweep output dir, sorted."""
    return sorted(n for n in os.listdir(out_dir)
                  if not n.endswith("_trace.json"))


def artifact_differences(dir_a, dir_b):
    """Byte-compare every non-trace artifact of two sweep output dirs;
    returns what differs (empty when identical)."""
    names = sweep_artifacts(dir_a)
    if names != sweep_artifacts(dir_b):
        return [f"artifact sets differ: {names} vs {sweep_artifacts(dir_b)}"]
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return [f"{n} differs" for n in mismatch + errors]


def fingerprint_check(cell, pairs):
    """Every (reference, overhauled) bench_simcore pair must report the
    same deterministic result fingerprint."""
    problems = [f"pair {i}: {ref['result']} vs {over['result']}"
                for i, (ref, over) in enumerate(pairs)
                if ref["result"] != over["result"]]
    return check(f"{cell} fingerprints identical across engines", problems,
                 f"{len(pairs)} pairs identical")


# --- families ---------------------------------------------------------------------


def gbench_rows(args, specs):
    """Run each google-benchmark binary once per run on exactly the
    benchmarks `specs` read, then build their rows."""
    benches = {b for _, base, subject, _ in specs
               for b in (base, subject) if b}
    by_binary = {}
    for b in sorted(benches):
        exe, _, bench = b.partition(":")
        by_binary.setdefault(exe, []).append(bench)
    runs = []
    for _ in range(args.runs):
        run = {}
        for exe, names in by_binary.items():
            pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"
            report = json.loads(run_child([
                binary(args, "bench", exe),
                f"--benchmark_filter={pattern}",
                f"--benchmark_min_time={args.min_time}",
                f"--benchmark_repetitions={REPETITIONS}",
                "--benchmark_report_aggregates_only=true",
                "--benchmark_format=json"]))
            for b in report["benchmarks"]:
                if b.get("aggregate_name") == "median":
                    run[f"{exe}:{b['run_name']}"] = b["items_per_second"]
        if benches - run.keys():
            sys.exit(f"benchmarks did not run: {sorted(benches - run.keys())}")
        runs.append(run)

    def side(b):
        return b.partition(":")[2], [run[b] for run in runs]

    rows = []
    for name, base, subject, bar in specs:
        if base is None:
            label, samples = side(subject)
            rows.append(row(label, "items/s", samples=samples, bar=bar))
        else:
            rows.append(row(name, "items/s", base=side(base),
                            subject=side(subject), bar=bar))
    return rows


def gbench_settings(args):
    return {"build": BUILD, "rule": RULE, "runs": args.runs,
            "repetitions": REPETITIONS, "min_time_s": args.min_time,
            "items": "one item per enqueue, dequeue, process or "
                     "schedule call"}


def hotpath_family(args):
    settings = gbench_settings(args)
    settings["frozen"] = FROZEN_NOTE
    return settings, gbench_rows(args, HOTPATH), []


def obs_family(args):
    return gbench_settings(args), gbench_rows(args, OBS), []


def parallel_family(args):
    """The chaos harness over an 8-seed grid at each --jobs value, all
    jobs values back to back in every run; every parallel run's
    artifacts byte-compared against the same run's --jobs 1 output."""
    chaos = binary(args, "src/experiments", "chaos")
    walls = {j: [] for j in PARALLEL_JOBS}
    problems = {j: [] for j in PARALLEL_JOBS[1:]}
    with tempfile.TemporaryDirectory(prefix="bench_parallel_") as work:
        for run in range(args.runs):
            for jobs in PARALLEL_JOBS:
                out = os.path.join(work, f"run{run}_jobs{jobs}")
                os.makedirs(out)
                start = time.monotonic()
                run_child([chaos, "--seeds", PARALLEL_SEEDS, "--jobs",
                           str(jobs), "--out", out])
                walls[jobs].append(time.monotonic() - start)
                artifacts = len(sweep_artifacts(out))
                if jobs != 1:
                    problems[jobs] += artifact_differences(
                        os.path.join(work, f"run{run}_jobs1"), out)
    rows = [row("chaos_wall_jobs1", "s", samples=walls[1])] + [
        row(f"chaos_speedup_jobs{j}", "s", base=("jobs 1", walls[1]),
            subject=(f"jobs {j}", walls[j])) for j in PARALLEL_JOBS[1:]]
    checks = [check(f"jobs {j} artifacts byte-identical to jobs 1",
                    problems[j], f"{artifacts} artifacts identical in "
                                 f"{args.runs} runs")
              for j in PARALLEL_JOBS[1:]]
    settings = {"build": BUILD, "rule": RULE, "runs": args.runs,
                "binary": "src/experiments/chaos", "seeds": PARALLEL_SEEDS,
                "jobs": PARALLEL_JOBS,
                "ceiling": "speedup is bounded by min(jobs, cells, cores)"}
    return settings, rows, checks


def dataplane_family(args):
    """Pipelined pps per shard count, then supervision armed (no faults)
    against off, fused on one shard, paired within each run."""
    dp = binary(args, "bench", "bench_dataplane")
    results = []

    def pps(*extra):
        results.append(json.loads(run_child(
            [dp, "--packets", str(args.dataplane_packets), *extra])))
        return results[-1]["pps"]

    pipelined = {s: [] for s in DATAPLANE_SHARDS}
    for _ in range(args.runs):
        for s in DATAPLANE_SHARDS:
            pipelined[s].append(pps("--shards", str(s)))
    # Below 5 pairs a single steal burst can still own the median.
    pairs = max(args.runs, 5)
    off, on = [], []
    for _ in range(pairs):
        off.append(pps("--shards", "1", "--fused=true", "--supervision=false"))
        on.append(pps("--shards", "1", "--fused=true", "--supervision=true"))
    rows = [row(f"pipelined_{s}shard", "pps", samples=pipelined[s])
            for s in DATAPLANE_SHARDS]
    rows.append(row("supervision_overhead", "pps",
                    base=("fused, supervision off", off),
                    subject=("fused, supervision on", on), bar=OVERHEAD_BAR))
    unbalanced = [json.dumps(r["book"]) for r in results if not r["balanced"]]
    checks = [check("conservation books balanced", unbalanced,
                    f"{len(results)} runs balanced")]
    settings = {"build": BUILD, "rule": RULE, "runs": args.runs,
                "supervision_pairs": pairs,
                "workload": f"{args.dataplane_packets} packets/port, 8 "
                            f"tenants under 't0 >> t1 + ... + t7', last "
                            f"tenant rate-policed, seed 1",
                "ceiling": "the pipelined mode needs 2 cores per shard"}
    return settings, rows, checks


def simcore_family(args):
    """Whole fig4 cells on the per-event reference engine and the
    overhauled one, back to back per pair, fingerprints compared; one
    sweep-artifact byte-compare on the headline cell; then the
    wheel-vs-heap-only event-queue microbench pairs."""
    sim = binary(args, "bench", "bench_simcore")
    pairs_per_cell = max(args.simcore_pairs, 3)
    rows, checks = [], []
    for i, (scheme, load) in enumerate(SIMCORE_CELLS):
        cell = f"{scheme}:{load}"
        def run_cell(per_event):
            return json.loads(run_child([sim, "--scheme", scheme, "--load",
                                         str(load), f"--per-event={per_event}"]))

        pairs = [(run_cell("true"), run_cell("false"))
                 for _ in range(pairs_per_cell)]
        rows.append(row(cell, "events/s",
                        base=("per-event reference",
                              [ref["events_per_sec"] for ref, _ in pairs]),
                        subject=("overhauled",
                                 [over["events_per_sec"] for _, over in pairs]),
                        bar=SIMCORE_BAR if i == 0 else None))
        # Where the overhauled engine's events lived and how many link
        # sub-steps the coalesced drain replayed inline.
        diagnostics = [{"events": over["events"],
                        "events_replayed": over["events_replayed"],
                        **{f"wheel.{k}": v for k, v in over["wheel"].items()}}
                       for _, over in pairs]
        rows += [row(f"{cell} {key}", "count",
                     samples=[d[key] for d in diagnostics])
                 for key in diagnostics[0]]
        checks.append(fingerprint_check(cell, pairs))

    scheme, load = SIMCORE_CELLS[0]
    with tempfile.TemporaryDirectory(prefix="bench_simcore_") as work:
        dirs = []
        for per_event in ("true", "false"):
            dirs.append(os.path.join(work, per_event))
            os.makedirs(dirs[-1])
            run_child([sim, "--scheme", scheme, "--load", str(load),
                       f"--per-event={per_event}", "--artifacts", dirs[-1]])
        checks.append(check(
            f"{scheme}:{load} sweep artifacts byte-identical across engines",
            artifact_differences(*dirs),
            f"{len(sweep_artifacts(dirs[0]))} artifacts identical"))
    rows += gbench_rows(args, SIMCORE_MICRO)
    settings = gbench_settings(args)
    settings.update(pairs_per_cell=pairs_per_cell,
                    cells=[f"{s}:{l}" for s, l in SIMCORE_CELLS],
                    reference="the same binaries with the per-event engine "
                              "selected at runtime "
                              "(Simulator::SimCore::kPerEventReference)")
    return settings, rows, checks


def control_family(args):
    """Full vs incremental re-synthesis (both paths timed in each
    bench_control invocation), tenant-lookup ns and plan memory per
    tenant count. The binary exits non-zero if a deploy fails, an edit
    leaves the delta path, or fleet epochs diverge."""
    ctl = binary(args, "bench", "bench_control")
    runs = max(args.runs, 3)
    rows = []
    for tenants in CONTROL_TENANTS:
        cells = [json.loads(run_child(
            [ctl, "--tenants", str(tenants), "--groups", str(CONTROL_GROUPS),
             "--deploys", str(CONTROL_DEPLOYS),
             "--lookups", str(args.control_lookups)])) for _ in range(runs)]
        rows.append(row(
            f"deploy_{tenants}tenants", "ns",
            base=("full", [c["deploy_ns"]["full_median"] for c in cells]),
            subject=("incremental",
                     [c["deploy_ns"]["incremental_median"] for c in cells]),
            bar=CONTROL_BAR if tenants == CONTROL_TENANTS[-1] else None))
        rows += [row(f"lookup_{key}_{tenants}tenants", "ns",
                     samples=[c["lookup_ns"][key] for c in cells])
                 for key in ("dense", "spill")]
        rows += [row(f"memory_{key}_{tenants}tenants", "bytes",
                     samples=[c["memory_bytes"][key] for c in cells])
                 for key in cells[0]["memory_bytes"]]
    settings = {"build": BUILD, "rule": RULE, "runs": runs,
                "groups": CONTROL_GROUPS, "deploys_per_path": CONTROL_DEPLOYS,
                "lookups": args.control_lookups,
                "workload": f"[0, N) in {CONTROL_GROUPS} groups across 4 "
                            f"switches; full = deploy_full from scratch, "
                            f"incremental = one-group weight edit"}
    return settings, rows, []


FAMILIES = {"hotpath": hotpath_family, "obs": obs_family,
            "parallel": parallel_family, "dataplane": dataplane_family,
            "simcore": simcore_family, "control": control_family}

# --- document -------------------------------------------------------------------


def host_facts():
    def git(*args):
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    facts = {"cores": os.cpu_count(), "machine": platform.machine(),
             "commit": "unknown", "dirty": None}
    # A checkout without its own .git must not report an enclosing repo.
    if git("rev-parse", "--show-toplevel") == ROOT:
        facts.update(commit=git("rev-parse", "HEAD"),
                     dirty=bool(git("status", "--porcelain",
                                    "--untracked-files=no")))
    return facts


def write(path, doc):
    validate(doc)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def report(path, doc):
    print(f"wrote {path} ({doc['family']}, {doc['host']['cores']} cores)")
    for r in doc["rows"]:
        if "samples" in r:
            text = f"{r['median']:,} {r['unit']}"
        else:
            text = (f"{r['subject']['name']} over {r['base']['name']}: "
                    f"{r['median']}x")
        if "bar" in r:
            text += f" (bar {r['bar']}: {'met' if r['met'] else 'NOT MET'})"
        print(f"  {r['name']}: {text}")
    for c in doc["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"({c['detail']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default="build-release-bench")
    ap.add_argument("--out", help="default: BENCH_<family>.json")
    ap.add_argument("--runs", type=int, default=3,
                    help="runs per row; rows report the median")
    ap.add_argument("--min-time", type=float, default=0.5,
                    help="google-benchmark min time per repetition (s)")
    mode = ap.add_mutually_exclusive_group()
    for family in list(FAMILIES)[1:]:
        mode.add_argument(f"--{family}", dest="family", action="store_const",
                          const=family, help=f"write BENCH_{family}.json")
    ap.add_argument("--dataplane-packets", type=int, default=2_000_000,
                    help="packets per port per bench_dataplane run")
    ap.add_argument("--control-lookups", type=int, default=2_000_000,
                    help="GroupIndex probes per bench_control run")
    ap.add_argument("--simcore-pairs", type=int, default=5,
                    help="reference/overhauled pairs per fig4 cell (min 3)")
    ap.set_defaults(family="hotpath")
    args = ap.parse_args()

    settings, rows, checks = FAMILIES[args.family](args)
    doc = {"schema": SCHEMA, "family": args.family, "host": host_facts(),
           "settings": settings, "rows": rows, "checks": checks,
           "frozen": FROZEN.get(args.family, [])}
    path = args.out or f"BENCH_{args.family}.json"
    write(path, doc)
    report(path, doc)
    failed = ([r["name"] for r in rows if r.get("met") is False] +
              [c["name"] for c in checks if not c["ok"]])
    if failed:
        sys.exit(f"failed bars or checks: {', '.join(failed)}")


if __name__ == "__main__":
    main()
