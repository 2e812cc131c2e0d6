#!/usr/bin/env python3
"""End-to-end benchmark: build qvbench, run workloads, check outputs, print metrics.

Usage (from the repository root):
    python3 bench/e2e/run.py                          # all four workloads
    python3 bench/e2e/run.py --workload fig4_sweep --seed 3 --seconds 15 --trace 0
    python3 bench/e2e/run.py --trace                  # per-layer metrics instead
    python3 bench/e2e/run.py --smoke                  # every workload + check, tiny
    python3 bench/e2e/run.py --reps 5 --out a.json    # keep every run's samples
    python3 bench/e2e/run.py compare a.json b.json    # apply BENCHMARK.json bounds

The benchmark builds src/ at -O3 -DNDEBUG into build-bench-e2e/ through
its own CMake project (bench/e2e/CMakeLists.txt). A timed run starts
three set-up-only processes, the timed process, and three more set-up-
only processes; set-up time is spawn to ready (warm-up done) of each,
and the median of the seven is reported. With --workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when every check passed.

Outputs are checked against golden.json for seeds 1 and 2 (fig4 cell
digests, sweep artifact sha256s, dataplane port books); any other seed
checks only the invariants and prints "golden: unchecked".
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD_DIR = ROOT / "build-bench-e2e"
QVBENCH = BUILD_DIR / "qvbench"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# Set-up-only processes on each side of the timed process: set-up time
# is sampled before and after the timed run so one slow spell of a
# shared host does not decide it.
SETUP_ONLY_EACH_SIDE = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that leaves no result to print."""


# --- build ---------------------------------------------------------------------


def build():
    """Configure (once) and build qvbench; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "qvbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def qvbench(args):
    """Run qvbench once; returns (spawn monotonic ns, parsed JSON report)."""
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([str(QVBENCH)] + args, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"qvbench timed out: {' '.join(args)}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"qvbench exited {proc.returncode}: {' '.join(args)}")
    return spawn_ns, json.loads(proc.stdout)


# --- statistics ----------------------------------------------------------------


def summary(values):
    """median, quartiles and count, as statistics.quantiles(n=4) gives them."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# --- golden checks -------------------------------------------------------------


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def golden_outputs(workload, seed, profile, report):
    """Golden-file entries this run produced: {section: {key: value}}."""
    if workload in ("fig4_lossless", "fig4_reliable"):
        return {"fig4_cells": {op["key"]: sha256_text(op["fingerprint"])
                               for op in report["ops"] if not op["error"]}}
    prefix = f"{profile}/{workload}/s{seed}"
    if workload == "fig4_sweep":
        art = Path(report["artifacts_dir"])
        return {"sweep_artifacts": {f"{prefix}/{name}": sha256_file(art / name)
                                    for name in report["artifacts"]}}
    return {"dataplane_books": {prefix: report["books"]}}


def check_golden(workload, seed, profile, report, golden):
    """Returns (status line, the golden keys this run's outputs missed)."""
    if seed not in golden["seeds"]:
        return "golden: unchecked", set()
    produced = golden_outputs(workload, seed, profile, report)
    bad = set()
    for section, entries in produced.items():
        expected = golden.get(section, {})
        bad.update(key for key, value in entries.items()
                   if expected.get(key) != value)
        if section == "sweep_artifacts":
            prefix = f"{profile}/{workload}/s{seed}/"
            bad.update(k for k in expected if k.startswith(prefix)
                       and k not in entries)
    if bad:
        return "golden: MISMATCH " + ", ".join(sorted(bad)[:4]), bad
    return "golden: ok", bad


def write_golden(workload, seed, profile, report):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seeds": [1, 2]}
    for section, entries in golden_outputs(workload, seed, profile, report).items():
        golden.setdefault(section, {}).update(entries)
        golden[section] = dict(sorted(golden[section].items()))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# --- one workload run ----------------------------------------------------------


def work_of(workload, report):
    """Work per timed operation: simulator events or processed packets."""
    if workload == "fig4_sweep":
        summary_json = Path(report["artifacts_dir"]) / "fig4_summary.json"
        if not summary_json.exists():  # the reference grid failed
            return [0 for _ in report["ops"]]
        grid = json.loads(summary_json.read_text())["grid"]
        events = sum(cell["events"] for cell in grid)
        return [events for _ in report["ops"]]
    return [op["work"] for op in report["ops"]]


def run_workload(workload, seed, seconds, trace, smoke, write_golden_file=False):
    """One run of one workload; returns a result record (see --out)."""
    profile = "smoke" if smoke else "full"
    work = BUILD_DIR / "work" / f"{workload}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--work-dir", str(work)]
    if smoke:
        args.append("--smoke")
    try:
        if trace:
            traces = BUILD_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            spans = traces / f"{workload}-s{seed}-{profile}.json"
            _, report = qvbench(args + ["--trace", "--spans-out", str(spans)])
            return traced_record(report, spans)
        setups = []

        def set_up(extra):
            spawn_ns, report = qvbench(args + extra)
            setups.append((report["ready_mono_ns"] - spawn_ns) / 1e9)
            return report

        for _ in range(SETUP_ONLY_EACH_SIDE):
            set_up(["--setup-only"])
        report = set_up([])
        for _ in range(SETUP_ONLY_EACH_SIDE):
            set_up(["--setup-only"])
        status, bad = check_golden(workload, seed, profile, report,
                                   json.loads(GOLDEN.read_text()))
        if write_golden_file:
            write_golden(workload, seed, profile, report)
            status, bad = "golden: written", set()
        # Sweep grids and dataplane runs are checked byte-equal to the
        # first one, so a golden miss there condemns every operation.
        per_op = workload in ("fig4_lossless", "fig4_reliable")
        for op in report["ops"]:
            if not op["error"] and bad and (op["key"] in bad or not per_op):
                op["error"] = "output differs from golden.json"
        record = timed_record(workload, report, setups)
        record["golden"] = status
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def base_record(mode, report):
    """The fields timed and traced records share."""
    ops = report["ops"]
    return {
        "mode": mode,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"]),
        "failures": [f'{op["key"]}: {op["error"]}' for op in ops if op["error"]],
        "ops": [op["key"] for op in ops],
        "build": {"compiler": report["compiler"], "cxx_flags": report["cxx_flags"]},
    }


def timed_record(workload, report, setups):
    ops = report["ops"]
    good = [op for op in ops if not op["error"]] or ops
    works = work_of(workload, {**report, "ops": good})
    samples = {
        "op_wall_s": [op["wall_s"] for op in good],
        "work_per_s": [w / op["wall_s"] for w, op in zip(works, good)],
        "setup_s": setups,
    }
    stats = {name: summary(values) for name, values in samples.items()}
    stats["peak_rss_mb"] = summary([report["peak_rss_kb"] / 1024.0])
    return {
        **base_record("timed", report),
        "metrics": {name: stats[name]["median"] for name in END_TO_END},
        "stats": stats,
        "samples": samples,
    }


def traced_record(report, spans):
    missing = sorted(set(PER_LAYER) - set(report["layers"]))
    if missing:
        raise BenchError(f"qvbench did not report {', '.join(missing)}")
    return {
        **base_record("traced", report),
        "metrics": {name: report["layers"][name] for name in PER_LAYER},
        "spans": str(spans.relative_to(ROOT)),
    }


def print_record(workload, seed, record):
    print(f"{workload} (seed {seed}): {record['attempted']} operations, "
          f"{record['failed']} failed" +
          (f", {record['golden']}" if "golden" in record else ""))
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    specs = END_TO_END if record["mode"] == "timed" else PER_LAYER
    for name, spec in specs.items():
        if record["mode"] == "timed":
            s = record["stats"][name]
            print(f"  {name:<28} {s['median']:.6g} {spec['unit']}"
                  f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        else:
            print(f"  {name:<28} {record['metrics'][name]:.6g} {spec['unit']}")
    if record["mode"] == "traced":
        print(f"  spans: {record['spans']}")


# --- result files and compare ----------------------------------------------------


def source_facts():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        proc = subprocess.run(["git", "-C", str(ROOT)] + list(args), env=env,
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(ROOT):
        return {"commit": "unknown", "dirty": None}
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for facts in ("host", "settings"):
        if a[facts] != b[facts]:
            print(f"compare: refusing, {facts} differ:\n  {a[facts]}\n  {b[facts]}")
            return 2
    print(f"A: {path_a} ({a['source']['commit']}, dirty {a['source']['dirty']})")
    print(f"B: {path_b} ({b['source']['commit']}, dirty {b['source']['dirty']})")
    metrics = dict(END_TO_END)
    metrics["fail_frac"] = {"name": "fail_frac", "unit": "ratio",
                            "better": "lower", "bound": 0.0}
    bad = 0
    for workload in a["runs"]:
        if workload not in b["runs"]:
            continue
        print(workload)
        for name, spec in metrics.items():
            va = [metric_value(r, name) for r in a["runs"][workload]
                  if r["mode"] == "timed"]
            vb = [metric_value(r, name) for r in b["runs"][workload]
                  if r["mode"] == "timed"]
            verdict, change = judge(va, vb, spec)
            bad += verdict in ("worse", "unresolved")
            sa, sb = summary(va), summary(vb)
            print(f"  {name:<14} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
                  f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                  f"  {spec['unit']}  change {100 * change:+.2f}%  {verdict}")
    return 1 if bad else 0


def metric_value(run, name):
    if name == "fail_frac":
        return run["failed"] / run["attempted"]
    return run["metrics"][name]


def judge(va, vb, spec):
    """Verdict for one (metric, workload) pair: better, same, worse or
    unresolved. `change` is B's median relative to A's, positive = worse."""
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1 if spec["better"] == "lower" else -1
    if spec["bound"] == 0.0:  # absolute: any increase is a regression
        return ("worse" if sign * (mb - ma) > 0 else
                "better" if sign * (mb - ma) < 0 else "same"), 0.0
    change = sign * (mb - ma) / ma
    spread = max(relative_iqr(va), relative_iqr(vb))
    b_wins = all(sign * (y - x) < 0 for x in va for y in vb)
    a_wins = all(sign * (y - x) > 0 for x in va for y in vb)
    if spread > spec["bound"]:
        return ("better" if b_wins else "worse" if a_wins else "unresolved"), change
    if change > spec["bound"]:
        return "worse", change
    if -change > spec["bound"]:
        return "better", change
    return "same", change


def relative_iqr(values):
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


# --- main ----------------------------------------------------------------------


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and end with the JSON result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="1: per-layer metrics from the traced copies")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every workload and check in seconds")
    ap.add_argument("--reps", type=int, default=1, help="runs per workload")
    ap.add_argument("--out", help="write every run's metrics and samples here")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's outputs into golden.json")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.reps < 1 or args.seconds <= 0:
        ap.error("--seed must be >= 0, --reps >= 1, --seconds > 0")

    try:
        build()
        workloads = [args.workload] if args.workload else WORKLOADS
        # --smoke runs every check: the timed path and the traced copies.
        modes = [False, True] if args.smoke else [bool(args.trace)]
        runs = {}
        for workload in workloads:
            for trace in modes:
                for _ in range(args.reps):
                    record = run_workload(workload, args.seed, args.seconds,
                                          trace, args.smoke, args.write_golden)
                    print_record(workload, args.seed, record)
                    runs.setdefault(workload, []).append(record)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3

    records = [r for rs in runs.values() for r in rs]
    if args.out:
        build_facts = records[0]["build"]
        Path(args.out).write_text(json.dumps({
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system(), **build_facts},
            "source": source_facts(),
            "settings": {"seed": args.seed, "seconds": args.seconds,
                         "trace": args.trace, "smoke": args.smoke,
                         "reps": args.reps, "workloads": workloads},
            "runs": runs,
        }, indent=1) + "\n")
    failed = sum(r["failed"] for r in records)
    if args.workload:
        specs = PER_LAYER if args.trace else END_TO_END
        mode = "traced" if args.trace else "timed"
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records),
            "failed": failed,
            "metrics": {name: {"value": statistics.median(
                                   r["metrics"][name] for r in records
                                   if r["mode"] == mode),
                               "unit": spec["unit"]}
                        for name, spec in specs.items()},
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
