#!/usr/bin/env python3
"""Builds and runs the benchmark runner for one workload, then prints the
run's report and, as the last stdout line, its result object:

    python3 perfbench/run.py --workload backfill_wide --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric (and writes the run's spans as a Chrome trace).
`--workload all` runs every workload in turn, each in its own process, and
prints each metric by name with its unit; it exits non-zero if any run
fails.

Run from the root of a checkout of the repository. The runner is built
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build/), so
the first run builds for a few minutes.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

RUN_TIMEOUT_S = 170
CHECKPOINT = (".taste_model_cache/"
              "cv2_WikiLike_n240_v700_p1_f12_lr0.002_s1234_adtd.ckpt")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def require_sources():
    """The benchmark measures the repository it sits in; without the
    sources and the committed checkpoint there is nothing to measure."""
    missing = [p for p in ("CMakeLists.txt", "src", CHECKPOINT)
               if not (ROOT / p).exists()]
    if missing:
        log("not a checkout of the repository (missing: "
            + ", ".join(missing) + ")")
        sys.exit(2)


def build():
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text().splitlines():
            shutil.rmtree(out)  # configured for another source tree
    if not cache.exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "--target",
                    "perfbench_runner", "-j", str(os.cpu_count() or 1)])
    return out / "perfbench_runner"


def run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log("build failed: " + " ".join(cmd))
        sys.exit(proc.returncode or 1)


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_file = None
    if trace:
        trace_dir = build_dir() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    # The program's own switches stay at their defaults.
    env = {k: v for k, v in os.environ.items()
           if k not in ("TASTE_METRICS", "TASTE_TRACE")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s on {workload}")
        sys.exit(3)
    if proc.returncode != 0:
        log(f"runner exited with {proc.returncode} on {workload}")
        sys.exit(proc.returncode if proc.returncode > 0 else 3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("runner printed nothing")
        sys.exit(3)
    return json.loads(lines[-1])


def end_to_end(raw):
    """Metrics and workload properties of one end-to-end run."""
    req = raw["request_ms"]
    if len(req) < stats.MIN_REQUESTS:
        raise ValueError(f"{len(req)} requests; request_ms_p95 needs "
                         f"{stats.MIN_REQUESTS}")
    tables = raw["tables"]
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "tables_per_s": tables / raw["wall_s"],
        "request_ms_p50": stats.percentile(req, 50),
        "request_ms_p95": stats.percentile(req, 95),
        "cpu_ms_per_table": raw["cpu_ms"] / tables,
        "peak_rss_mib": raw["peak_rss_mib"],
        "f1_micro": raw["f1_micro"],
    }
    props = {
        "setup_samples": len(raw["setup_s"]),
        "requests": len(req),
        "tables_per_request": tables / len(req),
        "request_ms_p95_samples_beyond": stats.samples_beyond(len(req), 95),
        "distinct_tables": raw["distinct_tables"],
        "mean_columns_per_table": raw["mean_columns"],
        "p2_column_share": raw["p2_column_share"],
        "scanned_column_ratio": raw["scanned_column_ratio"],
        "failed_ratio": raw["failed"] / raw["attempted"],
    }
    repeat = raw["request_repeat"]
    if repeat:
        # Router: requests for a table seen before against first sightings,
        # so a cache-dependent change shows how much rests on the repeats.
        hot = [ms for ms, r in zip(req, repeat) if r]
        cold = [ms for ms, r in zip(req, repeat) if not r]
        props["repeat_share"] = len(hot) / len(req)
        props["repeat_request_ms_p50"] = (
            stats.percentile(hot, 50) if hot else None)
        props["first_request_ms_p50"] = (
            stats.percentile(cold, 50) if cold else None)
    return metrics, props


def traced(raw):
    """Per-layer metrics and trace facts of one traced run."""
    layer = raw["layer"]
    props = {
        "tables": raw["tables"],
        "spans": raw["spans"],
        "trace_file": raw["trace_file"],
        "tracing_overhead_ratio": layer["trace.overhead_ratio"],
        "stage_coverage_below_0.95": layer["core.stage_coverage"] < 0.95,
        "self_ms": raw["self_ms"],
    }
    return dict(layer), props


def assemble(bench, raw, trace):
    """The result object the contract asks for, and the run's report."""
    metrics, props = traced(raw) if trace else end_to_end(raw)
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in spec]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError("runner did not report: " + ", ".join(missing))
    violations = raw["violations"]
    correct = bool(raw["invariants_ok"]) and raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    report = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "mode": raw["mode"],
        "host": raw["host"],
        "properties": props,
        "violations": violations,
    }
    return result, report


def run_one(bench, workload, seed, seconds, trace):
    binary = build()
    raw = run_binary(binary, workload, seed, seconds, trace)
    return assemble(bench, raw, trace)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    require_sources()
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        ok = True
        for w in workloads:
            result, report = run_one(bench, w, args.seed, args.seconds,
                                     args.trace)
            ok = ok and result["correct"]
            print(f"{w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
            print("  properties: " + json.dumps(report["properties"]))
        return 0 if ok else 1
    if args.workload not in workloads:
        log(f"unknown workload '{args.workload}'")
        return 2
    result, report = run_one(bench, args.workload, args.seed, args.seconds,
                             args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
