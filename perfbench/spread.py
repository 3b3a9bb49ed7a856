#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per workload and
end-to-end metric, the median and the interquartile spread as a share of
the median, against the metric's bound in BENCHMARK.json:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out f.json]
        [--against earlier.json]

A spread above a third of its bound is marked '!', above the bound 'FAIL'
(setup_s is exempt from the spread check). With --against, the values of
an earlier --out file are compared too: a median worse than the earlier
one by more than the bound is a 'FAIL'. Runs are sequential; each is one
`perfbench/run.py` process.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()
    earlier = (json.loads(pathlib.Path(args.against).read_text())
               if args.against else {})

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = str(bench["run_seconds"])
    values = {}
    ok = True
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)

    for w in workloads:
        print(w)
        for m in bench["end_to_end"]:
            vals = values[w][m["name"]]
            spread = stats.relative_spread(vals)
            mark = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    mark, ok = "FAIL", False
                elif spread > m["bound"] / 3:
                    mark = "!"
            median = stats.median(vals)
            shift = ""
            if m["name"] in earlier.get(w, {}):
                before = stats.median(earlier[w][m["name"]])
                worse = (median - before if m["better"] == "lower"
                         else before - median) / before
                shift = f"worse by {worse:+.4f}"
                if worse > m["bound"]:
                    shift, ok = shift + " FAIL", False
            print(f"  {m['name']:18s} median {median:12.6g} "
                  f"spread {spread:7.4f} bound {m['bound']:5.3f} {mark} "
                  f"{shift}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
