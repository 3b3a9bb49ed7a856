#!/usr/bin/env python3
"""Gate benchmark regressions against the committed baseline.

Compares a freshly generated BENCH_substrate.json (bench_micro_substrate's
machine-readable artifact) against the baseline committed at the repo root
and exits non-zero when either

  * any GEMM shape's blocked-kernel GFLOP/s dropped by more than the
    threshold (default 25%), or
  * either end-to-end wall time (sequential or pipelined) grew by more
    than the threshold, or
  * the wide-table serving run (p2_serving) slowed down by more than the
    threshold against baseline, or its pipelined-over-sequential speedup
    fell below the hardware-aware floor (1.5x with >=4 hardware threads,
    0.95x below that), or
  * an int8_p2 row's int8_ms grew by more than the threshold, or the
    fp32->int8 speedup fell below the 2.5x floor while a SIMD kernel was
    compiled in (3x is the advisory paper target), or
  * the multi-process serving tier (p2_serving_mp) slowed down beyond the
    threshold at any replica count, its 1->4 replica scaling fell below
    the floor (1.5x with >=4 hardware threads; a 0.70x no-collapse floor
    on starved runners, where process scaling is physically unavailable),
    or kill->respawn recovery left the bounded window.

It also sanity-checks the artifact's embedded "metrics" section (present
since the observability layer landed): the document must be valid JSON and
carry the pipeline stage histograms with as many batch observations as the
end-to-end run processed tables.

Faster-than-baseline results never fail: CI runners are noisy in BOTH
directions, so the gate is one-sided. The CI job that runs this is
continue-on-error — the signal is the uploaded artifact plus a red mark,
not a hard merge block.

Usage:
  python3 tools/bench_check.py --fresh build/BENCH_substrate.json \
      [--baseline BENCH_substrate.json] [--threshold 0.25]

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_gemm(baseline, fresh, threshold, failures):
    base_by_shape = {row["shape"]: row for row in baseline.get("gemm", [])}
    fresh_by_shape = {row["shape"]: row for row in fresh.get("gemm", [])}
    missing = sorted(set(base_by_shape) - set(fresh_by_shape))
    if missing:
        failures.append(f"gemm shapes missing from fresh run: {missing}")
    for shape, base in sorted(base_by_shape.items()):
        cur = fresh_by_shape.get(shape)
        if cur is None:
            continue
        b, c = base["blocked_gflops"], cur["blocked_gflops"]
        if b <= 0:
            continue
        drop = (b - c) / b
        verdict = "FAIL" if drop > threshold else "ok"
        print(f"  gemm/{shape:<14} blocked {b:8.2f} -> {c:8.2f} GFLOP/s "
              f"({-drop:+6.1%}) {verdict}")
        if drop > threshold:
            failures.append(
                f"gemm/{shape}: blocked GFLOP/s regressed {drop:.1%} "
                f"({b:.2f} -> {c:.2f}, threshold {threshold:.0%})")


def check_end_to_end(baseline, fresh, threshold, failures):
    base = baseline.get("end_to_end", {})
    cur = fresh.get("end_to_end", {})
    for key in ("sequential_wall_ms", "pipelined_wall_ms"):
        if key not in base or key not in cur:
            failures.append(f"end_to_end.{key} missing")
            continue
        b, c = base[key], cur[key]
        if b <= 0:
            continue
        growth = (c - b) / b
        verdict = "FAIL" if growth > threshold else "ok"
        print(f"  end_to_end/{key:<20} {b:8.1f} -> {c:8.1f} ms "
              f"({growth:+6.1%}) {verdict}")
        if growth > threshold:
            failures.append(
                f"end_to_end.{key}: wall time regressed {growth:.1%} "
                f"({b:.1f} -> {c:.1f} ms, threshold {threshold:.0%})")


def check_p2_serving(baseline, fresh, threshold, failures):
    base = baseline.get("p2_serving", {})
    cur = fresh.get("p2_serving", {})
    if base and not cur:
        failures.append("p2_serving section missing from fresh run")
        return
    if not cur:
        return
    b, c = base.get("pipelined_wall_ms", 0), cur.get("pipelined_wall_ms", 0)
    if b > 0 and c > 0:
        growth = (c - b) / b
        verdict = "FAIL" if growth > threshold else "ok"
        print(f"  p2_serving/pipelined      {b:8.1f} -> {c:8.1f} ms "
              f"({growth:+6.1%}) {verdict}")
        if growth > threshold:
            failures.append(
                f"p2_serving: pipelined serving wall regressed {growth:.1%} "
                f"({b:.1f} -> {c:.1f} ms, threshold {threshold:.0%})")
    # Absolute floor, baseline-independent and hardware-aware: the ratio of
    # two runs in the same process on the same host. With >=4 hardware
    # threads, four infer workers running tables side by side must clearly
    # beat the sequential path (>=1.5x); below that there is no parallelism
    # to buy, so the pipelined executor must at worst be a wash (>=0.95x).
    hw = fresh.get("hardware_threads", 1)
    floor = 1.5 if hw >= 4 else 0.95
    speedup = cur.get("speedup", 0)
    verdict = "FAIL" if speedup < floor else "ok"
    print(f"  p2_serving/speedup        {speedup:.2f}x "
          f"({verdict}, floor {floor:.2f}x at {hw} hardware threads)")
    if speedup < floor:
        failures.append(
            f"p2_serving: pipelined speedup {speedup:.2f}x below the "
            f"{floor:.2f}x floor ({hw} hardware threads) — the infer "
            f"workers are not running tables in parallel")


def check_int8_p2(baseline, fresh, threshold, failures):
    # The --p2-dtype=int8 content forward at the paper tower shape. Two
    # signals: per-batch-size int8_ms against baseline (same one-sided
    # threshold as every other timing row), and the absolute fp32->int8
    # speedup floor of 2.5x whenever a SIMD kernel is compiled in (the
    # prepacked int8 GEMM's whole reason to exist; a portable-kernel runner
    # only gets an advisory line). The 3x paper target is advisory either
    # way — runners throttle, the floor is what merges are gated on.
    base = baseline.get("int8_p2", {})
    cur = fresh.get("int8_p2", {})
    if base and not cur:
        failures.append("int8_p2 section missing from fresh run")
        return
    if not cur:
        return
    base_rows = {r["batch_size"]: r for r in base.get("sweep", [])}
    for row in cur.get("sweep", []):
        b = base_rows.get(row["batch_size"], {}).get("int8_ms", 0)
        c = row.get("int8_ms", 0)
        if b <= 0 or c <= 0:
            continue
        growth = (c - b) / b
        verdict = "FAIL" if growth > threshold else "ok"
        print(f"  int8_p2/B={row['batch_size']:<3} int8 {b:8.3f} -> "
              f"{c:8.3f} ms ({growth:+6.1%}) {verdict}")
        if growth > threshold:
            failures.append(
                f"int8_p2 B={row['batch_size']}: int8 forward regressed "
                f"{growth:.1%} (threshold {threshold:.0%})")
    kernel = cur.get("kernel", "portable")
    speedup = cur.get("speedup", 0)
    if kernel == "portable":
        print(f"  int8_p2/speedup           {speedup:.2f}x (advisory: "
              f"portable kernel, no SIMD floor)")
        return
    floor = 2.5
    verdict = "FAIL" if speedup < floor else "ok"
    target = "" if speedup >= 3.0 else " — below the 3x paper target (advisory)"
    print(f"  int8_p2/speedup           {speedup:.2f}x ({verdict}, floor "
          f"{floor:.2f}x on {kernel} kernel){target}")
    if speedup < floor:
        failures.append(
            f"int8_p2: fp32->int8 speedup {speedup:.2f}x below the "
            f"{floor:.2f}x floor with the {kernel} kernel compiled in")


def check_p2_serving_mp(baseline, fresh, threshold, failures):
    base = baseline.get("p2_serving_mp", {})
    cur = fresh.get("p2_serving_mp", {})
    if base and not cur:
        failures.append("p2_serving_mp section missing from fresh run")
        return
    if not cur:
        return
    base_rows = {r["replicas"]: r for r in base.get("rows", [])}
    for row in cur.get("rows", []):
        b = base_rows.get(row["replicas"], {}).get("wall_ms", 0)
        c = row.get("wall_ms", 0)
        if b <= 0 or c <= 0:
            continue
        growth = (c - b) / b
        verdict = "FAIL" if growth > threshold else "ok"
        print(f"  p2_serving_mp/replicas={row['replicas']:<2} "
              f"{b:8.1f} -> {c:8.1f} ms ({growth:+6.1%}) {verdict}")
        if growth > threshold:
            failures.append(
                f"p2_serving_mp replicas={row['replicas']}: wall regressed "
                f"{growth:.1%} ({b:.1f} -> {c:.1f} ms, "
                f"threshold {threshold:.0%})")
    # Scaling floor, baseline-independent. Scattering a batch across worker
    # PROCESSES needs cores to scale: with >=4 hardware threads going 1->4
    # replicas must buy at least 1.5x throughput. On a starved runner the
    # requirement degrades to a 0.70x no-collapse floor: fork + wire +
    # gather overhead must never eat 30% of the single-replica wall.
    hw = fresh.get("hardware_threads", 1)
    floor = 1.5 if hw >= 4 else 0.70
    scaling = cur.get("scaling_1_to_4", 0)
    verdict = "FAIL" if scaling < floor else "ok"
    print(f"  p2_serving_mp/scaling_1_to_4 {scaling:.2f}x "
          f"({verdict}, floor {floor:.2f}x at {hw} hardware threads)")
    if scaling < floor:
        failures.append(
            f"p2_serving_mp: 1->4 replica scaling {scaling:.2f}x below the "
            f"{floor:.2f}x floor ({hw} hardware threads)")
    # The bench injects one crash and asserts the supervisor restored the
    # replica; recovery time must exist and stay inside the bench's own
    # 5-second MaintainUntilAllUp budget.
    rec = cur.get("failover_recovery_ms", -1.0)
    verdict = "FAIL" if not 0 <= rec <= 5000 else "ok"
    print(f"  p2_serving_mp/failover_recovery {rec:.1f} ms ({verdict})")
    if not 0 <= rec <= 5000:
        failures.append(
            f"p2_serving_mp: kill->respawn recovery {rec:.1f} ms outside "
            f"[0, 5000]")
    # Gray-failure row (bench SIGSTOP-wedges one replica; baselines from
    # before the hedging layer carry no wedge fields and are exempt).
    if "hedge_waste_fraction" in cur:
        # Hedging trades duplicate work for tail latency; the trade is only
        # sane while duplicates stay rare. The wedge bench hedges a leg the
        # wedged replica can never answer, so near-zero waste is expected —
        # a fraction past 10% means first-wins suppression is leaking.
        waste = cur.get("hedge_waste_fraction", -1.0)
        verdict = "FAIL" if not 0 <= waste < 0.10 else "ok"
        print(f"  p2_serving_mp/hedge_waste {waste:.1%} ({verdict}, "
              f"cap 10%)")
        if not 0 <= waste < 0.10:
            failures.append(
                f"p2_serving_mp: hedge waste fraction {waste:.1%} outside "
                f"[0%, 10%) — duplicate suppression is leaking")
        wrec = cur.get("wedge_recovery_ms", -1.0)
        verdict = "FAIL" if not 0 <= wrec <= 5000 else "ok"
        print(f"  p2_serving_mp/wedge_recovery {wrec:.1f} ms ({verdict})")
        if not 0 <= wrec <= 5000:
            failures.append(
                f"p2_serving_mp: wedge->respawn recovery {wrec:.1f} ms "
                f"outside [0, 5000]")
    elif "hedge_waste_fraction" in base:
        failures.append(
            "p2_serving_mp: wedge/hedge fields missing from fresh run")


def check_metrics_section(fresh, failures):
    metrics = fresh.get("metrics")
    if metrics is None:
        # Baselines generated before the observability layer have no
        # metrics section; only the FRESH artifact is required to.
        failures.append("fresh artifact has no 'metrics' section")
        return
    hists = metrics.get("histograms", {})
    stage_hists = {k: v for k, v in hists.items()
                   if k.startswith("taste_pipeline_stage_ms")}
    if not stage_hists:
        failures.append("metrics section carries no pipeline stage histograms")
        return
    tables = fresh.get("end_to_end", {}).get("tables", 0)
    for name, h in sorted(stage_hists.items()):
        # Eight full-table runs feed the shared registry before the
        # snapshot: sequential + pipelined end-to-end, then two serving
        # configs (sequential/pipelined) at three repetitions each. P2
        # stages can be skipped per table, so the count is bounded, not
        # exact.
        if not 0 < h.get("count", 0) <= 8 * tables:
            failures.append(
                f"{name}: implausible observation count {h.get('count')} "
                f"for {tables}-table runs")
    print(f"  metrics section: {len(metrics.get('counters', {}))} counters, "
          f"{len(hists)} histograms, stage histograms present")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True,
                    help="BENCH_substrate.json from this run")
    ap.add_argument("--baseline", default="BENCH_substrate.json",
                    help="committed baseline (default: %(default)s)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max tolerated fractional regression "
                         "(default: %(default)s)")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    print(f"bench_check: baseline={args.baseline} fresh={args.fresh} "
          f"threshold={args.threshold:.0%}")
    check_gemm(baseline, fresh, args.threshold, failures)
    check_end_to_end(baseline, fresh, args.threshold, failures)
    check_p2_serving(baseline, fresh, args.threshold, failures)
    check_int8_p2(baseline, fresh, args.threshold, failures)
    check_p2_serving_mp(baseline, fresh, args.threshold, failures)
    check_metrics_section(fresh, failures)

    if failures:
        print(f"\nbench_check: {len(failures)} regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("bench_check: no regressions beyond threshold")


if __name__ == "__main__":
    main()
