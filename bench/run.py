"""memax benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload forward --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

With ``--trace 0`` the run reports the end-to-end metrics of one workload;
with ``--trace 1`` it reports per-layer metrics from a traced run of the same
job list, after timing that list untraced in a child process for the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(every check, raw and scaled times, environment) goes to ``.bench_out/`` in
the checkout.  NOTES.md says what each workload and metric means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("forward", "fixed_point", "certify_oracle")
SETUP_PROBES = 5          # fresh processes timed from start to first job ready
FIRST_JOB_PROBES = 2      # of those, how many also run their cold first job
CHILD_TIMEOUT_S = 170

# Host-speed calibration: SVDs of a fixed 300 x 300 matrix with numpy alone.
# CAL_REF_S is the time per SVD on the reference host when it is quiet
# (2-vCPU Intel Xeon KVM guest, Python 3.11.7, numpy 2.4.6, one BLAS thread).
CAL_REF_S = 0.017
CAL_SVDS = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="measure at least this long; the fixed job list always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes: a set-up probe and the untraced reference of a traced run
    ap.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe-job", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_memax():
    """Import memax from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import memax

    if Path(memax.__file__).resolve().parent != ROOT / "src" / "memax":
        raise ImportError(f"memax imported from {memax.__file__}, not from this checkout")


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cal_ref_s": CAL_REF_S,
    }


def host_speed() -> float:
    """Seconds per calibration SVD, measured now.

    A shared host's speed drifts by tens of percent within seconds as other
    tenants load it.  A job's time scaled by CAL_REF_S over the mean of the
    calibrations taken just before and just after it cancels most of that
    common drift.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((300, 300))
    t0 = time.perf_counter()
    for _ in range(CAL_SVDS):
        np.linalg.svd(matrix)
    return (time.perf_counter() - t0) / CAL_SVDS


def scaled(raw_s: float, *cals: float) -> float:
    """A measured time expressed at the reference host's speed."""
    return raw_s * CAL_REF_S / statistics.fmean(cals)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(args: list) -> dict:
    """Run this script with args; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs(wl, ctx, ledger, n_fixed: int, min_seconds: float, tracer=None) -> dict:
    """Closed loop: the fixed job list, then more jobs until min_seconds.

    Returns per-job busy times, raw and scaled by the calibrations taken
    before the first job and after each job, peak RSS after the first job
    and after the fixed list, and the CPU time of the fixed list.
    """
    out = {"raw": [], "times": [], "cals": [host_speed()], "rss": [], "cpu_s": None}
    inp = wl.make_input(ctx, 0)
    start = time.perf_counter()
    cpu0 = time.process_time()
    job = 0
    while job < n_fixed or time.perf_counter() - start < min_seconds:
        if job:
            inp = wl.make_input(ctx, job)
        if tracer is not None:
            tracer.job = job
        busy0 = ledger.busy
        wl.job(ctx, inp, ledger)
        raw = ledger.busy - busy0
        job += 1
        if job in (1, n_fixed):
            out["rss"].append(peak_rss_mb())
        if job == n_fixed:
            out["cpu_s"] = time.process_time() - cpu0
        out["cals"].append(host_speed())
        out["raw"].append(raw)
        out["times"].append(scaled(raw, *out["cals"][-2:]))
    return out


def summary_line(ledger) -> dict:
    """Operation outcomes and check tallies, as they read after JSON."""
    return json.loads(json.dumps({"ops": [[o["op"], o["ok"]] for o in ledger.ops],
                                  "checks": ledger.checks}))


def probe(args, wl) -> dict:
    """A fresh process: time set-up from process start, optionally the cold
    first job and its peak RSS."""
    import workloads

    ctx = wl.setup(args.seed)
    inp = wl.make_input(ctx, 0)
    ready = time.monotonic() - args.setup_probe
    cal = host_speed()
    out = {"setup_raw_s": ready, "setup_s": scaled(ready, cal)}
    if args.probe_job:
        ledger = workloads.Ledger()
        wl.job(ctx, inp, ledger)
        out["peak_rss_mb"] = peak_rss_mb()
        out["first_job_raw_s"] = ledger.busy
        out["first_job_s"] = scaled(ledger.busy, cal, host_speed())
    wl.close(ctx)
    return out


def reference(args, wl) -> dict:
    """The fixed job list untraced, for a traced run to compare with."""
    import workloads

    ctx = wl.setup(args.seed)
    ledger = workloads.Ledger()
    try:
        jobs = run_jobs(wl, ctx, ledger, wl.fixed_jobs, 0.0)
    finally:
        wl.close(ctx)
    return {"wall_s": sum(jobs["times"]), "cpu_s": jobs["cpu_s"],
            "summary": summary_line(ledger)}


def end_to_end(args, wl):
    import workloads

    probes = [run_child(["--workload", wl.name, "--seed", str(args.seed),
                         "--setup-probe", repr(time.monotonic())]
                        + (["--probe-job"] if i < FIRST_JOB_PROBES else []))
              for i in range(SETUP_PROBES)]
    ctx = wl.setup(args.seed)
    ledger = workloads.Ledger()
    try:
        jobs = run_jobs(wl, ctx, ledger, wl.fixed_jobs, args.seconds)
    finally:
        wl.close(ctx)
    times, raw, rss = jobs["times"], jobs["raw"], jobs["rss"]
    cold = [p for p in probes if "first_job_s" in p]
    setup = [p["setup_s"] for p in probes]
    first = [times[0]] + [p["first_job_s"] for p in cold]
    cold_rss = [rss[0]] + [p["peak_rss_mb"] for p in cold]
    ok_frac = 1.0 - ledger.failed / len(ledger.ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "first_job_s": (statistics.median(first), "s"),
        "job_p50_s": (statistics.median(times[1:]), "s"),
        "wall_s": (sum(times[: wl.fixed_jobs]), "s"),
        "peak_rss_mb": (statistics.median(cold_rss), "MB"),
        "ok_frac": (ok_frac, "ratio"),
    }
    extra = {
        "probes": probes, "job_times_s": times, "job_raw_s": raw, "cals_s": jobs["cals"],
        "peak_rss_after_list_mb": rss[-1], "fixed_jobs": wl.fixed_jobs,
        "lines": [
            f"info jobs {len(times)} (fixed list {wl.fixed_jobs}); job_p50_s over "
            f"{len(times) - 1} jobs; setup_s median of {len(setup)} fresh processes; "
            f"first_job_s and peak_rss_mb median of {len(first)} fresh processes",
            f"info unscaled: job_p50 {statistics.median(raw[1:]):.4g} s, wall "
            f"{sum(raw[: wl.fixed_jobs]):.4g} s, setup "
            f"{statistics.median(p['setup_raw_s'] for p in probes):.4g} s; median "
            f"calibration {statistics.median(jobs['cals']) * 1e3:.3f} ms "
            f"(reference {CAL_REF_S * 1e3:.3f} ms)",
            f"info peak RSS after the fixed list {rss[-1]:.1f} MB (ungated)",
            f"info failed_frac {ledger.failed}/{len(ledger.ops)} = {1.0 - ok_frac:.4g} ratio",
        ],
    }
    return ledger, metrics, extra, not ledger.unexpected_failures()


def traced(args, wl):
    import tracing
    import workloads

    ref = run_child(["--workload", wl.name, "--seed", str(args.seed), "--reference"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = wl.setup(args.seed)
        ledger = workloads.Ledger(tracer)
        try:
            jobs = run_jobs(wl, ctx, ledger, wl.fixed_jobs, 0.0, tracer)
        finally:
            wl.close(ctx)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    metrics["process.cpu_s"] = (ref["cpu_s"], "s")
    wall = sum(jobs["raw"])
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (sum(jobs["times"]) / ref["wall_s"] - 1.0, "ratio")

    same = summary_line(ledger) == ref["summary"]
    lines = [f"check {'tracing.same_verdicts':<34} {'PASS' if same else 'FAIL'}  "
             "(traced run vs untraced reference)"]
    lines += expectations(wl.name, tracer, metrics, wall)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"))
    extra = {"reference": ref, "traced_job_times_s": jobs["times"], "lines": lines}
    return ledger, metrics, extra, same and not ledger.unexpected_failures()


def expectations(name, tracer, metrics, wall) -> list:
    """The layer split each workload was chosen for (informational)."""
    m = {k: v for k, (v, _) in metrics.items()}
    if name == "forward":
        rows = [("spectral.factor_s >= 0.70 wall", m["spectral.factor_s"] >= 0.70 * wall)]
    elif name == "fixed_point":
        share = m["spectral.trisolve_s"] + m["signals.fft_s"] + m["signals.conv_s"]
        rows = [("spectral.solves_per_factor >= 8", m["spectral.solves_per_factor"] >= 8),
                ("trisolve+fft+conv >= 0.25 wall", share >= 0.25 * wall)]
    else:
        by_op = {}
        for i, s in enumerate(tracer.spans):
            if s[0] == "spectral.factor":
                op = tracer.top_op(i)
                by_op[op] = by_op.get(op, 0) + 1
        _, self_t, _ = tracer.durations()
        layers = {k: v for k, v in self_t.items() if not k.startswith("op.")}
        largest = max(layers, key=layers.get)
        rows = [(f"factorizations by op {by_op}", set(by_op) == {"op.readme_stability"}),
                (f"largest self time: {largest}", largest == "stepper.step")]
    return [f"expect {text:<60} {'yes' if ok else 'NO'}" for text, ok in rows]


def report(args, ledger, metrics, extra, env, correct) -> dict:
    """Print the human-readable record, save the full one, return the result."""
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    unexpected = ledger.unexpected_failures()
    for name, (passed, total) in sorted(ledger.checks.items()):
        print(f"check {name:<34} {'PASS' if passed == total else 'FAIL'}  {passed}/{total}")
    for o in ledger.ops:
        if not o["ok"]:
            kind = "UNEXPECTED" if o in unexpected else "known open failure"
            print(f"failed op {o['op']}: {o['error']}  [{kind}]")
    for name, value in sorted(ledger.diagnostics.items()):
        print(f"diagnostic {name:<29} {value:.3e}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<33} {value:.6g} {unit}")
    for line in extra.pop("lines", []):
        print(line)
    result = {
        "correct": bool(correct),
        "attempted": len(ledger.ops),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  ops=ledger.ops, checks=ledger.checks, diagnostics=ledger.diagnostics,
                  **extra)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return result


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(f"\n{'metric':<34}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES) + "  unit")
    for metric in results[WORKLOAD_NAMES[0]]["metrics"]:
        row = [results[n]["metrics"][metric] for n in WORKLOAD_NAMES]
        print(f"{metric:<34}" + "".join(f"{r['value']:>16.6g}" for r in row)
              + f"  {row[0]['unit']}")
    print(f"{'failed_frac':<34}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>16.6g}" for n in WORKLOAD_NAMES)
        + "  ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_memax()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe is not None:
        print(json.dumps(probe(args, wl)))
        return 0
    if args.reference:
        print(json.dumps(reference(args, wl)))
        return 0
    env = environment()
    ledger, metrics, extra, correct = (traced if args.trace else end_to_end)(args, wl)
    print(json.dumps(report(args, ledger, metrics, extra, env, correct)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
