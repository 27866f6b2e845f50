"""Collect the run records in .bench_out/ into one result set.

    python3 bench/summarize.py [--out bench/baseline.json]

For each workload it lists the untraced runs (one per seed) with every
end-to-end metric, their median and the quartile spread
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, and the
per-layer metrics of each traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def collect(out_dir: Path) -> dict:
    result = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        wl = result.setdefault(rec["workload"], {"runs": {}, "traced": {}})
        key = "traced" if rec["trace"] else "runs"
        wl[key][str(rec["seed"])] = {
            "correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
        }
        wl["env"] = rec["env"]
    for wl in result.values():
        runs = list(wl["runs"].values())
        if not runs:
            continue
        wl["summary"] = {}
        for metric in runs[0]["metrics"]:
            med, spr = spread([r["metrics"][metric] for r in runs])
            wl["summary"][metric] = {"median": med, "quartile_spread": spr, "runs": len(runs)}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the result set here as JSON")
    args = ap.parse_args(argv)
    result = collect(ROOT / ".bench_out")
    for name, wl in result.items():
        for metric, s in wl.get("summary", {}).items():
            spr = "n/a" if s["quartile_spread"] is None else f"{s['quartile_spread']:.3f}"
            print(f"{name:<15} {metric:<14} median {s['median']:<12.6g} "
                  f"spread {spr}  runs {s['runs']}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
