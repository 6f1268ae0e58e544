"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/spread.py --compare perfbench/out/set1.json perfbench/out/set2.json

The first form runs ``run.py`` once per (workload, seed), one run at a time,
and prints per metric the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, beside the metric's
bound from BENCHMARK.json.  The second compares the medians of two such sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(workloads, seeds, seconds):
    runs = {}
    for name in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                sys.exit(f"{name} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
            runs.setdefault(name, []).append(
                {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                 "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            )
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
    return runs


def summarise(runs):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    table = {}
    for name, items in runs.items():
        for metric in items[0]["metrics"]:
            values = [r["metrics"][metric] for r in items]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[name, metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / statistics.median(values),
                                   "bound": bounds.get(metric)}
        shares = {r["failed"] / r["attempted"] for r in items}
        print(f"{name}: {len(items)} runs, failed share {sorted(shares)}")
    print(f"{'workload':12} {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (name, metric), row in table.items():
        flag = "" if row["bound"] is None or row["spread"] <= row["bound"] / 3 else "  > bound/3"
        print(f"{name:12} {metric:32} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f}"
              f" {row['spread']:7.4f} {row['bound'] if row['bound'] is not None else '-':>6}{flag}")
    return table


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    better = {m["name"]: (m["better"], m["bound"]) for m in spec()["end_to_end"]}
    print(f"{'workload':12} {'metric':32} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6}")
    for name in a["runs"]:
        for metric, (direction, bound) in better.items():
            ma = statistics.median(r["metrics"][metric] for r in a["runs"][name])
            mb = statistics.median(r["metrics"][metric] for r in b["runs"][name])
            worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
            flag = "  FAIL" if worse > bound else ""
            print(f"{name:12} {metric:32} {ma:12.4f} {mb:12.4f} {worse:+9.4f} {bound:6}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--out", help="write the runs and the summary here as JSON")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare the medians of two saved sets")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    runs = collect(args.workloads, args.seeds, args.seconds)
    table = summarise(runs)
    if args.out:
        rows = [{"workload": w, "metric": m, **row} for (w, m), row in table.items()]
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "runs": runs, "summary": rows}, indent=1))


if __name__ == "__main__":
    main()
