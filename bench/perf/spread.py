#!/usr/bin/env python3
"""Run the benchmark repeatedly and report its run-to-run spread.

    python3 bench/perf/spread.py --runs 10 [--workloads a,b] [--out FILE]
    python3 bench/perf/spread.py --from FILE

Run from the repository root.  Run i (1-based) of every workload uses
seed i; workloads take turns, so two sets (odd and even runs) interleave.
For each end-to-end metric the report gives the median, the interquartile
range as a share of the median (statistics.quantiles, n=4), and the
median of the even set against the odd set, both judged against the
metric's bound from BENCHMARK.json: OVER marks a spread above the bound
and DRIFT a set-to-set change worse than it (either makes the exit code
1); a spread above a third of the bound is marked with a "~".  The
"unscaled" lines give the same timings before scaling to the nominal host
speed, for comparison only.  --out appends one JSON line per run; --from
reports on such a file instead of running.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and p.returncode == 0 else None
    return p.returncode, wall, lines, result, p.stderr


def unscaled(lines):
    """The '# unscaled: name value ...' note: the timings before scaling."""
    for line in lines:
        if line.startswith("# unscaled:"):
            words = line.split()[2:]
            return {m: float(v) for m, v in zip(words[::2], words[1::2])}
    return {}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, abs(q3 - q1) / abs(med)


def collect(args, bench, names):
    """(workload, set 0|1, lines, result) per run: run now, or as an
    earlier --out file recorded them."""
    if args.source:
        for line in open(args.source):
            r = json.loads(line)
            if r["workload"] in names:
                yield (r["workload"], "AB".index(r["set"]),
                       r["lines"], r["result"])
        return
    out = open(args.out, "a") if args.out else None
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names:
            code, wall, lines, result, err = run(
                bench["command"], w, seed, bench["run_seconds"], 0)
            print(f"{w} seed={seed} exit={code} wall={wall:.1f}s", flush=True)
            if result is None or not result["correct"]:
                print(err, file=sys.stderr)
                yield w, i % 2, lines, None
                continue
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "set": "AB"[i % 2], "wall_s": wall,
                                      "lines": lines[:-1],
                                      "result": result}) + "\n")
                out.flush()
            yield w, i % 2, lines, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--from", dest="source",
                    help="report on the runs an earlier --out recorded")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {(w, m): ([], []) for w in names for m in metrics}
    raw = {}
    ok = True
    for w, half, lines, result in collect(args, bench, names):
        if result is None or not result["correct"]:
            ok = False
            continue
        for m, v in result["metrics"].items():
            values[(w, m)][half].append(v["value"])
        for m, v in unscaled(lines).items():
            raw.setdefault((w, m), ([], []))[half].append(v)
    for w in names:
        print(f"\n{w}")
        for m, spec in metrics.items():
            a, b = values[(w, m)]
            if not a or not b:
                continue
            med, sp = spread(a + b)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / abs(ma) if ma else 0.0
            if spec["better"] == "higher":
                worse = -worse
            flag = ""
            if sp > spec["bound"]:
                flag += " OVER"
            elif sp > spec["bound"] / 3:
                flag += " ~"
            if worse > spec["bound"]:
                flag += " DRIFT"
            if "OVER" in flag or "DRIFT" in flag:
                ok = False
            print(f"  {m:20s} median {med:14.6g}  iqr/median {sp:7.4f}"
                  f"  B vs A {worse:+7.4f}  bound {spec['bound']}{flag}")
        for m in metrics:
            a, b = raw.get((w, m), ([], []))
            if a and b:
                med, sp = spread(a + b)
                print(f"  {m:20s} unscaled {med:12.6g}  iqr/median {sp:7.4f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
