"""Measure the current commit and write ``baseline.json``.

    python3 benchmarks/record_baseline.py

It makes two sets of ``RUNS`` untraced runs per workload, on seeds
1..RUNS and RUNS+1..2*RUNS, each for ``run_seconds`` of
``BENCHMARK.json``, then one traced run per workload on seed 1. For each
set it records every end-to-end metric's values, median, quartiles and
spread (quartile distance over median, the quartiles of
``statistics.quantiles(values, n=4)``), and the same for the unscaled
figures of each run (wall-time throughput, latency and set-up, and the
calibration kernel's times). ``agreement`` gives, per workload and metric,
how far the second set's median is worse than the first's, the largest
spread, and the metric's bound. The traced runs' per-layer metrics and the
first run's provenance complete the file.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import SPEC, WORKLOADS

HERE = Path(__file__).resolve().parent
#: Runs per set, as the acceptance check makes them.
RUNS = 10
SETS = 2


def bench(workload, seed, trace):
    """(result object, unscaled figures, provenance) of one run.py call."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=200,
        check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed checks")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("unscaled", "provenance"):
            tagged[tag] = json.loads(rest)
    return result, tagged.get("unscaled"), tagged["provenance"]


def summarise(values, unit=None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"unit": unit} if unit else {}
    out.update(median=median, q1=q1, q3=q3, spread=(q3 - q1) / median,
               values=values)
    return out


def record_set(seeds, provenance) -> dict:
    scaled_sets, unscaled_sets = {}, {}
    for name in WORKLOADS:
        values, units, raw = {}, {}, {}
        for seed in seeds:
            result, unscaled, prov = bench(name, seed, 0)
            provenance.setdefault(name, prov)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            for metric, value in unscaled.items():
                raw.setdefault(metric, []).append(value)
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()},
                  flush=True)
        scaled_sets[name] = {m: summarise(v, units[m])
                             for m, v in values.items()}
        unscaled_sets[name] = {m: summarise(v) for m, v in raw.items()}
    return {"seeds": list(seeds), "end_to_end": scaled_sets,
            "unscaled": unscaled_sets}


def agreement(sets) -> dict:
    """Per workload and metric: worsening of the median, largest spread."""
    out = {}
    for spec in SPEC["end_to_end"]:
        metric, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        for name in WORKLOADS:
            first, second = (s["end_to_end"][name][metric] for s in sets)
            out.setdefault(name, {})[metric] = {
                "bound": spec["bound"],
                "median_worse_by": sign * (second["median"] - first["median"])
                / first["median"],
                "max_spread": max(first["spread"], second["spread"]),
            }
    return out


def main() -> int:
    seconds = SPEC["run_seconds"]
    provenance = {}
    sets = [record_set(range(1 + k * RUNS, 1 + (k + 1) * RUNS), provenance)
            for k in range(SETS)]
    per_layer = {}
    for name in WORKLOADS:
        traced, _, _ = bench(name, 1, 1)
        per_layer[name] = {m: e["value"] for m, e in traced["metrics"].items()}
    out = {"runs": RUNS, "seconds": seconds, "sets": sets,
           "agreement": agreement(sets), "per_layer": per_layer,
           "provenance": provenance}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
