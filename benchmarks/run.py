"""lisim benchmark: every workload end to end, or traced layer by layer.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S]
                              [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length the baseline and bounds were set at. Without ``--workload`` every
workload of ``BENCHMARK.json`` runs in turn. Workloads are defined in
``workloads.py``; each runs in fresh processes started from this one with
BLAS pinned to one thread and ``src`` of this checkout on ``PYTHONPATH``,
so the library is used straight from source.

``--trace 0`` reports the end-to-end metrics. Set-up (interpreter start,
imports, scenario construction and one untimed, reference-checked
warm-up) is sampled in ``SETUP_SAMPLES`` processes and its median is
``setup_s``; the last of them goes on to measure for ``--seconds``.
Set-up, throughput and latency are speed-scaled: the host's speed drifts
by up to 1.7x over tens of seconds, so a fixed numpy kernel is timed
between groups of calls and each call's wall time is scaled to the
reference host (see ``worker.Calibration``); set-up is scaled by the
kernel run that follows it. The unscaled figures and the
kernel's times are printed on an ``unscaled`` line as JSON, so every
scaled figure can be checked against the program's own wall time.
``--trace 1`` runs one process that interleaves traced and untraced groups
and reports the per-layer metrics of ``tracing.py``; its spans are written
under ``.bench_build/lisim-bench/``.

Every output is checked. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it that start with ``unscaled`` and ``provenance`` hold JSON too.
A checkout without lisim's sources exits with code 2 and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: Set-up samples per untraced run; one more process primes the caches.
SETUP_SAMPLES = 5
#: Every process of one workload must end within this many seconds.
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """A benchmark process failed; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Starts worker processes against one deadline and collects results."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED_ENV)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + path if path else "")

    def worker(self, mode, workload=None, seed=0, seconds=1.0, trace=0):
        """Run ``worker.py``; return its JSON and its set-up time, unscaled
        and speed-scaled."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode]
        if workload is not None:
            cmd += ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        spawned = time.monotonic()
        try:
            # run() kills the child and waits for it on timeout
            done = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out") from exc
        if done.returncode != 0:
            raise BenchError(f"{mode} process exited with {done.returncode}")
        if mode == "prime":
            return None, None, None
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{mode} process printed no result") from exc
        setup = result["ready_at"] - spawned
        return result, setup, setup * result["setup_scale"]


def run_workload(runner, name, seed, seconds, trace):
    """One workload: (metrics with units, attempted, failed, unscaled
    figures, provenance, report lines)."""
    unscaled = None
    if trace:
        result, _, _ = runner.worker("run", name, seed, seconds, trace=1)
        metrics = {m: (result["layers"][m], u) for m, u in tracing.LAYER_METRICS}
        low, high = result["self_sum_ratio_range"]
        notes = [f"{result['traced_trials']} traced trials, "
                 f"{result['spans']} spans; per-unit self-time sum / wall "
                 f"{100 * low:.1f}%..{100 * high:.1f}%"]
    else:
        runner.worker("prime")
        raw_setups, setups, attempted, failed = [], [], 0, 0
        for _ in range(SETUP_SAMPLES - 1):
            probe, raw, setup = runner.worker("setup", name, seed, seconds)
            raw_setups.append(raw)
            setups.append(setup)
            attempted += probe["attempted"]
            failed += probe["failed"]
        result, raw, setup = runner.worker("run", name, seed, seconds)
        raw_setups.append(raw)
        setups.append(setup)
        result["attempted"] += attempted
        result["failed"] += failed
        metrics = {
            "trials_per_s": (result["trials"] / result["measured_s"], "1/s"),
            "trial_p50_ms": (result["trial_p50_ms"], "ms"),
            "trial_p90_ms": (result["trial_p90_ms"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        unscaled = {
            "trials_per_s": result["trials"] / result["raw_measured_s"],
            "trial_p50_ms": result["raw_trial_p50_ms"],
            "trial_p90_ms": result["raw_trial_p90_ms"],
            "setup_s": statistics.median(raw_setups),
        }
        unscaled.update(zip(("kernel_min_s", "kernel_median_s",
                             "kernel_max_s"), result["kernel_s"]))
        notes = [f"{result['trials']} trials in {result['items']} timed "
                 f"calls, one latency sample each",
                 "set-up samples " + " ".join(f"{s:.3f}" for s in setups)]
    attempted, failed = result["attempted"], result["failed"]
    notes.append(f"error_rate {failed / attempted:.6g} "
                 f"({failed} of {attempted} checked outputs failed)")
    for message in result["failures"][:5]:
        notes.append(f"FAILED {message.splitlines()[0]}")
    return (metrics, attempted, failed, unscaled, result.get("provenance"),
            notes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lisim" / "__init__.py").is_file():
        print(f"no lisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runner = Runner(time.monotonic() + DEADLINE_S)
        try:
            metrics, attempted, failed, unscaled, prov, notes = run_workload(
                runner, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:42s} {value:14.6g} {unit}")
        for note in notes:
            print(f"  {note}")
        prefix = "" if len(names) == 1 else f"{name}."
        combined["correct"] = combined["correct"] and failed == 0
        combined["attempted"] += attempted
        combined["failed"] += failed
        combined["metrics"].update(
            {prefix + m: {"value": v, "unit": u}
             for m, (v, u) in metrics.items()})
        if unscaled is not None:
            print("unscaled " + json.dumps(unscaled))
        if prov is not None:
            print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
