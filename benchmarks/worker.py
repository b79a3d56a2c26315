"""One benchmark process: set up, warm up, measure one workload, report.

``run.py`` starts this script with BLAS pinned to one thread and lisim's
``src`` on ``PYTHONPATH``. The last stdout line is a JSON object. Modes:

``prime``   import everything and exit (fills the byte-code cache)
``setup``   import, warm up on the default seed, check against the
            reference, report when the first timed trial would start
``run``     the same, then measure for ``--seconds``; with ``--trace 1``
            every other group runs with the layer wrappers installed
``record``  print the default seed's outputs, the content of reference.json
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_build" / "lisim-bench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds the calibration kernel takes on the reference host (2-vCPU
#: Xeon VM, one BLAS thread); scaled times are in that host's seconds.
CAL_REF_S = 0.065


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("prime", "setup", "run", "record"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import lisim
    source = Path(lisim.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"lisim imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.mode == "prime":
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    table = workloads.make_workloads(OUT_DIR)
    if args.mode == "record":
        print(json.dumps({name: w.record() for name, w in table.items()},
                         indent=1))
        return 0

    workload = table[args.workload]
    reference = workloads.load_reference()[args.workload]
    tally = Tally()
    for item, ref in zip(workload.warmup_group(),
                         workload.split_reference(reference)):
        tally.add(workload, item, lambda it=item, r=ref:
                  workload.check_item(it, workload.run_item(it), r))
    ready_at = time.monotonic()
    calibrate = Calibration()
    kernel = calibrate()
    result = {"ready_at": ready_at, "setup_scale": CAL_REF_S / kernel[0]}
    if args.mode == "run":
        tracer = tracing.Tracer() if args.trace else None
        result.update(measure(workload, args.seed, args.seconds, tracer, tally,
                              calibrate, kernel))
        if tracer is not None:
            tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv")
        result["provenance"] = provenance(args, workload)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures[:20],
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


class Tally:
    """Outputs attempted and failed; a failed item fails all its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, workload, item, check) -> None:
        outputs = workload.outputs_per_item()
        self.attempted += outputs
        try:
            failures = check()
        except Exception:  # any exception is a failed evaluation, reported
            failures = [f"{workload.name} {item!r}: {traceback.format_exc()}"]
            failures *= outputs
        if failures:
            self.failed += min(len(failures), outputs)
            self.failures.extend(failures)
            for message in failures[:3]:
                print(message, file=sys.stderr)


class Calibration:
    """A fixed numpy kernel shaped like lisim's work, timed between groups.

    The host's speed drifts by up to about 1.7x over tens of seconds, and
    lisim's times follow this kernel's, so every item's wall time is
    scaled by ``CAL_REF_S`` over the kernel's time at the item's middle,
    interpolated between the kernel runs before and after its group. The
    kernel mixes the small factorizations of the chains, a tall SVD and
    the elementwise complex arithmetic of channel synthesis. It touches no
    lisim code, so a faster lisim shows in full.
    """

    ROUNDS = 150

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.small = (rng.standard_normal((16, 20))
                      + 1j * rng.standard_normal((16, 20)))
        self.gram = self.small.conj().T @ self.small + np.eye(20)
        self.tall = (rng.standard_normal((400, 20))
                     + 1j * rng.standard_normal((400, 20)))
        self.phase = rng.standard_normal((4000, 20))

    def __call__(self):
        """(seconds taken, perf_counter at the middle of the run)."""
        np, linalg = self.np, self.np.linalg
        start = time.perf_counter()
        for i in range(self.ROUNDS):
            linalg.svd(self.small, full_matrices=False)
            linalg.eigh(self.gram)
            linalg.cholesky(self.gram)
            (self.small @ self.gram).conj().T @ self.small
            if i % 10 == 0:
                linalg.svd(self.tall, full_matrices=False)
            if i % 25 == 0:
                np.sum(np.abs(np.exp(1j * self.phase)
                              / (1.0 + self.phase * self.phase)) ** 2)
        end = time.perf_counter()
        return end - start, 0.5 * (start + end)


def measure(workload, seed, seconds, tracer, tally, calibrate, kernel):
    """Run groups until ``seconds`` have passed; time and check each item.

    ``kernel`` is the calibration run just before. With a tracer, every
    other group runs traced. Returns speed-scaled and raw times of the
    untraced items, and the layer metrics.
    """
    clock = time.perf_counter
    per_item = workload.trials_per_item
    raw, scaled = {False: [], True: []}, {False: [], True: []}
    unit_scales = []
    kernels = [kernel]
    start = clock()
    for g, group in enumerate(workload.groups(seed)):
        traced = tracer is not None and g % 2 == 1
        walls, middles = [], []
        for item in group:
            if traced:
                tracer.begin_unit()
                tracer.install()
            outcome = {}

            def timed(it=item, box=outcome):
                box["t0"] = t0 = clock()
                try:
                    box["out"] = workload.run_item(it)
                finally:
                    box["wall"] = clock() - t0
                    if traced:
                        tracer.uninstall()
                return workload.check_item(it, box["out"])

            tally.add(workload, item, timed)
            walls.append(outcome["wall"])
            middles.append(outcome["t0"] + 0.5 * outcome["wall"])
        kernels.append(calibrate())
        (before, t_before), (after, t_after) = kernels[-2:]
        scales = [CAL_REF_S / (before + (after - before) * (t - t_before)
                               / (t_after - t_before)) for t in middles]
        raw[traced] += walls
        scaled[traced] += [k * wall for k, wall in zip(scales, walls)]
        if traced:
            unit_scales += scales
        if clock() - start >= seconds and (tracer is None or g >= 1):
            break
    trial_ms = [1e3 * wall / per_item for wall in scaled[False]]
    raw_ms = [1e3 * wall / per_item for wall in raw[False]]
    times = [k for k, _ in kernels]
    out = {"trials": per_item * len(trial_ms),
           "items": len(trial_ms),
           "measured_s": sum(scaled[False]),
           "raw_measured_s": sum(raw[False]),
           "trial_p50_ms": quantile(trial_ms, 0.5),
           "trial_p90_ms": quantile(trial_ms, 0.9),
           "raw_trial_p50_ms": quantile(raw_ms, 0.5),
           "raw_trial_p90_ms": quantile(raw_ms, 0.9),
           "kernel_s": [min(times), statistics.median(times), max(times)]}
    if tracer is not None:
        overhead = statistics.fmean(scaled[True]) / statistics.fmean(
            scaled[False]) - 1.0
        out["layers"] = tracer.layer_metrics(unit_scales, raw[True],
                                             100.0 * overhead)
        sums = tracer.unit_self_sums()
        ratios = [sums.get(u, 0.0) / w for u, w in enumerate(raw[True])]
        out["self_sum_ratio_range"] = [min(ratios), max(ratios)]
        out["traced_trials"] = tracer.trials
        out["spans"] = len(tracer.spans)
    return out


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cal_ref_s": CAL_REF_S,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def git_commit():
    """HEAD of the checkout's own repository, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over lisim's source files, names included."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def quantile(values, q):
    """Linearly interpolated quantile of at least one value, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(100 * q) - 1]


if __name__ == "__main__":
    sys.exit(main())
