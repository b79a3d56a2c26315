"""The lisim benchmark workloads: inputs made from a seed, and output checks.

All three use the default geometry (10 m x 1 m surface, K = 20 users,
rho = 1, 4000 antennas).

``sweep_small``
    ``run_sweep`` + ``emit_csv`` on small panels (P = 250, Mp = 16), both
    algorithms, default np grid. The IIC chain makes 250 sequential hops of
    16 x 20 LAPACK calls, so per-call Python overhead in numerics,
    equalizers and capacity dominates; one realization feeds 12 cells.
``sweep_large``
    The same on large panels (P = 10, Mp = 400): 10 hops of 400 x 20 SVDs,
    so flops dominate. An overhead-only optimisation shows no change here,
    a flop-reducing one does.
``trial_stream``
    A closed loop with one client sending in-process ``lisim trial``
    requests. Each request builds its scenario, synthesizes its own channel
    and evaluates one cell, so cli and channel weigh more, no batching
    inside ``run_sweep`` applies, and it alone runs multi-pass chains.

A workload yields groups of timed items. A sweep item is one ``run_sweep``
call over ``batch`` trials plus its CSV; a stream item is one request and a
group is one pass through the request mix. Checks return one message per
failed output; every output is checked, on every seed. The untimed warm-up
runs the default seed and also compares against ``reference.json``.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

import lisim.cli as cli
from lisim.capacity import CEILING_SLACK_BITS
from lisim.chain import Algorithm

DEFAULT_SEED = 42
USERS_K = 20
RHO = 1.0
#: Tolerance against recorded reference values, in bits.
REFERENCE_TOL_BITS = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Panel count, antennas per panel and default np grid of each profile.
PROFILES = {
    "small": (250, 16, (1, 2, 4, 8, 12, 16)),
    "large": (10, 400, (1, 2, 4, 8, 12, 16, 20)),
}
ALGORITHMS = ("iic", "rmf")
CSV_FIELDS = ("profile", "algorithm", "np", "n_total", "rho", "trials",
              "mean_sum_rate_bits", "std_sum_rate_bits",
              "mean_channel_capacity_bits", "chain_scalars", "seed")


def expected_chain_scalars(algorithm: str, panels: int, passes: int) -> int:
    return (panels - 1) * USERS_K ** 2 * passes if algorithm == "iic" else 0


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def _check_rate_pair(rate, cap, profile, np_outputs, what):
    """Rate/ceiling checks shared by both output kinds."""
    if not (_finite(rate) and _finite(cap)):
        return [f"{what}: non-finite rate or ceiling ({rate}, {cap})"]
    if rate > cap + CEILING_SLACK_BITS:
        return [f"{what}: rate {rate} exceeds ceiling {cap}"]
    full_width = np_outputs >= min(PROFILES[profile][1], USERS_K)
    if full_width and abs(rate - cap) > CEILING_SLACK_BITS:
        # a full-width filter keeps each block's whole column space
        return [f"{what}: full-width rate {rate} differs from ceiling {cap}"]
    return []


class SweepWorkload:
    """Repeated ``run_sweep`` + ``emit_csv`` calls on one panel profile."""

    def __init__(self, name, profile, batch, out_dir):
        self.name = name
        self.profile = profile
        self.batch = batch
        self.panels, self.mp, self.grid = PROFILES[profile]
        self.trials_per_item = batch
        self.csv_path = Path(out_dir) / f"{name}.csv"

    def params(self) -> dict:
        return {"profile": self.profile, "panels": self.panels,
                "antennas_per_panel": self.mp, "np_grid": list(self.grid),
                "algorithms": list(ALGORITHMS), "passes": 1, "rho": RHO,
                "users_k": USERS_K, "trials_per_call": self.batch}

    def groups(self, seed: int):
        """Endless calls; call j sweeps seed ``seed * 100000 + j``."""
        j = 0
        while True:
            yield [(seed * 100_000 + j, self.batch)]
            j += 1

    def warmup_group(self):
        """Two trials, the fewest that exercise the spread estimate."""
        return [(DEFAULT_SEED, 2)]

    def outputs_per_item(self) -> int:
        return len(ALGORITHMS) * len(self.grid)

    def split_reference(self, reference):
        """Reference outputs, one entry per warm-up item."""
        return [reference]

    def run_item(self, item):
        sweep_seed, trials = item
        spec = cli.SweepSpec(
            algorithms=tuple(Algorithm(a) for a in ALGORITHMS),
            panel_profiles=(cli.PanelProfile(self.profile),),
            trials=trials, seed=sweep_seed, rho=RHO, passes=1)
        rows = cli.run_sweep(spec)
        cli.emit_csv(rows, self.csv_path)
        return rows

    def check_item(self, item, rows, reference=None):
        sweep_seed, trials = item
        text = self.csv_path.read_text(encoding="utf-8")
        expected_cells = [(a, n) for a in ALGORITHMS for n in self.grid]
        if len(rows) != len(expected_cells):
            return [f"{self.name}: {len(rows)} rows, expected "
                    f"{len(expected_cells)}"] * len(expected_cells)
        failures = []
        if text != render_csv(rows):
            failures.append(f"{self.name}: CSV text does not match the rows")
        caps = {row.mean_channel_capacity_bits for row in rows}
        if len(caps) != 1:
            failures.append(f"{self.name}: cells disagree on the ceiling")
        for i, (row, (algo, np_outputs)) in enumerate(zip(rows, expected_cells)):
            what = f"{self.name} seed {sweep_seed} {algo} np={np_outputs}"
            want = {"profile": self.profile, "algorithm": algo,
                    "np": np_outputs, "n_total": np_outputs * self.panels,
                    "rho": RHO, "trials": trials, "seed": sweep_seed,
                    "chain_scalars": expected_chain_scalars(
                        algo, self.panels, 1)}
            bad = [k for k, v in want.items() if getattr(row, k) != v]
            if bad:
                failures.append(f"{what}: wrong {', '.join(bad)}")
                continue
            if not (_finite(row.std_sum_rate_bits)
                    and row.std_sum_rate_bits >= 0.0):
                failures.append(f"{what}: bad std {row.std_sum_rate_bits}")
                continue
            failures += _check_rate_pair(row.mean_sum_rate_bits,
                                         row.mean_channel_capacity_bits,
                                         self.profile, np_outputs, what)
            if reference is not None:
                failures += compare(what, row_dict(row), reference[i], 0.0)
        return failures

    def record(self):
        rows = self.run_item(self.warmup_group()[0])
        return [row_dict(row) for row in rows]


class TrialStreamWorkload:
    """Closed loop of in-process ``lisim trial`` requests, one client."""

    #: One pass through the mix: profile x algorithm, IIC passes 1 then 2.
    CYCLE = tuple((p, a, passes) for passes in (1, 2)
                  for p in PROFILES for a in ALGORITHMS)

    def __init__(self, name):
        self.name = name
        self.trials_per_item = 1

    def params(self) -> dict:
        return {"mix": [f"{p}/{a}/passes={n if a == 'iic' else 1}"
                        for p, a, n in self.CYCLE],
                "np": "uniform over the profile's default grid",
                "trial_index": "consecutive from 0", "rho": RHO,
                "users_k": USERS_K, "clients": 1}

    def groups(self, seed: int):
        """Endless passes through the mix; np is drawn from ``seed``."""
        draw = random.Random(seed)
        index = 0
        while True:
            group = []
            for profile, algo, passes in self.CYCLE:
                np_outputs = draw.choice(PROFILES[profile][2])
                group.append({
                    "profile": profile, "algorithm": algo, "np": np_outputs,
                    "seed": seed, "trial_index": index,
                    "passes": passes if algo == "iic" else 1})
                index += 1
            yield group

    def warmup_group(self):
        return next(self.groups(DEFAULT_SEED))

    def outputs_per_item(self) -> int:
        return 1

    def split_reference(self, reference):
        """Reference outputs, one entry per warm-up item."""
        return reference

    def run_item(self, req):
        argv = ["trial", "--algo", req["algorithm"], "--np", str(req["np"]),
                "--profile", req["profile"], "--seed", str(req["seed"]),
                "--trial-index", str(req["trial_index"]),
                "--passes", str(req["passes"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check_item(self, req, output, reference=None):
        code, text = output
        what = (f"{self.name} {req['profile']}/{req['algorithm']} "
                f"np={req['np']} passes={req['passes']} "
                f"seed={req['seed']} trial={req['trial_index']}")
        if code != 0:
            return [f"{what}: exit code {code}"]
        try:
            got = parse_trial(text)
        except ValueError as exc:
            return [f"{what}: unparsable output ({exc})"]
        panels = PROFILES[req["profile"]][0]
        width = req["np"] if req["algorithm"] == "iic" else min(req["np"],
                                                                USERS_K)
        want = {"profile": req["profile"], "algorithm": req["algorithm"],
                "np": req["np"], "n_total": req["np"] * panels, "rho": RHO,
                "seed": req["seed"], "trial_index": req["trial_index"],
                "passes": req["passes"],
                "chain_complex_scalars": expected_chain_scalars(
                    req["algorithm"], panels, req["passes"]),
                "backplane_scalars_per_use": width * panels,
                "cpu_scalars_per_use": USERS_K, "centralized_csi_scalars": 0}
        bad = [k for k, v in want.items() if got.get(k) != v]
        if bad:
            return [f"{what}: wrong {', '.join(bad)}"]
        rate, cap = got["sum_rate_bits"], got["channel_capacity_bits"]
        failures = _check_rate_pair(rate, cap, req["profile"], req["np"],
                                    what)
        if reference is not None:
            failures += compare(what, got, reference,
                                max(print_resolution(rate),
                                    print_resolution(cap)))
        return failures

    def record(self):
        return [parse_trial(self.run_item(req)[1])
                for req in self.warmup_group()]


def make_workloads(out_dir):
    # trials per timed call: a small-panel trial takes about 0.7 s, so one
    # per call gives a run enough latency samples and calibration points
    return {
        "sweep_small": SweepWorkload("sweep_small", "small", 1, out_dir),
        "sweep_large": SweepWorkload("sweep_large", "large", 4, out_dir),
        "trial_stream": TrialStreamWorkload("trial_stream"),
    }


def row_dict(row) -> dict:
    return {name: getattr(row, name) for name in CSV_FIELDS}


def render_csv(rows) -> str:
    """The CSV ``emit_csv`` documents: header, 12 significant digits."""
    def fmt(value):
        return f"{value:.12g}" if isinstance(value, float) else str(value)
    lines = [",".join(CSV_FIELDS)]
    lines += [",".join(fmt(getattr(row, k)) for k in CSV_FIELDS) for row in rows]
    return "\n".join(lines) + "\n"


_TRIAL_INTS = ("np", "n_total", "seed", "trial_index", "passes",
               "chain_complex_scalars", "backplane_scalars_per_use",
               "cpu_scalars_per_use", "centralized_csi_scalars")
_TRIAL_FLOATS = ("rho", "sum_rate_bits", "channel_capacity_bits")


def parse_trial(text: str) -> dict:
    """The ``key=value`` report of ``lisim trial``, typed."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if line)
    expected = {"profile", "algorithm", *_TRIAL_INTS, *_TRIAL_FLOATS}
    if set(fields) != expected:
        raise ValueError(f"keys {sorted(set(fields) ^ expected)} differ")
    out = {k: fields[k] for k in ("profile", "algorithm")}
    out.update({k: int(fields[k]) for k in _TRIAL_INTS})
    out.update({k: float(fields[k]) for k in _TRIAL_FLOATS})
    return out


def print_resolution(value: float) -> float:
    """Half a unit in the 12th significant digit, the rounding of a print."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def compare(what, got: dict, want: dict, rounding: float):
    """Floats within ``REFERENCE_TOL_BITS`` (+ print rounding), rest exact."""
    bad = []
    for key, ref in want.items():
        value = got.get(key)
        if isinstance(ref, float):
            if not (isinstance(value, float)
                    and abs(value - ref) <= REFERENCE_TOL_BITS + rounding):
                bad.append(f"{key} {value!r} != reference {ref!r}")
        elif value != ref:
            bad.append(f"{key} {value!r} != reference {ref!r}")
    return [f"{what}: {'; '.join(bad)}"] if bad else []


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
