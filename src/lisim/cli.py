"""Monte Carlo experiment driver, sweep orchestration, and CSV emission.

Config files are flat JSON objects whose keys match the field names of
``ScenarioConfig`` and ``SweepSpec`` exactly, except ``panel_side_m``,
which the panel profile sets. Command-line flags override
config values, which override built-in defaults; flags and files share one
reader per key (``_READERS``). Everything downstream of
(config, seed) is deterministic: rerunning a sweep reproduces the output
file byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical domain error,
4 I/O error.
"""

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import numerics
# benchmarks/tracing.py looks up run_iic_chain and run_rmf here
from .chain import Algorithm, _chains, run_iic_chain, run_rmf  # noqa: F401
from .channel import (ChannelRealization, ScenarioConfig, Scenario,
                      build_scenario, realize_channel, sample_users)
from .errors import ConfigError, NumericalDomainError


class PanelProfile(Enum):
    """Panel geometry presets: side length, antennas per panel, np grid."""

    SMALL = "small"
    LARGE = "large"

    @property
    def panel_side_m(self) -> float:
        return _PROFILE_GEOMETRY[self][0]

    @property
    def antennas_per_panel(self) -> int:
        return _PROFILE_GEOMETRY[self][1]


#: (side, Mp, default per-panel output counts) of each profile. Twenty
#: users cap the useful width, so the large profile's grid stops at 20.
_PROFILE_GEOMETRY = {
    PanelProfile.SMALL: (0.2, 16, (1, 2, 4, 8, 12, 16)),
    PanelProfile.LARGE: (1.0, 400, (1, 2, 4, 8, 12, 16, 20)),
}


class SweepAxis(Enum):
    NP_PER_PANEL = "np"
    TOTAL_N = "n"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: axis, grid values, algorithms, and run budget.

    ``values`` left as None selects the per-profile defaults: the
    profile's np grid (``_PROFILE_GEOMETRY``) on the per-panel axis, and
    the same grid multiplied by the panel count on the total-outputs
    axis. Given values must be distinct: each names one output row.
    """

    axis: SweepAxis = SweepAxis.NP_PER_PANEL
    values: tuple | None = None
    algorithms: tuple = (Algorithm.IIC, Algorithm.RMF)
    panel_profiles: tuple = (PanelProfile.SMALL, PanelProfile.LARGE)
    trials: int = 100
    seed: int = 42
    rho: float = 1.0
    passes: int = 1

    def __post_init__(self) -> None:
        if not numerics._is_int(self.trials) or self.trials < 1:
            raise ConfigError("trials must be an integer of at least 1")
        if not numerics._is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not numerics._is_finite_real(self.rho) or self.rho <= 0.0:
            raise ConfigError("rho must be positive and finite")
        if not numerics._is_int(self.passes) or self.passes < 1:
            raise ConfigError("passes must be an integer of at least 1")
        if not isinstance(self.axis, SweepAxis):
            raise ConfigError(f"axis must be a SweepAxis, got {self.axis!r}")
        _check_members("algorithms", self.algorithms, Algorithm)
        _check_members("panel_profiles", self.panel_profiles, PanelProfile)
        if self.values is not None:
            if (not isinstance(self.values, tuple) or not self.values
                    or any(not numerics._is_int(v) or v < 1
                           for v in self.values)):
                raise ConfigError("values must be a non-empty tuple of "
                                  f"positive integers, got {self.values!r}")
            if len(set(self.values)) != len(self.values):
                raise ConfigError("values must not repeat")


def _check_members(name: str, value, enum_cls) -> None:
    """Raise ConfigError unless ``value`` is a non-empty tuple of members."""
    if not isinstance(value, tuple) or not value:
        raise ConfigError(f"{name} must be a non-empty tuple of "
                          f"{enum_cls.__name__} members, got {value!r}")
    for member in value:
        if not isinstance(member, enum_cls):
            raise ConfigError(f"{name} must hold {enum_cls.__name__} "
                              f"members, got {member!r}")


@dataclass(frozen=True)
class SweepRow:
    """One aggregated line of sweep output."""

    profile: str
    algorithm: str
    np: int
    n_total: int
    rho: float
    trials: int
    mean_sum_rate_bits: float
    std_sum_rate_bits: float
    mean_channel_capacity_bits: float
    chain_scalars: int
    seed: int


CSV_FIELDS = tuple(f.name for f in fields(SweepRow))


def trial_channel(scenario: Scenario, cfg: ScenarioConfig, seed: int,
                  trial_index: int) -> ChannelRealization:
    """The channel realization of one trial.

    User positions come from the independent, reproducible generator
    stream (seed, trial_index), so both must be nonnegative integers.
    """
    if not numerics._is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if not numerics._is_int(trial_index) or trial_index < 0:
        raise ConfigError(
            f"trial index must be a nonnegative integer, got {trial_index!r}")
    rng = np.random.default_rng([seed, trial_index])
    users = sample_users(scenario, cfg, rng)
    return realize_channel(scenario, users, cfg.wavelength_m)


def run_trial(scenario: Scenario, cfg: ScenarioConfig, algorithm: Algorithm,
              np_outputs: int, seed: int, trial_index: int, passes: int = 1):
    """One channel realization pushed through one algorithm.

    The one-cell, rates-only ``chain._chains`` call on the blocks of
    ``trial_channel``, as ``run_sweep`` runs each cell; that contract
    holds. Fully deterministic given (config, seed, trial_index).
    """
    chan = trial_channel(scenario, cfg, seed, trial_index)
    (result,) = _chains(chan.blocks, cfg.snr_rho,
                        [(Algorithm(algorithm), np_outputs)], passes,
                        rates_only=True)
    return result


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _trial_values(scenario, cfg, seed, cells, passes, indices):
    """(rate, ceiling, chain scalars) of every cell, for each trial index.

    The cells of a trial are one rates-only ``chain._chains`` call at
    ``cfg.snr_rho``, as in ``run_trial``. Each call synthesizes its own
    channels, so any subset of a trial's cells can run anywhere.
    """
    values = []
    for t in indices:
        chan = trial_channel(scenario, cfg, seed, t)
        values.append([(r.report.sum_rate_bits,
                        r.report.channel_capacity_bits,
                        r.traffic.chain_complex_scalars)
                       for r in _chains(chan.blocks, cfg.snr_rho, cells,
                                        passes, rates_only=True)])
    return values


class _WorkerTraceback(Exception):
    """The formatted traceback of a sweep worker's exception, raised as
    that exception's cause, as ``concurrent.futures`` does."""


def _send_outcome(recv, send, run, task):
    """Send ``(True, run(*task))``, or ``(False, (exception, traceback))``
    if it raises; an exception that cannot be pickled ends the worker
    with none sent."""
    recv.close()  # else a full pipe blocks for ever once the caller dies
    try:
        outcome = (True, run(*task))
    except Exception as exc:
        outcome = (False, (exc, traceback.format_exc()))
    send.send(outcome)


def _run_trials(scenario, cfg, seed, cells, passes, trials):
    """``_trial_values`` of trials ``0 .. trials - 1``, in trial order.

    Task (i, j) takes trials ``i, i + workers, ...`` and, of each, cells
    ``j, j + slices, ...``, so that each slice gets IIC and RMF cells.
    This process runs task 0, and a process forked for each other task
    sends its values, or its exception, back on its own pipe; a worker's
    exception is raised here from its traceback. A worker that dies
    first raises ``BrokenProcessPool``; none outlives the call.
    """
    run = partial(_trial_values, scenario, cfg, seed)
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    workers = min(trials, cpus)
    slices = max(1, min(cpus // trials, len(cells)))
    tasks = [(cells[j::slices], passes, range(i, trials, workers))
             for i in range(workers) for j in range(slices)]
    if len(tasks) == 1:
        return run(*tasks[0])
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    procs = []
    try:
        for task in tasks[1:]:
            recv, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_send_outcome,
                                args=(recv, send, run, task))
            proc.start()
            send.close()  # so that a dead worker's pipe reads EOFError
            procs.append((proc, recv))
        parts = [run(*tasks[0])]
        for _, recv in procs:  # before any join: a result may fill the pipe
            try:
                ok, part = recv.recv()
            except EOFError:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a sweep worker died") from None
            if not ok:
                exc, text = part
                raise exc from _WorkerTraceback(text)
            parts.append(part)
    finally:
        for proc, _ in procs:
            proc.terminate()
            proc.join()
    values = [[None] * len(cells) for _ in range(trials)]
    for n, part in enumerate(parts):
        i, j = divmod(n, slices)
        for row, cell_values in zip(values[i::workers], part):
            row[j::slices] = cell_values
    return values


def _resolve_values(spec: SweepSpec, profile: PanelProfile,
                    p_count: int, mp: int):
    """Per-profile (np, n_total) pairs for the sweep axis, validated.

    The default grids fit every profile, so only given values are checked.
    """
    if spec.values is None:
        return [(v, v * p_count) for v in _PROFILE_GEOMETRY[profile][2]]
    pairs = []
    for v in map(int, spec.values):
        if spec.axis is SweepAxis.NP_PER_PANEL:
            np_outputs, n_total = v, v * p_count
        else:
            if v % p_count != 0:
                raise ConfigError(
                    f"total output count {v} is not divisible by the "
                    f"{profile.value}-profile panel count {p_count}")
            np_outputs, n_total = v // p_count, v
        if np_outputs > mp:
            raise ConfigError(
                f"axis value {v} needs {np_outputs} outputs per panel but the "
                f"{profile.value} profile has only {mp} antennas per panel")
        pairs.append((np_outputs, n_total))
    return pairs


def run_sweep(spec: SweepSpec, cfg: ScenarioConfig | None = None):
    """Monte Carlo sweep over profiles, algorithms, and axis values.

    ``cfg`` supplies the geometry and radio parameters; its ``snr_rho``
    is replaced by ``spec.rho``, and its ``panel_side_m`` by each
    profile's. Every profile's scenario and axis values are built and
    checked before the first trial runs, so a value that one profile
    rejects fails at once. Each trial is one ``trial_channel`` draw from
    ``spec.seed``, which every cell of the trial reads in a rates-only
    ``chain._chains`` call, where the cell contracts are stated.
    ``_run_trials`` spreads the trials, or slices of a trial's cells,
    over the usable CPUs; the rows are the same byte for byte on one CPU
    or many.

    Returns a list of SweepRow, ordered by profile, then algorithm, then
    axis value: the mean and sample deviation of each cell's rates over
    the trials, and its ceiling's mean.
    """
    if cfg is None:
        cfg = ScenarioConfig()
    plans = []
    for profile in spec.panel_profiles:
        pcfg = replace(cfg, panel_side_m=profile.panel_side_m,
                       snr_rho=spec.rho)
        scenario = build_scenario(pcfg, profile.antennas_per_panel)
        plans.append((profile, pcfg, scenario, _resolve_values(
            spec, profile, scenario.p_count, scenario.antennas_per_panel)))

    rows = []
    for profile, pcfg, scenario, pairs in plans:
        cells = [(algo, pair) for algo in spec.algorithms for pair in pairs]
        values = _run_trials(scenario, pcfg, spec.seed,
                             [(algo, np_outputs) for algo, (np_outputs, _)
                              in cells], spec.passes, spec.trials)
        for (algo, (np_outputs, n_total)), cell in zip(cells, zip(*values)):
            rates, caps, chains = zip(*cell)
            std = float(np.std(rates, ddof=1)) if spec.trials > 1 else 0.0
            rows.append(SweepRow(
                profile=profile.value,
                algorithm=algo.value,
                np=np_outputs,
                n_total=n_total,
                rho=spec.rho,
                trials=spec.trials,
                mean_sum_rate_bits=float(np.mean(rates)),
                std_sum_rate_bits=std,
                mean_channel_capacity_bits=float(np.mean(caps)),
                chain_scalars=chains[-1],
                seed=spec.seed,
            ))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(rows, path) -> None:
    """Write sweep rows as UTF-8 CSV, one line per row plus a header.

    Floats carry 12 significant digits; rerunning the same spec and seed
    reproduces the file byte for byte.
    """
    lines = [",".join(CSV_FIELDS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in CSV_FIELDS))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config-file ingestion
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}
_SWEEP_KEYS = {f.name for f in fields(SweepSpec)}


def load_config_file(path) -> dict:
    """Read a flat JSON config; unknown keys are rejected early."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    if "panel_side_m" in data:
        raise ConfigError("panel_side_m is set by the panel profile "
                          "(small or large), not by a config file")
    unknown = set(data) - _SCENARIO_KEYS - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _coerce_int(value, key: str) -> int:
    try:
        if not isinstance(value, (bool, str)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key {key} must be an integer, got {value!r}")


def _coerce_float(value, key: str) -> float:
    try:
        if not isinstance(value, (bool, str)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key {key} must be a number, got {value!r}")


def _entries(value, key: str) -> list:
    """The entries of a JSON list, or of a comma string (digits as ints)."""
    if isinstance(value, str):
        items = [v.strip() for v in value.split(",") if v.strip()]
        return [int(v) if v.isdecimal() else v for v in items]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key} must be a list or a comma string")
    return list(value)


def _read_values(value, key: str) -> tuple:
    return tuple(_coerce_int(v, key) for v in _entries(value, key))


def _read_member(enum_cls, value, key: str):
    try:
        return enum_cls(str(value).lower())
    except ValueError as exc:
        names = ", ".join(m.value for m in enum_cls)
        raise ConfigError(
            f"config key {key} takes {names}, got {value!r}") from exc


def _read_members(enum_cls, value, key: str) -> tuple:
    """Distinct members in first-seen order; may be empty (see SweepSpec)."""
    return tuple(dict.fromkeys(_read_member(enum_cls, v, key)
                               for v in _entries(value, key)))


#: The one reader of each config key, for flags and config files alike:
#: ``reader(value, key)`` returns the field value or raises ConfigError
#: naming the key. Every key not listed is a float.
_READERS = {
    "users_k": _coerce_int,
    "trials": _coerce_int,
    "seed": _coerce_int,
    "passes": _coerce_int,
    "values": _read_values,
    "axis": partial(_read_member, SweepAxis),
    "algorithms": partial(_read_members, Algorithm),
    "panel_profiles": partial(_read_members, PanelProfile),
}


def _from_mapping(cls, data: dict):
    """A ``cls`` from the keys of ``data`` that name its fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: _READERS.get(k, _coerce_float)(v, k)
                  for k, v in data.items() if k in names})


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lisim",
        description="Uplink sum-rate simulator for panelized antenna surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep to CSV")
    sweep.add_argument("--config", help="JSON config file")
    sweep.add_argument("--axis", choices=[a.value for a in SweepAxis],
                       help="sweep per-panel outputs (np) or total outputs (n)")
    sweep.add_argument("--algos", dest="algorithms",
                       help="comma list from: iic,rmf")
    sweep.add_argument("--profiles", dest="panel_profiles",
                       help="comma list from: small,large")
    sweep.add_argument("--values", help="comma list of axis values")
    sweep.add_argument("--trials", type=int, help="trials per row")
    sweep.add_argument("--seed", type=int, help="base seed")
    sweep.add_argument("--rho", type=float, help="linear SNR")
    sweep.add_argument("--passes", type=int, help="chain passes (iic)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    trial = sub.add_parser("trial", help="run one trial and print a report")
    trial.add_argument("--config", help="JSON config file")
    trial.add_argument("--algo", required=True,
                       choices=[a.value for a in Algorithm])
    trial.add_argument("--np", required=True, type=int, dest="np_outputs",
                       help="outputs per panel")
    trial.add_argument("--profile", dest="panel_profiles",
                       choices=[p.value for p in PanelProfile],
                       help="panel profile (default: first configured, else small)")
    trial.add_argument("--seed", type=int, help="base seed")
    trial.add_argument("--rho", type=float, help="linear SNR")
    trial.add_argument("--trial-index", type=int, default=0)
    trial.add_argument("--passes", type=int, help="chain passes (iic)")
    trial.set_defaults(func=_cmd_trial)
    return parser


def resolve_config(path, flags: dict):
    """Defaults < config file < flags, resolved once for every subcommand.

    ``flags`` maps names to command-line values, None where a flag was
    left out; names that are not config keys are ignored. The SNR is one
    knob that a config file may name ``rho`` or ``snr_rho``; giving both
    with different values is an error, and ``--rho`` overrides either.
    The resolved value becomes both ``SweepSpec.rho`` and
    ``ScenarioConfig.snr_rho``.

    Returns the validated (ScenarioConfig, SweepSpec) pair.
    """
    data = load_config_file(path) if path else {}
    rhos = {_coerce_float(data[k], k) for k in ("rho", "snr_rho") if k in data}
    if len(rhos) > 1:
        raise ConfigError("config keys rho and snr_rho disagree")
    if flags.get("rho") is not None:
        rhos = {flags["rho"]}
    data.update((k, v) for k, v in flags.items() if v is not None)
    if rhos:
        data["rho"] = data["snr_rho"] = rhos.pop()
    return _from_mapping(ScenarioConfig, data), _from_mapping(SweepSpec, data)


def _cmd_sweep(args) -> int:
    cfg, spec = resolve_config(args.config, vars(args))
    out = Path(args.out)
    if not out.parent.is_dir():
        raise FileNotFoundError(
            f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise IsADirectoryError(f"output path {out} is a directory")
    rows = run_sweep(spec, cfg)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_trial(args) -> int:
    cfg, spec = resolve_config(args.config, vars(args))
    profile = spec.panel_profiles[0]
    cfg = replace(cfg, panel_side_m=profile.panel_side_m)
    scenario = build_scenario(cfg, profile.antennas_per_panel)
    result = run_trial(scenario, cfg, args.algo, args.np_outputs, spec.seed,
                       args.trial_index, spec.passes)
    items = [
        ("profile", profile.value),
        ("algorithm", args.algo),
        ("np", args.np_outputs),
        ("n_total", args.np_outputs * scenario.p_count),
        ("rho", _fmt(cfg.snr_rho)),
        ("seed", spec.seed),
        ("trial_index", args.trial_index),
        ("passes", result.passes_executed),
        ("sum_rate_bits", _fmt(result.report.sum_rate_bits)),
        ("channel_capacity_bits", _fmt(result.report.channel_capacity_bits)),
    ] + [(f.name, getattr(result.traffic, f.name))
         for f in fields(result.traffic)]
    for key, value in items:
        print(f"{key}={value}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numerics.check_finite rejects every non-finite Gram, factor or
        # gain, so numpy's overflow warnings would only repeat that error
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
