import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lisim import capacity, chain, cli, numerics
from lisim.chain import Algorithm, run_iic_chain, run_rmf
from lisim.channel import ScenarioConfig, build_scenario
from lisim.cli import PanelProfile, SweepAxis, SweepSpec
from lisim.errors import ConfigError, NumericalDomainError

#: Desk-scale geometry: 5 small panels (P=5, Mp=16, M=80), 4 users.
TINY_SCENARIO = {
    "lis_width_m": 1.0,
    "lis_height_m": 0.2,
    "users_k": 4,
}


def tiny_cfg():
    return ScenarioConfig(**TINY_SCENARIO)


def run_python(*args, timeout=120):
    """``python *args`` in a fresh process that imports this lisim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def tiny_spec(**overrides):
    base = dict(axis=SweepAxis.NP_PER_PANEL, values=(1, 2),
                algorithms=(Algorithm.IIC, Algorithm.RMF),
                panel_profiles=(PanelProfile.SMALL,), trials=3, seed=7,
                rho=1.0, passes=1)
    base.update(overrides)
    return SweepSpec(**base)


class TestProfiles:
    def test_geometry_constants(self):
        assert PanelProfile.SMALL.panel_side_m == 0.2
        assert PanelProfile.SMALL.antennas_per_panel == 16
        assert PanelProfile.LARGE.panel_side_m == 1.0
        assert PanelProfile.LARGE.antennas_per_panel == 400


class TestResolveValues:
    def test_np_axis_passthrough(self):
        pairs = cli._resolve_values(tiny_spec(values=(1, 4)),
                                    PanelProfile.SMALL, p_count=5, mp=16)
        assert pairs == [(1, 5), (4, 20)]

    def test_total_axis_divides_by_panel_count(self):
        spec = tiny_spec(axis=SweepAxis.TOTAL_N, values=(500,))
        pairs = cli._resolve_values(spec, PanelProfile.SMALL, 250, 16)
        assert pairs == [(2, 500)]

    def test_total_axis_rejects_indivisible(self):
        spec = tiny_spec(axis=SweepAxis.TOTAL_N, values=(501,))
        with pytest.raises(ConfigError):
            cli._resolve_values(spec, PanelProfile.SMALL, 250, 16)

    def test_np_axis_rejects_more_than_antennas(self):
        with pytest.raises(ConfigError):
            cli._resolve_values(tiny_spec(values=(17,)), PanelProfile.SMALL,
                                250, 16)

    def test_default_values_per_profile(self):
        spec = tiny_spec(values=None)
        pairs = cli._resolve_values(spec, PanelProfile.LARGE, 10, 400)
        assert [p[0] for p in pairs] == [1, 2, 4, 8, 12, 16, 20]
        spec_n = tiny_spec(values=None, axis=SweepAxis.TOTAL_N)
        pairs_n = cli._resolve_values(spec_n, PanelProfile.LARGE, 10, 400)
        assert [p[1] for p in pairs_n] == [10, 20, 40, 80, 120, 160, 200]


class TestRunTrial:
    def test_deterministic(self):
        cfg = tiny_cfg()
        scenario = build_scenario(cfg, 16)
        a = cli.run_trial(scenario, cfg, Algorithm.IIC, 2, 42, trial_index=3)
        b = cli.run_trial(scenario, cfg, Algorithm.IIC, 2, 42, trial_index=3)
        assert a.report.sum_rate_bits == b.report.sum_rate_bits
        np.testing.assert_array_equal(a.report.per_panel_cumulative,
                                      b.report.per_panel_cumulative)

    def test_trials_differ(self):
        cfg = tiny_cfg()
        scenario = build_scenario(cfg, 16)
        a = cli.run_trial(scenario, cfg, Algorithm.RMF, 2, 42, trial_index=0)
        b = cli.run_trial(scenario, cfg, Algorithm.RMF, 2, 42, trial_index=1)
        assert a.report.sum_rate_bits != b.report.sum_rate_bits

    @pytest.mark.parametrize("algorithm", [Algorithm.IIC, Algorithm.RMF])
    def test_results_carry_no_filters_and_no_trace(self, algorithm):
        # rates only, full width or not: np = 4 keeps 4 of 16 antennas
        cfg = ScenarioConfig()
        scenario = build_scenario(cfg, 16)
        result = cli.run_trial(scenario, cfg, algorithm, 4, 42, 0)
        assert result.equalizers is None
        assert result.report.per_panel_cumulative.size == 0

    @pytest.mark.parametrize("algorithm", [Algorithm.IIC, Algorithm.RMF])
    def test_full_width_filters_reach_capacity(self, algorithm):
        cfg = tiny_cfg()
        scenario = build_scenario(cfg, 16)
        report = cli.run_trial(scenario, cfg, algorithm, 16, 42,
                               trial_index=0).report
        assert report.sum_rate_bits == pytest.approx(
            report.channel_capacity_bits, rel=1e-6)

    def test_full_width_cells_make_no_svd(self, monkeypatch, crandn):
        # tall blocks, factored to 3 x 3: IIC from np = 3 and RMF from
        # np = K = 3 keep every block's range, so no filter is built
        calls = []

        def svd(a):
            calls.append(a.shape)
            return real(a)

        real = numerics.svd
        monkeypatch.setattr(numerics, "svd", svd)
        blocks = [crandn(6, 3) for _ in range(4)]
        cells = [(Algorithm.IIC, 3), (Algorithm.RMF, 3), (Algorithm.IIC, 6),
                 (Algorithm.RMF, 5)]
        for passes in (1, 2):
            for result in chain._chains(blocks, 2.0, cells, passes,
                                        rates_only=True):
                report = result.report
                assert report.sum_rate_bits == report.channel_capacity_bits
                assert report.per_panel_cumulative.size == 0
                assert result.equalizers is None
        assert calls == []
        list(chain._chains(blocks, 2.0, [(Algorithm.IIC, 2)], 1,
                           rates_only=True))
        assert len(calls) == 4

    def test_rejects_np_above_antenna_count(self):
        # a factor has only 20 rows, and np may exceed them, but not the
        # 400 antennas of a raw block
        large = PanelProfile.LARGE
        cfg = replace(ScenarioConfig(), panel_side_m=large.panel_side_m)
        scenario = build_scenario(cfg, large.antennas_per_panel)
        with pytest.raises(ConfigError):
            cli.run_trial(scenario, cfg, Algorithm.IIC, 401, 42, 0)

    def test_rejects_zero_np(self):
        cfg = tiny_cfg()
        scenario = build_scenario(cfg, 16)
        with pytest.raises(ConfigError, match="np must be between 1 and"):
            cli.run_trial(scenario, cfg, Algorithm.IIC, np_outputs=0, seed=42,
                          trial_index=0)

    def test_trial_channel_rejects_negative_index(self):
        cfg = tiny_cfg()
        for index in (-1, 1.5):
            with pytest.raises(ConfigError, match="trial index"):
                cli.trial_channel(build_scenario(cfg, 16), cfg, 42, index)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7", None])
    def test_trial_channel_rejects_bad_seed(self, seed):
        # numpy would raise its own TypeError or ValueError on these
        cfg = tiny_cfg()
        with pytest.raises(ConfigError, match="seed"):
            cli.trial_channel(build_scenario(cfg, 16), cfg, seed, 0)


class TestRunSweep:
    def test_row_cardinality_and_order(self):
        rows = cli.run_sweep(tiny_spec(), tiny_cfg())
        assert len(rows) == 4  # 2 algorithms x 2 values
        assert [(r.algorithm, r.np) for r in rows] == [
            ("iic", 1), ("iic", 2), ("rmf", 1), ("rmf", 2)]
        for row in rows:
            assert row.profile == "small"
            assert row.n_total == row.np * 5
            assert row.trials == 3 and row.seed == 7

    def test_one_row_per_algorithm_and_value(self):
        spec = tiny_spec(values=tuple(range(1, 17)), trials=1)
        rows = cli.run_sweep(spec, tiny_cfg())
        for algorithm in ("iic", "rmf"):
            assert sum(r.algorithm == algorithm for r in rows) == 16

    def test_rows_respect_capacity_ceiling(self):
        rows = cli.run_sweep(tiny_spec(), tiny_cfg())
        for row in rows:
            assert row.mean_sum_rate_bits <= row.mean_channel_capacity_bits + 1e-6

    def test_chain_scalars_accounting(self):
        rows = cli.run_sweep(tiny_spec(), tiny_cfg())
        k = TINY_SCENARIO["users_k"]
        for row in rows:
            expected = (5 - 1) * k * k if row.algorithm == "iic" else 0
            assert row.chain_scalars == expected

    def test_matches_run_trial_realizations(self):
        cfg = tiny_cfg()
        spec = tiny_spec(trials=2, values=(2,), algorithms=(Algorithm.IIC,))
        rows = cli.run_sweep(spec, cfg)
        scenario = build_scenario(cfg, 16)
        reports = [cli.run_trial(scenario, cfg, Algorithm.IIC, 2, spec.seed,
                                 t).report for t in range(2)]
        want = np.mean([r.sum_rate_bits for r in reports])
        assert rows[0].mean_sum_rate_bits == pytest.approx(want, rel=1e-12)

    def test_single_trial_zero_std(self):
        rows = cli.run_sweep(tiny_spec(trials=1, values=(1,)), tiny_cfg())
        assert rows[0].std_sum_rate_bits == 0.0

    def test_a_trial_computes_its_ceiling_once(self, monkeypatch):
        # the twelve cells of a small-profile trial share the one ceiling
        # of their blocks
        calls = []
        real = capacity.channel_capacity

        def count(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(capacity, "channel_capacity", count)
        cfg = ScenarioConfig()
        scenario = build_scenario(cfg, PanelProfile.SMALL.antennas_per_panel)
        grid = cli._PROFILE_GEOMETRY[PanelProfile.SMALL][2]
        cells = [(algo, n) for algo in Algorithm for n in grid]
        (values,) = cli._trial_values(scenario, cfg, 42, cells, 1, [0])
        assert len(values) == 12
        assert len(calls) == 1
        assert {ceiling for _, ceiling, _ in values} == {real(*calls[0])}


class TestLargeProfileSweep:
    """The sweep and ``run_trial`` run factored 400 x 20 blocks.

    Both must give the rates of the raw blocks of ``trial_channel``.
    """

    @staticmethod
    def _assert_matches_raw_blocks(spec):
        large = PanelProfile.LARGE
        cfg = replace(ScenarioConfig(), panel_side_m=large.panel_side_m,
                      snr_rho=spec.rho)
        scenario = build_scenario(cfg, large.antennas_per_panel)
        raw = cli.trial_channel(scenario, cfg, spec.seed, 0).blocks
        rows = cli.run_sweep(spec)
        assert len(rows) == len(spec.algorithms) * len(spec.values)
        for row in rows:
            algorithm = Algorithm(row.algorithm)
            if algorithm is Algorithm.IIC:
                want = run_iic_chain(raw, spec.rho, row.np, spec.passes)
            else:
                want = run_rmf(raw, row.np, spec.rho)
            report = cli.run_trial(scenario, cfg, algorithm, row.np,
                                   spec.seed, 0, spec.passes).report
            for rate in (row.mean_sum_rate_bits, report.sum_rate_bits):
                assert abs(rate - want.report.sum_rate_bits) <= 1e-9
            for cap in (row.mean_channel_capacity_bits,
                        report.channel_capacity_bits):
                assert abs(cap - want.report.channel_capacity_bits) <= 1e-9

    @pytest.mark.parametrize("passes", [1, 2])
    def test_np_axis_matches_run_trial(self, passes):
        self._assert_matches_raw_blocks(SweepSpec(
            values=(1, 8, 20), panel_profiles=(PanelProfile.LARGE,),
            trials=1, passes=passes))

    def test_total_axis_above_user_count_matches_run_trial(self):
        # 25 to 200 outputs per panel, more than the 20 rows of a factor
        self._assert_matches_raw_blocks(SweepSpec(
            axis=SweepAxis.TOTAL_N, values=(250, 500, 2000),
            panel_profiles=(PanelProfile.LARGE,), trials=1, passes=2))


def failing_channel(error, at_trial):
    """``cli.trial_channel`` that raises ``error`` at one trial index."""
    real = cli.trial_channel

    def channel(scenario, cfg, seed, trial_index):
        if trial_index == at_trial:
            raise error(f"boom at trial {trial_index}")
        return real(scenario, cfg, seed, trial_index)

    return channel


def failing_in_child(error, real):
    """``real``, raising ``error`` in any process but this one."""
    parent = os.getpid()

    def run(*args, **kwargs):
        if os.getpid() != parent:
            raise error("boom in a cell slice")
        return real(*args, **kwargs)

    return run


class TestParallelTrials:
    """A sweep of two or more trials runs them on every usable CPU.

    The CPU lookup is forced, so the forked path runs on any host.
    """

    LARGE_RMF = SweepSpec(values=(1,), algorithms=(Algorithm.RMF,),
                          panel_profiles=(PanelProfile.LARGE,), trials=4)
    #: One trial of two cells: on two CPUs each runs in its own process.
    LARGE_SLICES = replace(LARGE_RMF, values=(1, 4), trials=1)

    @pytest.mark.parametrize("error, code", [(NumericalDomainError, 3),
                                             (ConfigError, 2)])
    def test_worker_error_keeps_type_message_and_exit_code(
            self, tmp_path, capsys, monkeypatch, error, code):
        # two CPUs: trials 1 and 3 run in the forked worker
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "trial_channel", failing_channel(error, 3))
        with pytest.raises(error) as exc:
            cli.run_sweep(self.LARGE_RMF)
        assert type(exc.value) is error
        assert str(exc.value) == "boom at trial 3"
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--profiles", "large", "--trials", "4",
                         "--values", "1", "--algos", "rmf",
                         "--out", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().err.endswith(": boom at trial 3\n")

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("spec", [
        SweepSpec(values=(1, 16), panel_profiles=(PanelProfile.SMALL,),
                  trials=3),
        SweepSpec(values=(4, 20), panel_profiles=(PanelProfile.LARGE,),
                  trials=5, passes=2, rho=3.7),
        SweepSpec(axis=SweepAxis.TOTAL_N, values=(250, 500), trials=3,
                  algorithms=(Algorithm.IIC,), seed=11),
        SweepSpec(values=(1, 4, 16), panel_profiles=(PanelProfile.SMALL,),
                  trials=1),
        SweepSpec(values=(1, 2, 4), algorithms=(Algorithm.IIC,),
                  panel_profiles=(PanelProfile.SMALL,), trials=1),
    ], ids=["small", "large-passes-2", "n-axis", "one-trial",
            "one-trial-odd-cells"])
    def test_same_rows_on_one_cpu_or_many(self, monkeypatch, spec, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        one = cli.run_sweep(spec)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli.run_sweep(spec) == one

    def test_trial_values_come_back_in_trial_order(self, monkeypatch):
        cfg = tiny_cfg()
        scenario = build_scenario(cfg, 16)
        cells = [(Algorithm.IIC, 2), (Algorithm.RMF, 1)]
        args = (scenario, replace(cfg, snr_rho=3.7), 7, cells, 2)
        want = [cli._trial_values(*args, [t])[0] for t in range(5)]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        assert cli._run_trials(*args, 5) == want

    def test_killed_worker_raises_instead_of_waiting(self, monkeypatch):
        parent = os.getpid()
        real = cli.trial_channel

        def channel(scenario, cfg, seed, trial_index):
            if trial_index == 3:
                # two CPUs deal trial 3 to the forked worker
                assert os.getpid() != parent
                os.kill(os.getpid(), signal.SIGKILL)
            return real(scenario, cfg, seed, trial_index)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "trial_channel", channel)
        with pytest.raises(BrokenProcessPool):
            cli.run_sweep(self.LARGE_RMF)

    @pytest.mark.parametrize("error, code", [(NumericalDomainError, 3),
                                             (ConfigError, 2)])
    def test_cell_slice_error_keeps_type_message_and_exit_code(
            self, tmp_path, capsys, monkeypatch, error, code):
        # one trial, two cells, two CPUs: np 4 runs in the forked worker
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_chains",
                            failing_in_child(error, cli._chains))
        with pytest.raises(error) as exc:
            cli.run_sweep(self.LARGE_SLICES)
        assert type(exc.value) is error
        assert str(exc.value) == "boom in a cell slice"
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--profiles", "large", "--trials", "1",
                         "--values", "1,4", "--algos", "rmf",
                         "--out", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().err.endswith(": boom in a cell slice\n")

    def test_killed_cell_slice_raises_instead_of_waiting(self, monkeypatch):
        parent = os.getpid()
        real = cli._chains

        def chains(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_chains", chains)
        with pytest.raises(BrokenProcessPool):
            cli.run_sweep(self.LARGE_SLICES)

    def test_one_cpu_never_splits_cells(self, monkeypatch):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("multiprocessing context created")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        rows = cli.run_sweep(self.LARGE_SLICES)
        assert [row.np for row in rows] == [1, 4]

    def test_no_fork_runs_every_trial_here(self, monkeypatch):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("multiprocessing context created")

        spec = replace(self.LARGE_SLICES, trials=3)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        one = cli.run_sweep(spec)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        assert cli.run_sweep(spec) == one

    def test_one_trial_never_creates_a_context(self, monkeypatch, capsys):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("multiprocessing context created")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        rows = cli.run_sweep(replace(self.LARGE_RMF, trials=1))
        assert rows[0].trials == 1
        assert cli.main(["trial", "--profile", "large", "--algo", "rmf",
                         "--np", "1"]) == 0
        assert "sum_rate_bits=" in capsys.readouterr().out
        with pytest.raises(AssertionError, match="context created"):
            cli.run_sweep(replace(self.LARGE_RMF, trials=2))


def killed_at(trial):
    """``cli.trial_channel`` that kills its process at one trial index."""
    real = cli.trial_channel

    def channel(scenario, cfg, seed, trial_index):
        if trial_index == trial:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(scenario, cfg, seed, trial_index)

    return channel


@contextlib.contextmanager
def deadline(seconds):
    """Fail after ``seconds`` rather than hang; not with an OSError, which
    ``multiprocessing`` reads as an interrupted wait."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def big_values(scenario, cfg, seed, cells, passes, indices):
    """``cli._trial_values`` stand-in: over 64 KiB, a pipe's buffer, per
    trial, tagged with the trial and the cell."""
    return [[(t, cell, bytes([t]) * 70_000) for cell in cells]
            for t in indices]


class TestSweepWorkers:
    """The forked workers of ``cli._run_trials`` and their pipes.

    The CPU lookup is forced, so the forked path runs on any host.
    """

    LARGE_RMF = TestParallelTrials.LARGE_RMF

    @pytest.mark.parametrize("channel", [
        None,
        failing_channel(NumericalDomainError, 3),  # in the worker
        failing_channel(NumericalDomainError, 0),  # in this process
        killed_at(3),
    ], ids=["returns", "worker-raises", "caller-raises", "worker-killed"])
    def test_no_process_outlives_the_sweep(self, monkeypatch, channel):
        import multiprocessing

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        if channel is None:
            with deadline(60):
                assert cli.run_sweep(self.LARGE_RMF)[0].trials == 4
        else:
            monkeypatch.setattr(cli, "trial_channel", channel)
            with deadline(60), pytest.raises(
                    (NumericalDomainError, BrokenProcessPool)):
                cli.run_sweep(self.LARGE_RMF)
        # before active_children, which would reap a finished worker
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, trials", [(3, 5), (2, 1)],
                             ids=["trial-split", "cell-split"])
    def test_results_larger_than_a_pipe_come_back_in_order(
            self, monkeypatch, cpus, trials):
        cells = ["iic", "rmf"]
        monkeypatch.setattr(cli, "_trial_values", big_values)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        with deadline(30):  # a join before the last read would hang
            got = cli._run_trials(None, None, 0, cells, 1, trials)
        assert got == big_values(None, None, 0, cells, 1, range(trials))

    def test_caller_error_beside_a_full_pipe_comes_back_at_once(self):
        # the worker blocks writing its result, which this process never
        # reads: its error must come back without a join on that worker
        script = """if True:
            import multiprocessing, os, time
            from lisim import cli
            parent = os.getpid()

            def values(*args):
                if os.getpid() == parent:
                    time.sleep(0.5)
                    raise RuntimeError("boom here")
                return [[bytes(1 << 20)]]

            cli._trial_values = values
            cli._usable_cpus = lambda: 2
            start = time.monotonic()
            try:
                cli._run_trials(None, None, 0, ["iic"], 1, 2)
            except RuntimeError as exc:
                print(exc, time.monotonic() - start,
                      multiprocessing.active_children())
            """
        done = run_python("-c", script, timeout=30)
        message, seconds, children = done.stdout.rsplit(" ", 2)
        assert message == "boom here"
        assert float(seconds) < 10.0
        assert children == "[]\n"

    def test_a_worker_whose_reader_is_gone_ends(self, capfd):
        # a worker that kept its own copy of the read end would block on
        # a full pipe for ever once this process died
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        recv, send = fork.Pipe(duplex=False)
        worker = fork.Process(target=cli._send_outcome, args=(
            recv, send, lambda: bytes(1 << 20), ()))
        worker.start()
        recv.close()
        send.close()
        worker.join(30)
        alive = worker.is_alive()
        worker.kill()
        worker.join()
        assert not alive
        assert "BrokenPipeError" in capfd.readouterr().err

    def test_worker_error_carries_its_traceback(self, monkeypatch):
        real = cli.trial_channel

        def keyed_channel(scenario, cfg, seed, trial_index):
            if trial_index == 3:  # two CPUs deal trial 3 to the worker
                raise KeyError(trial_index)
            return real(scenario, cfg, seed, trial_index)

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "trial_channel", keyed_channel)
        with pytest.raises(KeyError) as exc, deadline(60):
            cli.run_sweep(self.LARGE_RMF)
        cause = exc.value.__cause__
        assert type(cause) is cli._WorkerTraceback
        assert "in keyed_channel\n" in str(cause)
        assert "KeyError: 3" in str(cause)

    def test_unpicklable_worker_error_raises_broken_pool(self, monkeypatch,
                                                         capfd):
        class LocalError(Exception):
            """Pickle finds a class by name, and a local one has none."""

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "trial_channel",
                            failing_channel(LocalError, 3))
        with pytest.raises(BrokenProcessPool), deadline(60):
            cli.run_sweep(self.LARGE_RMF)
        # the worker reports why it sent nothing
        assert "LocalError" in capfd.readouterr().err


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_csv([], path)
        assert path.read_text(encoding="utf-8") == ",".join(cli.CSV_FIELDS) + "\n"

    def test_one_row_two_lines(self, tmp_path):
        rows = cli.run_sweep(tiny_spec(trials=1, values=(1,),
                                       algorithms=(Algorithm.RMF,)), tiny_cfg())
        path = tmp_path / "one.csv"
        cli.emit_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("profile,algorithm,np,n_total,rho,trials")
        assert lines[1].startswith("small,rmf,1,5,1,1,")

    def test_rerun_byte_identical(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = cli.run_sweep(tiny_spec(), tiny_cfg())
            path = tmp_path / name
            cli.emit_csv(rows, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def write_config(tmp_path, **payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConfigIngestion:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, **TINY_SCENARIO, seed=9, trials=2,
                            axis="np", values=[1, 2], algorithms="iic",
                            panel_profiles=["small"], rho=2.0)
        cfg, spec = cli.resolve_config(path, {})
        assert cfg.users_k == 4 and spec.seed == 9
        assert spec.trials == 2 and spec.rho == 2.0
        assert spec.algorithms == (Algorithm.IIC,)
        assert spec.panel_profiles == (PanelProfile.SMALL,)
        assert spec.values == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"users": 4}), encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.load_config_file(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            cli.load_config_file(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.load_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config_file(tmp_path / "missing.json")

    def test_bad_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.resolve_config(write_config(tmp_path, axis="sideways"), {})

    def test_non_integer_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.resolve_config(write_config(tmp_path, values=[1.5]), {})

    def test_repeated_values_rejected(self, tmp_path):
        # a repeated value would feed one cell twice and double its samples
        with pytest.raises(ConfigError):
            cli.resolve_config(write_config(tmp_path, values=[4, 4]), {})

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "int-overflow"])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ConfigError):
            SweepSpec(rho=rho)
        with pytest.raises(ConfigError):
            ScenarioConfig(snr_rho=rho)

    @pytest.mark.parametrize("name", ["wavelength_m", "lis_width_m",
                                      "room_depth_m", "min_user_depth_m"])
    def test_non_finite_geometry_rejected(self, name):
        for value in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ConfigError):
                ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("change", [
        {"trials": 0}, {"trials": 2.5}, {"seed": -1}, {"seed": 1.5},
        {"passes": 0}, {"passes": 1.5}, {"values": ()}, {"values": (0,)},
        {"values": ("a",)}, {"values": (2.0,)}, {"algorithms": ()},
        {"panel_profiles": ()}, {"rho": "1"}, {"rho": None}, {"rho": True},
        {"rho": 10**400}, {"rho": Fraction(1, 2)}, {"values": 5},
        {"values": [1, 2]}, {"values": range(1, 3)}])
    def test_sweep_spec_rejects_bad_values(self, change):
        # replace builds a new SweepSpec, so it checks the change too
        (key,) = change
        with pytest.raises(ConfigError, match=key):
            replace(SweepSpec(), **change)

    @pytest.mark.parametrize("change", [
        {"axis": "np"}, {"axis": None}, {"axis": Algorithm.IIC},
        {"algorithms": ("iic",)}, {"algorithms": [Algorithm.IIC]},
        {"algorithms": (Algorithm.IIC, "rmf")}, {"algorithms": Algorithm.IIC},
        {"algorithms": (PanelProfile.SMALL,)},
        {"panel_profiles": ("small",)},
        {"panel_profiles": [PanelProfile.SMALL]},
        {"panel_profiles": PanelProfile.SMALL},
        {"panel_profiles": (Algorithm.RMF,)}])
    def test_sweep_spec_rejects_non_members(self, change):
        # a string axis ran as the total-outputs axis, and a string
        # algorithm ran as RMF before failing
        (key,) = change
        with pytest.raises(ConfigError, match=key):
            replace(SweepSpec(), **change)


#: A valid non-default config-file value of every field but panel_side_m,
#: and the value the field resolves to. The float fields are given as JSON
#: integers, so the test also sees them converted.
NON_DEFAULT_VALUES = {
    "lis_width_m": (8, 8.0),
    "lis_height_m": (2, 2.0),
    "room_width_m": (20, 20.0),
    "room_height_m": (2.5, 2.5),
    "room_depth_m": (20, 20.0),
    "users_k": (8, 8),
    "wavelength_m": (0.1, 0.1),
    "snr_rho": (2, 2.0),
    "min_user_depth_m": (1, 1.0),
    "axis": ("n", SweepAxis.TOTAL_N),
    "values": ([4, 2], (4, 2)),
    "algorithms": ("rmf,rmf", (Algorithm.RMF,)),
    "panel_profiles": (["large"], (PanelProfile.LARGE,)),
    "trials": (5, 5),
    "seed": (7.0, 7),
    "rho": (3, 3.0),
    "passes": (2, 2),
}

CONFIG_FIELDS = sorted(({f.name for f in fields(ScenarioConfig)}
                        | {f.name for f in fields(SweepSpec)})
                       - {"panel_side_m"})


class TestResolveConfig:
    @pytest.mark.parametrize("key", CONFIG_FIELDS)
    def test_every_key_reads_to_its_field_type(self, tmp_path, key):
        # a field added without a reader fails here: the float default
        # would turn an int or an enum into the wrong type
        raw, want = NON_DEFAULT_VALUES[key]
        path = write_config(tmp_path, **{key: raw})
        cfg, spec = cli.resolve_config(path, {})
        owner = spec if hasattr(spec, key) else cfg
        got, default = getattr(owner, key), getattr(type(owner)(), key)
        assert got == want != default
        assert type(got) is (tuple if default is None else type(default))
        if isinstance(got, tuple):
            assert [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("key", ["rho", "snr_rho"])
    def test_either_key_sets_both(self, tmp_path, key):
        path = write_config(tmp_path, **{key: 4.0})
        cfg, spec = cli.resolve_config(path, {})
        assert cfg.snr_rho == spec.rho == 4.0

    def test_agreeing_keys_accepted(self, tmp_path):
        path = write_config(tmp_path, rho=0.5, snr_rho=0.5)
        cfg, spec = cli.resolve_config(path, {})
        assert cfg.snr_rho == spec.rho == 0.5

    def test_disagreeing_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, rho=0.25, snr_rho=4.0)
        with pytest.raises(ConfigError):
            cli.resolve_config(path, {"rho": 2.0})

    def test_flag_overrides_both_keys(self, tmp_path):
        path = write_config(tmp_path, snr_rho=4.0, seed=3, passes=2)
        cfg, spec = cli.resolve_config(path, {"rho": 2.0, "seed": None,
                                              "passes": 3})
        assert cfg.snr_rho == spec.rho == 2.0
        assert spec.seed == 3  # flag left out: config wins
        assert spec.passes == 3

    def test_defaults_without_file(self):
        cfg, spec = cli.resolve_config(None, {})
        assert cfg == ScenarioConfig() and spec == SweepSpec()


class TestMain:
    def _write_config(self, tmp_path, **extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_SCENARIO, **extra}),
                        encoding="utf-8")
        return path

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--trials", "2",
                         "--values", "1,2", "--profiles", "small",
                         "--algos", "iic,rmf", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5  # header + 2 algos x 2 values
        assert "wrote 4 rows" in capsys.readouterr().out

    def test_trial_prints_key_value_report(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli.main(["trial", "--config", str(cfg), "--algo", "iic",
                         "--np", "2", "--seed", "5"])
        assert code == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["profile"] == "small"
        assert report["algorithm"] == "iic"
        assert report["np"] == "2"
        assert float(report["sum_rate_bits"]) > 0
        assert (float(report["sum_rate_bits"])
                <= float(report["channel_capacity_bits"]) + 1e-6)
        assert report["chain_complex_scalars"] == str(4 * 16)

    @pytest.mark.parametrize("np_arg, backplane", [("25", "250"),
                                                    ("400", "4000")])
    def test_large_trial_traffic_counts_requested_np(self, capsys, np_arg,
                                                     backplane):
        # a filter of the factored run keeps at most 20 outputs per panel;
        # the accounting still counts every requested output of the 10
        # panels
        code = cli.main(["trial", "--profile", "large", "--algo", "iic",
                         "--np", np_arg])
        assert code == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["n_total"] == backplane
        assert report["backplane_scalars_per_use"] == backplane
        assert report["chain_complex_scalars"] == str(9 * 20 * 20)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # 10.1 m is no whole number of 0.2 m panels
        path.write_text(json.dumps({"lis_width_m": 10.1}), encoding="utf-8")
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "lis_width_m" in capsys.readouterr().err

    def test_geometry_one_profile_rejects_exits_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # 10.4 m is 52 small panels of 0.2 m but no whole number of 1.0 m
        # panels; the large profile runs second
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lis_width_m": 10.4}), encoding="utf-8")
        calls = []
        real = cli.trial_channel

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "trial_channel", record)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--config", str(path), "--trials", "1",
                         "--values", "1", "--algos", "rmf",
                         "--out", str(out)])
        assert code == 2
        assert calls == []
        assert not out.exists()
        assert "lis_width_m" in capsys.readouterr().err

    def test_panel_side_in_config_exits_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, panel_side_m=0.5)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--trials", "1",
                         "--out", str(out)]) == 2
        assert cli.main(["trial", "--config", str(cfg), "--algo", "iic",
                         "--np", "1"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("panel_side_m is set by the panel profile") == 2

    def test_unwritable_output_exits_4(self, tmp_path, monkeypatch, capsys):
        cfg = self._write_config(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "trial_channel",
                            lambda *args: calls.append(args))
        missing = tmp_path / "no" / "such" / "dir" / "rows.csv"
        taken = tmp_path / "taken"
        taken.mkdir()
        for out in (missing, taken):
            code = cli.main(["sweep", "--config", str(cfg), "--trials", "1",
                             "--values", "1", "--profiles", "small",
                             "--algos", "rmf", "--out", str(out)])
            assert code == 4
            assert calls == []  # checked before the first trial
        assert not missing.parent.exists()
        assert list(taken.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert err[0].endswith("does not exist")
        assert err[1].endswith("is a directory")

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)

        def boom(*args, **kwargs):
            raise NumericalDomainError("synthetic failure")

        monkeypatch.setattr(cli, "run_sweep", boom)
        code = cli.main(["sweep", "--config", str(cfg), "--out",
                         str(tmp_path / "rows.csv")])
        assert code == 3

    def test_overflowing_rate_exits_3(self, tmp_path):
        # rho = 1e308 is finite, but the Grams it scales overflow. The
        # trial's ceiling fails first, so every algorithm and pass count
        # gives the same one line, with no numpy warning before it, also
        # from the worker that a three-trial sweep forks on two or more
        # CPUs. No second IIC pass may reach the SVD with a NaN accumulator.
        out = tmp_path / "rows.csv"
        small_iic = ["--profile", "small", "--algo", "iic", "--np", "16"]
        argvs = [["trial", *small_iic, "--passes", "1"],
                 ["trial", *small_iic, "--passes", "2"],
                 ["sweep", "--profiles", "small", "--algos", "iic",
                  "--values", "16", "--trials", "3", "--passes", "2",
                  "--out", str(out)]]
        for algo in ("rmf", "iic"):
            argvs += [["trial", "--profile", "large", "--algo", algo,
                       "--np", "1"],
                      ["sweep", "--profiles", "large", "--algos", algo,
                       "--values", "1", "--trials", "3", "--out", str(out)]]
        for argv in argvs:
            done = run_python("-m", "lisim.cli", *argv, "--rho", "1e308")
            assert done.returncode == 3, argv
            assert done.stdout == ""
            assert done.stderr == ("numerical error: log-determinant is "
                                   "not finite: non-finite matrix entries\n")
        assert not out.exists()

    def test_single_pass_runs_at_rho_1e14(self, capsys):
        # users at distinct sites; the accumulator I + rho sum G_i is then
        # too ill-conditioned to factor, and a single pass never forms it
        code = cli.main(["trial", "--profile", "large", "--algo", "iic",
                         "--np", "4", "--rho", "1e14"])
        assert code == 0, capsys.readouterr().err

    def test_second_pass_runs_at_rho_1e14(self, capsys):
        code = cli.main(["trial", "--profile", "large", "--algo", "iic",
                         "--np", "1", "--rho", "1e14", "--passes", "2"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("rho", [1e13, 1e16], ids=["1e13", "1e16"])
    @pytest.mark.parametrize("passes", [2, 3])
    def test_stacked_later_passes_run_at_high_snr(self, passes, rho):
        # users at distinct sites; the accumulator is then too
        # ill-conditioned to form, and later passes grow R factors of it
        large = PanelProfile.LARGE
        cfg = replace(ScenarioConfig(), panel_side_m=large.panel_side_m)
        scenario = build_scenario(cfg, large.antennas_per_panel)
        blocks = cli.trial_channel(scenario, cfg, 42, 0).blocks
        cells = [(Algorithm.IIC, width) for width in (1, 4, 12)]
        results = list(chain._chains(blocks, rho, cells, passes,
                                     rates_only=True))
        assert [r.passes_executed for r in results] == [passes] * 3

    @pytest.mark.parametrize("profile, np_arg", [
        ("small", "0"), ("small", "17"), ("large", "0"), ("large", "401")])
    def test_trial_rejects_oversized_np(self, capsys, profile, np_arg):
        # 0 and Mp + 1 outputs per panel, both checked in one place
        mp = PanelProfile(profile).antennas_per_panel
        code = cli.main(["trial", "--profile", profile, "--algo", "iic",
                         "--np", np_arg])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (f"config error: np must be between 1 and the {mp} "
                        f"antennas per panel, got {np_arg}")

    def _trial_report(self, capsys, argv):
        code = cli.main(["trial", *argv])
        assert code == 0
        return dict(line.split("=", 1)
                    for line in capsys.readouterr().out.splitlines())

    def test_full_width_trial_prints_the_ceiling(self, capsys):
        # np = Mp = 16 keeps every small-profile block's range: the rate is
        # the ceiling, and the traffic is that of the 250-panel chain
        report = self._trial_report(capsys, ["--profile", "small", "--algo",
                                             "iic", "--np", "16"])
        assert report["sum_rate_bits"] == report["channel_capacity_bits"]
        assert report["passes"] == "1"
        assert {k: report[k] for k in (
            "chain_complex_scalars", "backplane_scalars_per_use",
            "cpu_scalars_per_use", "centralized_csi_scalars")} == {
            "chain_complex_scalars": "99600",
            "backplane_scalars_per_use": "4000",
            "cpu_scalars_per_use": "20", "centralized_csi_scalars": "0"}

    def test_trial_reports_passes_executed(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        report = self._trial_report(capsys, ["--config", str(cfg), "--algo",
                                             "rmf", "--np", "2",
                                             "--passes", "3"])
        assert report["passes"] == "1"  # RMF makes one pass
        assert report["chain_complex_scalars"] == "0"

    def test_trial_honours_config_passes_and_profile(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, passes=2, panel_profiles=["small"])
        report = self._trial_report(capsys, ["--config", str(cfg), "--algo",
                                             "iic", "--np", "2"])
        assert report["profile"] == "small"
        assert report["passes"] == "2"
        assert report["chain_complex_scalars"] == str(2 * 4 * 16)
        flagged = self._trial_report(capsys, ["--config", str(cfg), "--algo",
                                              "iic", "--np", "2",
                                              "--passes", "1"])
        assert flagged["passes"] == "1"

    @pytest.mark.parametrize("key", ["rho", "snr_rho"])
    def test_trial_and_sweep_share_rho(self, tmp_path, capsys, key):
        cfg = self._write_config(tmp_path, **{key: 0.25})
        report = self._trial_report(capsys, ["--config", str(cfg), "--algo",
                                             "rmf", "--np", "1"])
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--trials", "1",
                         "--values", "1", "--profiles", "small",
                         "--algos", "rmf", "--out", str(out)]) == 0
        header, row = out.read_text(encoding="utf-8").splitlines()
        csv_rho = dict(zip(header.split(","), row.split(",")))["rho"]
        assert report["rho"] == csv_rho == "0.25"

    def test_disagreeing_rho_keys_exit_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, rho=0.25, snr_rho=4.0)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out",
                         str(out)]) == 2
        assert cli.main(["trial", "--config", str(cfg), "--algo", "iic",
                         "--np", "1"]) == 2
        assert not out.exists()
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_flag_exits_2(self, tmp_path, capsys, rho):
        cfg = self._write_config(tmp_path)
        assert cli.main(["trial", "--config", str(cfg), "--algo", "iic",
                         "--np", "1", "--rho", rho]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"wavelength_m": NaN}', encoding="utf-8")
        assert cli.main(["trial", "--config", str(path), "--algo", "iic",
                         "--np", "1"]) == 2
        assert cli.main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / "rows.csv")]) == 2
        assert "wavelength_m" in capsys.readouterr().err

    def test_repeated_sweep_values_exit_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--algos", "rmf",
                         "--profiles", "small", "--values", "1,1",
                         "--trials", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        '{"trials": "x"}', '{"values": ["a"]}', '{"trials": null}',
        '{"users_k": [3]}', '{"algorithms": 5}', '{"seed": 1e400}',
        '{"rho": true}', '{"wavelength_m": "0.1"}', '{"algorithms": []}',
        '{"panel_profiles": ""}', '{"values": []}', '{"wavelength_m": [1]}'])
    @pytest.mark.parametrize("command", ["sweep", "trial"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, command,
                                     payload):
        (key,) = json.loads(payload)
        path = tmp_path / "cfg.json"
        path.write_text(payload, encoding="utf-8")
        out = tmp_path / "rows.csv"
        argv = (["sweep", "--config", str(path), "--out", str(out)]
                if command == "sweep" else
                ["trial", "--config", str(path), "--algo", "iic", "--np", "1"])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("config error: ") and key in line
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_negative_trial_index_exits_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli.main(["trial", "--config", str(cfg), "--algo", "iic",
                         "--np", "1", "--trial-index", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: trial index")

    def test_module_entry_point_runs_without_warnings(self):
        # runpy warns when importing the package has already imported cli
        done = run_python("-W", "error::RuntimeWarning", "-m", "lisim.cli",
                          "trial", "--algo", "rmf", "--np", "1",
                          "--profile", "large")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_consecutive_calls_match_a_fresh_process(self, capsys):
        # main parses with one parser per process; a call must not see
        # the flags or the failure of an earlier one
        first = ["trial", "--profile", "large", "--algo", "iic", "--np", "4",
                 "--passes", "2", "--trial-index", "3", "--rho", "2.5"]
        last = ["trial", "--profile", "large", "--algo", "rmf", "--np", "2"]
        assert cli.main(first) == 0
        assert "passes=2" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["trial", "--algo", "nope", "--np", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(last) == 0
        reused = capsys.readouterr().out
        fresh = run_python("-m", "lisim.cli", *last)
        assert fresh.returncode == 0, fresh.stderr
        assert reused == fresh.stdout
        assert "trial_index=0" in reused and "rho=1" in reused

    def test_every_flag_dest_is_a_config_key_or_a_command_name(self):
        # resolve_config reads vars(args) and ignores every name that is
        # no config key, so a flag with another dest would do nothing
        keys = {f.name for cls in (ScenarioConfig, SweepSpec)
                for f in fields(cls)}
        own = {"config", "out", "algo", "np_outputs", "trial_index", "help"}
        (commands,) = [a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for name in ("sweep", "trial"):
            dests = {a.dest for a in commands[name]._actions}
            assert dests - keys - own == set(), name

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep"])
        assert exc.value.code == 2
