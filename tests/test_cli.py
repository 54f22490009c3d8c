"""The command-line interface."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import build_parser, main
from tests.conftest import (
    HOSTILE_FRAMES,
    daemon_hangs_up_on,
    process_children,
    process_running,
    synthetic_records,
)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A synthetic calibration file so CLI tests skip real calibration."""
    from repro.perf.costmodel import CostModel

    model = CostModel.fit(synthetic_records(), root=2)
    path = tmp_path_factory.mktemp("cli") / "model.json"
    model.to_json(path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults_match_paper(self):
        args = build_parser().parse_args(["run-sequential"])
        assert args.root == 2
        assert args.tol == 1.0e-3

    def test_table1_levels_parsed(self):
        args = build_parser().parse_args(["table1", "--levels", "0", "5", "15"])
        assert args.levels == [0, 5, 15]


class TestCommands:
    def test_run_sequential(self, capsys):
        assert main(["run-sequential", "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "grids: 3" in out
        assert "total" in out

    def test_run_concurrent_with_verify(self, capsys):
        assert main(["run-concurrent", "--level", "1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "workers: 3" in out
        assert "bitwise identical to sequential: True" in out

    def test_run_concurrent_pool_per_diagonal(self, capsys):
        assert main([
            "run-concurrent", "--level", "1", "--pool-per-diagonal", "--verify"
        ]) == 0
        assert "True" in capsys.readouterr().out

    def test_run_parallel_warm_repeat_with_verify(self, capsys):
        from repro.restructured import shutdown_pool

        shutdown_pool()
        try:
            assert main([
                "run-parallel", "--level", "1", "--repeat", "2", "--verify"
            ]) == 0
            out = capsys.readouterr().out
            assert "run 1 (cool)" in out
            assert "run 2 (warm)" in out
            assert "operator cache" in out
            assert "makespan" in out
            assert "bitwise identical to sequential: True" in out
        finally:
            shutdown_pool()

    def test_run_parallel_cold_mode(self, capsys):
        assert main(["run-parallel", "--level", "1", "--cold"]) == 0
        out = capsys.readouterr().out
        assert "run 1 (cold)" in out
        assert "pool: cold" in out

    def test_run_parallel_prints_one_report(self, tmp_path, capsys):
        """The trace part of a run's report is the text ``analyze-trace``
        prints for the written trace, and the fault counts are printed
        by the fault report alone."""
        trace = str(tmp_path / "run.jsonl")
        assert main([
            "run-parallel", "--level", "3", "--processes", "2",
            "--faults", "crash@2,0", "--trace", trace,
        ]) == 0
        run = capsys.readouterr().out.splitlines()
        assert main(["analyze-trace", trace]) == 0
        analyzed = capsys.readouterr().out.splitlines()

        start = run.index(analyzed[0])
        assert run[start:start + len(analyzed)] == analyzed
        counts = "faults: 1, recovered: 1, sequential fallbacks: 0, survived: True"
        assert [line for line in run if line.startswith("faults: ")] == [counts]
        faults = run.index(counts)
        assert run[faults + 1].startswith("  crash on (2, 0)")
        rest = run[:faults] + run[faults + 2:start] + run[start + len(analyzed):]
        assert not [
            line for line in rest
            if re.search(r"\bfaults?\b|recovered|fallback", line)
        ]

    def test_run_parallel_has_no_dispatch_option(self, capsys):
        # jobs are always dispatched longest-predicted-first
        with pytest.raises(SystemExit) as info:
            main(["run-parallel", "--level", "1", "--dispatch", "static"])
        assert info.value.code == 2
        assert "--dispatch" in capsys.readouterr().err

    def test_run_parallel_has_no_model_option(self, model_file, capsys):
        # a job's deadline is priced from the run's own results
        with pytest.raises(SystemExit) as info:
            main(["run-parallel", "--level", "1", "--model", model_file])
        assert info.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_run_parallel_rejects_zero_processes(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-parallel", "--level", "0",
             "--processes", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "processes must be >= 1" in result.stderr

    def test_calibrate_writes_model(self, tmp_path, capsys, monkeypatch):
        # This test covers the CLI glue (argument plumbing, JSON output),
        # not the measurement itself: real timings under background load
        # can legitimately fail the degenerate-fit guard, so substitute
        # deterministic records.  Real calibration is exercised by
        # tests/perf/test_costmodel.py::TestRealCalibration.
        def fake_measure(problem, root, levels, tols, repeats=1):
            assert repeats >= 1
            return synthetic_records(root=root, levels=range(2, 7), tols=tols)

        monkeypatch.setattr("repro.perf.measure_costs", fake_measure)
        out_path = tmp_path / "cal.json"
        code = main([
            "calibrate", "--levels", "3", "4", "--tols", "1e-3",
            "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert "wall_coefficients" in payload

    def test_table1_from_model_file(self, model_file, capsys):
        code = main([
            "table1", "--model", model_file, "--levels", "0", "15",
            "--tols", "1e-3", "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "st(paper)" in out
        assert " 15 " in out

    def test_trace_from_model_file(self, model_file, capsys):
        code = main(["trace", "--model", model_file, "--level", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-> Welcome" in out
        assert "-> Bye" in out
        assert "bumpa.sen.cwi.nl" in out

    def test_figures_from_model_file(self, model_file, capsys):
        code = main([
            "figures", "--model", model_file, "--max-level", "8", "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 5" in out

    def test_ablations_from_model_file(self, model_file, capsys):
        code = main([
            "ablations", "--model", model_file, "--level", "10",
            "--scenarios", "paper", "no-perpetual", "one-task",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert "no-perpetual" in out
        # tasks forked, per scenario, by the one placement engine: every
        # one of level 10's 21 workers forks its own task instance when
        # none is perpetual, {load n} houses them all in one, and
        # perpetual reuse lies in between
        tasks = {
            cells[0]: int(cells[2])
            for cells in (
                [c.strip() for c in line.split("|")] for line in out.splitlines()
            )
            if len(cells) == 5 and cells[2].isdigit()
        }
        assert tasks["no-perpetual"] == 21
        assert tasks["one-task"] == 1
        assert 1 <= tasks["paper"] < 21

    def test_ablations_unknown_scenario_fails(self, model_file):
        with pytest.raises(KeyError):
            main([
                "ablations", "--model", model_file, "--scenarios", "warp-drive",
            ])

    def test_experiments_index(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "Table 1" in out

    def test_experiments_quick_run(self, model_file, capsys):
        assert main(["experiments", "--run", "e7", "--model", model_file]) == 0
        out = capsys.readouterr().out
        assert "-> Welcome" in out

    def test_experiments_bench_only_entry(self, model_file, capsys):
        assert main(["experiments", "--run", "E10", "--model", model_file]) == 0
        out = capsys.readouterr().out
        assert "use the bench" in out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-sequential", "--level", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "grids: 1" in result.stdout


class TestWorkerDaemon:
    """``repro worker-daemon``: the one daemon that is neither forked by
    a master nor served from a test thread."""

    RUN = dict(root=2, level=2, tol=1.0e-3, processes=2)

    @pytest.fixture()
    def exec_daemon(self):
        """An exec'ed daemon and the port it printed."""
        from repro.restructured import shutdown_pool

        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker-daemon", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
            # a harness that runs the suite in the background hands down
            # an ignored SIGINT, which Python would leave ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            word, port = daemon.stdout.readline().split()
            assert word == "LISTENING"
            yield daemon, int(port)
        finally:
            daemon.kill()
            daemon.wait()
            daemon.stdout.close()
            shutdown_pool()

    def test_serves_masters_in_a_row_and_leaves_on_sigint(self, exec_daemon):
        from repro.restructured import run_multiprocessing

        daemon, port = exec_daemon
        reference = run_multiprocessing(**self.RUN).combined
        for _ in range(2):
            result = run_multiprocessing(
                **self.RUN, engine="socket", hosts=f"tcp://127.0.0.1:{port}"
            )
            assert np.array_equal(result.combined, reference)
            assert (result.daemons, result.reconnects) == (1, 0)
        (instance,) = process_children(daemon.pid)
        daemon.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 2.0
        assert daemon.wait(timeout=2.0) == 0
        while process_running(instance) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not process_running(instance)

    def test_hostile_frames_drop_the_sender_only(self, exec_daemon):
        """A garbled body, a body that is no ``(kind, data)`` pair and a
        ``job`` without its ``spec`` each cost whoever sent them the
        connection, not the next master its daemon."""
        from repro.restructured import run_multiprocessing

        daemon, port = exec_daemon
        reference = run_multiprocessing(**self.RUN).combined
        for wire in HOSTILE_FRAMES.values():
            assert daemon_hangs_up_on(port, wire)
            assert daemon.poll() is None
            result = run_multiprocessing(
                **self.RUN, engine="socket", hosts=f"tcp://127.0.0.1:{port}"
            )
            assert np.array_equal(result.combined, reference)
            assert (result.faults, result.reconnects) == (0, 0)

    @pytest.mark.parametrize(
        "flag",
        (
            ["--capacity", "2"],
            ["--no-perpetual"],
            ["--drain-timeout", "1"],
            ["--heartbeat-interval", "10"],
        ),
    )
    def test_a_daemon_holds_one_job_and_says_so(self, flag, capsys):
        # one task instance per daemon, kept for the next job, drained
        # for DRAIN_TIMEOUT, beating at a tenth of the master's silence
        # window: none of the four is a choice any more
        with pytest.raises(SystemExit) as info:
            main(["worker-daemon", "--port", "0", *flag])
        assert info.value.code == 2
        assert flag[0] in capsys.readouterr().err
