"""The socket-backed task engine: framing, host parsing, bitwise runs,
and the chaos suite.

The acceptance invariant mirrors the fault-tolerance suite's: whatever
the transport does — frames over loopback TCP, a killed daemon, a
connection dropped mid-result, a heartbeat gone silent — the combined
solution stays *bitwise identical* to the sequential application's,
and every recovery is visible in both the FaultReport and the trace.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as wait_for_exit

import numpy as np
import pytest

from repro.manifold.timers import TimerWheel
from repro.resilience import DeadlinePolicy, EscalationPolicy, FaultPlan
from repro.restructured import (
    SocketTaskEngine,
    SubsolveJobSpec,
    WorkerDaemon,
    acquire_pool,
    execute_job,
    parse_hosts,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured import netengine, pool as pool_module
from repro.restructured.netengine import (
    DRAIN_TIMEOUT,
    FLEET_IDLE_EXIT,
    FrameError,
    HostSpec,
    _FrameDecoder,
    recv_frame,
    send_frame,
)
from repro.restructured.parallel import _FleetLease
from repro.sparsegrid import SequentialApplication, nested_loop_grids
from repro.sparsegrid.registry import make_problem
from repro.sparsegrid.cache import reset_default_operator_cache
from repro.trace import TraceAnalysis, TraceRecorder
from tests.conftest import HOSTILE_FRAMES, daemon_hangs_up_on
from tests.conftest import process_children as _children
from tests.conftest import process_running as _running

LEVEL = 2
TOL = 1.0e-3


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _run(**kw):
    kw.setdefault("root", 2)
    kw.setdefault("level", LEVEL)
    kw.setdefault("tol", TOL)
    kw.setdefault("processes", 2)
    return run_multiprocessing(**kw)


@pytest.fixture(scope="module")
def pickle_combined():
    """The fork-pool pickle path's result — the equality reference."""
    result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
    shutdown_pool()
    return result.combined


@pytest.fixture()
def local_daemon(monkeypatch):
    """One in-process WorkerDaemon on an OS-assigned loopback port,
    served from a thread — the ``tcp://`` dial target of the tests."""
    monkeypatch.setattr(netengine, "HEARTBEAT_INTERVAL", 0.2)
    daemon = WorkerDaemon(port=0)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    yield daemon
    daemon.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# the wire protocol
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"key": (3, 1), "blob": np.arange(100.0)}
            sent, _ = send_frame(a, "result", payload)
            frame = recv_frame(b)
            assert frame is not None
            kind, data, received, _ = frame
            assert kind == "result"
            assert data["key"] == (3, 1)
            assert np.array_equal(data["blob"], payload["blob"])
            assert sent == received > 8
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # a valid header promising 1000 body bytes, then the peer dies
            import struct

            a.sendall(struct.pack("!4sI", b"RPRO", 1000) + b"x" * 10)
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_bad_magic_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP" + b"\x00" * 4)
            with pytest.raises(FrameError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_frame_rejected(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!4sI", b"RPRO", (1 << 30) + 1))
            with pytest.raises(FrameError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


    @pytest.mark.parametrize("frame", ["garbage", "no-pair"])
    def test_body_that_is_no_pair_raises(self, frame):
        a, b = socket.socketpair()
        try:
            a.sendall(HOSTILE_FRAMES[frame])
            with pytest.raises(FrameError, match="frame body"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestParseHosts:
    def test_bare_localhost_spawns_one(self):
        assert parse_hosts("localhost") == (HostSpec("127.0.0.1", spawn=1),)

    def test_localhost_with_count(self):
        (spec,) = parse_hosts("localhost:3")
        assert spec.spawn == 3 and spec.local

    def test_tcp_entry_dials(self):
        (spec,) = parse_hosts("tcp://node7:9123")
        assert spec == HostSpec("node7", port=9123)
        assert not spec.local

    def test_mixed_entries(self):
        specs = parse_hosts("localhost:2, tcp://10.0.0.7:9000")
        assert specs[0].spawn == 2
        assert specs[1].port == 9000

    @pytest.mark.parametrize(
        "bad",
        ["remotehost:2", "tcp://noport", "tcp://h:abc", "localhost:0",
         "localhost:x", ",,"],
    )
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            parse_hosts(bad)


# ----------------------------------------------------------------------
# the reactor's building blocks
# ----------------------------------------------------------------------
def _frame_bytes(kind, data):
    body = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("!4sI", b"RPRO", len(body)) + body


class TestFrameDecoder:
    def test_two_frames_in_one_feed(self):
        wire = _frame_bytes("heartbeat", {"pid": 1}) + _frame_bytes(
            "result", {"key": (2, 0)}
        )
        decoder = _FrameDecoder()
        frames = decoder.feed(wire)
        assert [f[0] for f in frames] == ["heartbeat", "result"]
        assert frames[1][1]["key"] == (2, 0)
        assert frames[0][2] == len(_frame_bytes("heartbeat", {"pid": 1}))
        assert not decoder.mid_frame

    def test_byte_by_byte_reassembly(self):
        wire = _frame_bytes("result", {"key": (3, 1), "blob": np.arange(50.0)})
        decoder = _FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i : i + 1]))
            if i < len(wire) - 1:
                assert decoder.mid_frame  # EOF here would truncate
        (frame,) = frames
        kind, data, nbytes, _ = frame
        assert kind == "result"
        assert np.array_equal(data["blob"], np.arange(50.0))
        assert nbytes == len(wire)
        assert not decoder.mid_frame

    def test_bad_magic_raises(self):
        decoder = _FrameDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(b"HTTP/1.1")

    def test_oversize_frame_rejected(self):
        decoder = _FrameDecoder()
        with pytest.raises(FrameError, match="cap"):
            decoder.feed(struct.pack("!4sI", b"RPRO", (1 << 30) + 1))

    @pytest.mark.parametrize("frame", ["garbage", "no-pair"])
    def test_body_that_is_no_pair_raises(self, frame):
        with pytest.raises(FrameError, match="frame body"):
            _FrameDecoder().feed(HOSTILE_FRAMES[frame])

    def test_describe_partial_names_the_break_point(self):
        decoder = _FrameDecoder()
        decoder.feed(struct.pack("!4sI", b"RPRO", 1000) + b"x" * 10)
        assert decoder.mid_frame
        assert "10/1000 body bytes" in decoder.describe_partial()


class TestTimerWheel:
    def test_fires_in_due_order_under_injected_clock(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        fired = []
        wheel.schedule(2.0, lambda: fired.append("late"))
        wheel.schedule(1.0, lambda: fired.append("early"))
        assert wheel.next_timeout() == pytest.approx(1.0)
        assert wheel.fire_due() == 0
        clock["t"] = 1.5
        assert wheel.fire_due() == 1
        assert fired == ["early"]
        clock["t"] = 2.5
        wheel.fire_due()
        assert fired == ["early", "late"]
        assert len(wheel) == 0
        assert wheel.next_timeout() is None

    def test_equal_deadlines_fire_in_schedule_order(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        fired = []
        for name in ("a", "b", "c"):
            wheel.schedule(1.0, lambda name=name: fired.append(name))
        clock["t"] = 1.0
        wheel.fire_due()
        assert fired == ["a", "b", "c"]


class TestReactorInvariants:
    def test_no_sleep_outside_worker_daemon(self):
        """No loop of the execution layer sleeps or owns a thread: the
        core, the pool driver and the socket engine — master reactor
        and daemon relay alike — contain no ``time.sleep`` and never
        mention ``threading``.  Each blocks in one wait on its
        descriptors, with its next deadline as the timeout."""
        import ast
        import inspect

        from repro.restructured import dispatch, netengine, parallel

        for module in (dispatch, parallel, netengine):
            imported, attributes = set(), set()
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
                    imported.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
                elif isinstance(node, ast.Attribute):
                    attributes.add(ast.unparse(node))
            assert not imported & {"threading", "time.sleep"}, module.__name__
            assert "time.sleep" not in attributes, module.__name__

    def test_one_way_onto_a_pool_worker(self):
        """``parallel.py`` hands work to a pool worker at exactly one
        call site — the ``channel.send`` in the pool driver's ``launch``
        — and the pool offers no batch method, so a fan-out path round
        the dispatch core cannot come back unnoticed."""
        import ast
        import inspect

        from repro.restructured import parallel
        from repro.restructured.pool import PersistentWorkerPool

        def hands_over(name):
            return name in ("send", "send_bytes", "submit", "apply") or (
                name.startswith(("map", "imap", "starmap"))
            )

        sites = []

        class Visitor(ast.NodeVisitor):
            def __init__(self):
                self.stack = []

            def visit_FunctionDef(self, node):
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            def visit_Call(self, node):
                f = node.func
                if isinstance(f, ast.Attribute) and hands_over(f.attr):
                    sites.append((tuple(self.stack), ast.unparse(f)))
                self.generic_visit(node)

        Visitor().visit(ast.parse(inspect.getsource(parallel)))
        assert sites == [(("_run_pool", "launch"), "job.worker.channel.send")]
        assert not [
            name
            for name in vars(PersistentWorkerPool)
            if name.startswith(("map", "imap", "starmap"))
        ]

    def test_one_kind_of_local_worker(self):
        """A local worker process is a task instance on a pipe and
        nothing else: no ``multiprocessing.Pool`` (nor its private
        attributes) anywhere in the execution layer, no late-bound
        holder in the dispatch core, no second pool engine, and the
        only functions ever forked into are the task instance's serve
        loop and the loopback daemon's.  And it holds one job, behind a
        port too: a daemon cannot be told otherwise, its module does
        not know the many-instance engine, and the core has no way to
        re-queue what else a replaced worker was computing."""
        import ast
        import dataclasses
        import inspect
        from pathlib import Path

        import repro
        import repro.restructured as package
        from repro.restructured import netengine
        from repro.restructured.dispatch import DispatchCore, Job

        src = Path(repro.__file__).parent
        attributes, targets = set(), set()
        for path in (*(src / "restructured").glob("*.py"),
                     *(src / "resilience").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                if (
                    path.parent.name == "restructured"
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "Process"
                ):
                    targets.update(
                        ast.unparse(kw.value)
                        for kw in node.keywords
                        if kw.arg == "target"
                    )
        assert not attributes & {"Pool", "_pool", "_cache", "apply_async"}
        assert targets == {"_task_instance_main", "_forked_daemon_main"}
        core_source = inspect.getsource(DispatchCore)
        for name in ("held_by", "holder_died", "dead_holders"):
            assert name not in core_source, name
        assert not {"holder", "handle"} & {
            f.name for f in dataclasses.fields(Job)
        }
        for name in ("ProcessPoolEngine", "respawn_pool", "child_heartbeat_queue"):
            assert not hasattr(package, name), name
        assert not hasattr(DispatchCore, "requeue_collateral")
        assert not {"capacity", "perpetual", "drain_timeout"} & set(
            inspect.signature(WorkerDaemon.__init__).parameters
        )
        daemon_source = inspect.getsource(netengine)
        for name in ("TaskInstanceEngine", "TaskInstanceDied"):
            assert name not in daemon_source, name

    def test_no_option_serves_a_deleted_layer(self):
        """``warm_pool`` is the one cold switch, a daemon's beat is the
        module's, a pool is acquired for a size, the combination is one
        function, nothing scores ``Pool.map``'s chunking, and a run's
        report is its result's own."""
        import inspect
        from importlib.util import find_spec

        from repro.sparsegrid import combination

        def parameters(function):
            return inspect.signature(function).parameters

        assert "operator_cache" not in parameters(run_multiprocessing)
        assert "heartbeat_interval" not in parameters(WorkerDaemon.__init__)
        assert (
            parameters(acquire_pool)["processes"].default is inspect.Parameter.empty
        )
        assert not [
            name for name, value in vars(combination).items()
            if inspect.isclass(value) and value.__module__ == combination.__name__
        ]
        assert find_spec("repro.perf.warmpath") is None

    def test_one_way_home_for_a_result(self):
        """A result array comes home pickled and nothing else: no module
        of ``repro.restructured`` imports the shared-memory arena, and
        no entry point of the run path takes a sink, a plane or a lease,
        so a second result transport cannot come back unnoticed."""
        import ast
        import inspect
        import pkgutil
        from importlib import import_module

        import repro.restructured as package
        from repro.restructured import run_multiprocessing
        from repro.restructured.dispatch import DispatchCore
        from repro.restructured.netengine import SocketTaskEngine

        importers = []
        for info in pkgutil.iter_modules(package.__path__):
            module = import_module(f"{package.__name__}.{info.name}")
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                if any(n.startswith("repro.perf.dataplane") for n in names):
                    importers.append(info.name)
        assert importers == []
        for entry in (
            run_multiprocessing, DispatchCore.__init__, SocketTaskEngine.run
        ):
            parameters = set(inspect.signature(entry).parameters)
            assert not parameters & {"sink", "data_plane", "lease"}, entry

    def test_the_grid_is_the_unit_of_work(self):
        """``subsolve(l, m)`` on the whole grid is the only way a stage
        system is solved: no entry point takes a split or a solver to
        inject, no record carries a strip counter, the trace has no
        kind for one and the two modules are gone, so an intra-grid
        path beside the bitwise one cannot come back unnoticed."""
        import dataclasses
        import inspect
        from importlib.util import find_spec

        from repro.perf.costmodel import CostRecord
        from repro.restructured import run_multiprocessing
        from repro.restructured.parallel import RunResult
        from repro.restructured.worker import SubsolveJobSpec, SubsolvePayload
        from repro.sparsegrid.rosenbrock import Ros2Integrator, StepStats
        from repro.sparsegrid.subsolve import subsolve
        from repro.trace.recorder import EVENT_KINDS

        for entry in (run_multiprocessing, subsolve, Ros2Integrator.__init__):
            parameters = set(inspect.signature(entry).parameters)
            assert not parameters & {
                "split", "split_k", "strip_executor", "solver"
            }, entry
        prefixes = (
            "split", "strip_", "halo_", "schur_", "interface_",
            "critical_strip_",
        )
        for record in (
            SubsolveJobSpec, SubsolvePayload, StepStats, CostRecord,
            RunResult,
        ):
            names = {f.name for f in dataclasses.fields(record)}
            names |= set(vars(record))
            assert not [n for n in names if n.startswith(prefixes)], record
        assert not set(EVENT_KINDS) & {
            "strip_factor", "halo_exchange", "schur_solve"
        }
        assert find_spec("repro.sparsegrid.decompose") is None
        assert find_spec("repro.restructured.strip_team") is None

    def test_no_subprocess_no_stdout_handshake(self):
        """Loopback daemons are forked behind a listener the master
        bound: the module execs nothing and parses no port off a pipe."""
        import ast
        import inspect

        from repro.restructured import netengine

        source = inspect.getsource(netengine)
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "subprocess" not in imported
        assert "LISTENING" not in source

    def test_the_socket_master_one_size_down(self):
        """A link is a state machine and ``run`` is a loop: the loop
        holds no closure, only ``move`` writes a link's state, nothing
        of the write queue or the six flags it replaced is named, the
        one write interest left is the revive's connect, and nothing a
        caller never set can be set."""
        import ast
        import inspect

        source = inspect.getsource(netengine)
        tree = ast.parse(source)
        (engine,) = (
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "SocketTaskEngine"
        )
        (run,) = (
            n for n in engine.body
            if isinstance(n, ast.FunctionDef) and n.name == "run"
        )
        assert not [
            n for n in ast.walk(run)
            if n is not run and isinstance(n, (ast.FunctionDef, ast.Lambda))
        ]
        assert run.end_lineno - run.lineno + 1 <= 80

        writers = set()

        class Visitor(ast.NodeVisitor):
            def __init__(self):
                self.stack = []

            def scoped(self, node):
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            visit_ClassDef = visit_FunctionDef = scoped

            def written(self, node):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute) and leaf.attr in (
                            "state", "generation"
                        ):
                            writers.add(tuple(self.stack))
                self.generic_visit(node)

            visit_Assign = visit_AugAssign = visit_AnnAssign = written

        Visitor().visit(tree)
        assert writers == {("_DaemonLink", "__init__"), ("_DaemonLink", "move")}

        assert source.count("EVENT_WRITE") == 1
        for name in (
            "_OutFrame", "sendq", "events_mask", "revive_token",
            ".epoch", ".alive", ".reviving",
        ):
            assert name not in source, name
        assert list(inspect.signature(SocketTaskEngine.__init__).parameters) == [
            "self", "hosts", "idle_exit"
        ]
        assert not {"retry", "deadline", "engine_options"} & set(
            inspect.signature(run_multiprocessing).parameters
        )

    def test_master_adds_no_threads(self, pickle_combined):
        """One selector over the links, zero reader threads; one over
        the pool's pipes, zero helper threads: a run on either engine
        leaves the master's thread count exactly where it found it."""
        samples = []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.005):
                samples.append(threading.active_count())

        before = threading.active_count()
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            results = [_run(engine=engine) for engine in ("pool", "socket")]
        finally:
            stop.set()
            sampler.join(timeout=5.0)
        for result in results:
            assert np.array_equal(result.combined, pickle_combined)
        assert samples
        assert max(samples) <= before + 1  # + the sampler itself


# ----------------------------------------------------------------------
# fault-free runs through the engines
# ----------------------------------------------------------------------
class TestSocketRun:
    def test_bitwise_identical_to_pool(self, pickle_combined):
        recorder = TraceRecorder()
        result = _run(engine="socket", hosts="localhost:2", trace=recorder)
        assert np.array_equal(result.combined, pickle_combined)
        assert result.engine == "socket"
        assert result.daemons == 2
        assert result.faults == 0
        assert result.net_bytes_sent > 0
        assert result.net_bytes_received > result.net_bytes_sent
        analysis = TraceAnalysis.from_recorder(recorder)
        assert (
            analysis.network_bytes
            == result.net_bytes_sent + result.net_bytes_received
        )
        assert analysis.n_reconnects == 0
        assert any("network:" in line for line in analysis.report_lines())

    def test_default_hosts_follow_processes(self):
        result = _run(engine="socket")
        assert result.daemons == 2
        assert result.hosts == "localhost:2"


class TestTaskEngineRun:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            _run(engine="mpi")

    def test_hosts_require_socket_engine(self):
        with pytest.raises(ValueError, match="hosts requires"):
            _run(hosts="localhost:2")


# ----------------------------------------------------------------------
# forked loopback daemons: isolation and lifecycle
# ----------------------------------------------------------------------
def _level_specs(level=LEVEL):
    return [
        SubsolveJobSpec(
            problem_name="rotating-cone", root=2, l=g.l, m=g.m, tol=TOL
        )
        for g in nested_loop_grids(2, level)
    ]


def _fd_targets(pid):
    """fd -> what it points at (``socket:[inode]``, ``pipe:[inode]``,
    a path), read off ``/proc``."""
    targets = {}
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            targets[int(name)] = os.readlink(f"/proc/{pid}/fd/{name}")
        except OSError:
            pass  # the listing's own descriptor
    return targets


@pytest.fixture()
def revived_engine(tmp_path):
    """Two forked links, one killed mid-job and revived, in a master
    that also holds a warm fork pool and an open trace file.  Yields
    ``(engine, outcome, specs, before)`` with the daemons still up;
    ``before`` is the master's descriptor table ahead of the engine."""
    acquire_pool(2)
    resource_tracker.ensure_running()
    specs = _level_specs()
    with open(tmp_path / "trace.jsonl", "w"):
        before = _fd_targets(os.getpid())
        with SocketTaskEngine("localhost:2") as engine:
            outcome = engine.run(
                specs,
                escalation=EscalationPolicy(),
                plan=FaultPlan.parse("crash@2,0"),
            )
            yield engine, outcome, specs, before


class TestForkedDaemons:
    def test_daemon_holds_nothing_of_its_masters(self, revived_engine):
        """Descriptor hygiene: a daemon keeps stdio, the shared resource
        tracker, its listener, its connection and its task-instance
        channel — not the pool's pipes, the trace file, the selector,
        or (the revived one was forked while it was open) the sibling
        link's socket."""
        engine, _, _, before = revived_engine
        tracker = before[resource_tracker.getfd()]
        shared = {before[0], before[1], before[2], tracker, "/dev/null"}
        master = _fd_targets(os.getpid())
        assert "anon_inode:[eventpoll]" in master.values()
        for link in engine.links:
            if link.pid is None:
                # revived, but the crashed job went to the other link at
                # once: wait for its hello, sent once it has shed what
                # it inherited and taken its connection
                assert wait_for_exit([link.sock], 10.0)
            held = set(_fd_targets(link.proc.pid).values())
            assert tracker in held
            assert not (held & set(before.values())) - shared
            assert "anon_inode:[eventpoll]" not in held
            for any_link in engine.links:
                assert master[any_link.sock.fileno()] not in held
            sockets = [t for t in held if t.startswith("socket:")]
            assert 2 <= len(sockets) <= 3  # listener, connection, channel

    def test_kill_mid_job_revives_by_fork(self, revived_engine):
        engine, outcome, specs, _ = revived_engine
        assert engine.reconnects == 1
        (event,) = outcome.report.events
        assert (event.kind, event.key) == ("crash", (2, 0))
        for spec in specs:
            assert np.array_equal(
                outcome.payloads[spec.l, spec.m].solution,
                execute_job(spec, use_cache=False).solution,
            )
        (revived,) = (l for l in engine.links if l.reconnects)
        assert isinstance(revived.proc, multiprocessing.process.BaseProcess)
        # a fork of this process, not an exec of anything
        with open(f"/proc/{revived.proc.pid}/cmdline", "rb") as theirs:
            with open("/proc/self/cmdline", "rb") as ours:
                assert theirs.read() == ours.read()

    def test_close_leaves_no_process_behind(self):
        """After ``close()`` the daemons *and* the task instances forked
        under them are gone — by construction, so the check polls
        nothing: every sentinel is already at EOF."""
        pids, sentinels = [], []
        engine = SocketTaskEngine("localhost:2")
        try:
            engine.run(_level_specs(), escalation=EscalationPolicy())
            for link in engine.links:
                pids += [link.proc.pid, *_children(link.proc.pid)]
                sentinels.append(os.dup(link.proc.sentinel))
            assert len(pids) > len(engine.links)  # some task instance
            engine.close()
            assert len(wait_for_exit(sentinels, timeout=0)) == len(sentinels)
            assert not [p for p in pids if os.path.exists(f"/proc/{p}")]
        finally:
            engine.close()
            for fd in sentinels:
                os.close(fd)

    def test_close_under_a_job_leaves_no_process_behind(self):
        """A stopped daemon does not drain the job in flight — its
        master reads no more of it — so ``close()`` is quick, and
        leaves neither the daemon nor its task instance."""
        spec = _level_specs()[0]
        engine = SocketTaskEngine("localhost:1")
        try:
            (link,) = engine.links
            link.sock.setblocking(True)
            send_frame(link.sock, "job", {
                "spec": spec,
                "plan": FaultPlan.parse(f"slow@{spec.l},{spec.m}:factor=2000"),
                "attempt": 1,
                "use_cache": True,
            })
            deadline = time.monotonic() + 10.0
            while not _children(link.proc.pid):
                assert time.monotonic() < deadline, "the job was not forwarded"
                time.sleep(0.01)
            pids = [link.proc.pid, *_children(link.proc.pid)]
            started = time.monotonic()
            engine.close()
            assert time.monotonic() - started < DRAIN_TIMEOUT / 2
            assert not [p for p in pids if os.path.exists(f"/proc/{p}")]
        finally:
            engine.close()

    def test_a_replaced_daemon_takes_its_task_instance_along(
        self, monkeypatch
    ):
        """A daemon killed over a deadline leaves no task instance
        computing under it: a wedged job would run on, reparented to
        init, for as long as it never ends."""
        seen = []
        reap = SocketTaskEngine._reap

        def watched(link):
            try:
                seen.extend(_children(link.proc.pid))
            except (AttributeError, OSError):
                pass  # no daemon, or one already collected
            reap(link)

        monkeypatch.setattr(SocketTaskEngine, "_reap", staticmethod(watched))
        escalation = EscalationPolicy(
            deadline=DeadlinePolicy(floor_seconds=0.3, default_seconds=0.3)
        )
        with SocketTaskEngine("localhost:2") as engine:
            engine.run(
                _level_specs(),
                escalation=escalation,
                plan=FaultPlan.parse("slow@0,2:factor=2000"),
            )
            assert seen, "no daemon was replaced under its task instance"
            assert not _wait_until_gone(seen, 2.0)

    def test_dialed_daemon_outlives_its_master(
        self, local_daemon, pickle_combined
    ):
        """``close()`` only disconnects a ``tcp://`` daemon: it is still
        there for the next engine."""
        hosts = f"tcp://127.0.0.1:{local_daemon.port}"
        for _ in range(2):
            result = _run(engine="socket", hosts=hosts)
            assert np.array_equal(result.combined, pickle_combined)
            assert result.reconnects == 0
            assert not local_daemon._stopping

    def test_daemon_is_one_thread(self):
        """A daemon is a relay on the thread that serves it — no
        heartbeat thread, no thread per job: ``Threads: 1`` in
        ``/proc/<pid>/status`` whenever looked at through a level-5
        run."""
        specs = _level_specs(5)
        samples = []
        stop = threading.Event()

        def sample(pids):
            while not stop.wait(0.005):
                for pid in pids:
                    with open(f"/proc/{pid}/status") as status:
                        fields = dict(
                            line.split(":", 1) for line in status.read().splitlines()
                        )
                    samples.append(int(fields["Threads"]))

        with SocketTaskEngine("localhost:2") as engine:
            sampler = threading.Thread(
                target=sample,
                args=([link.proc.pid for link in engine.links],),
                daemon=True,
            )
            sampler.start()
            try:
                outcome = engine.run(specs, escalation=EscalationPolicy())
            finally:
                stop.set()
                sampler.join(timeout=5.0)
        assert len(outcome.payloads) == len(specs)
        assert len(samples) > 10 and set(samples) == {1}

    def test_forked_daemon_starts_cold(self):
        """A fresh daemon's first job misses the operator cache even
        when its master had every operator cached at the fork."""
        specs = _level_specs()
        try:
            for spec in specs:
                execute_job(spec)
            assert all(execute_job(spec).operator_cache_hit for spec in specs)
            with SocketTaskEngine("localhost:2") as engine:
                outcome = engine.run(specs, escalation=EscalationPolicy())
        finally:
            reset_default_operator_cache()
        assert len(outcome.payloads) == len(specs)
        assert not any(
            p.operator_cache_hit for p in outcome.payloads.values()
        )


# ----------------------------------------------------------------------
# the warm fleet: daemons leased across runs
# ----------------------------------------------------------------------
class FakeClock:
    value = 0.0

    def __call__(self) -> float:
        return self.value


def _sequential(level):
    return SequentialApplication(
        root=2, level=level, tol=TOL, problem=make_problem("rotating-cone")
    ).run().combined


def _parked_pids():
    """The parked fleet's daemons and the task instances under them."""
    pids = []
    for link in pool_module._fleet.engine.links:
        pids += [link.proc.pid, *_children(link.proc.pid)]
    return pids


def _wait_until_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(_running(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [p for p in pids if _running(p)]


def _spawned_pids(recorder):
    return [
        (e.data["pid"], e.data.get("reused", False))
        for e in recorder.events()
        if e.kind == "worker_spawn"
    ]


class TestWarmFleet:
    @pytest.mark.parametrize("level", [LEVEL, 5])
    def test_second_run_reuses_the_daemons_bitwise(self, level):
        reference = _sequential(level)
        first_trace, second_trace = TraceRecorder(), TraceRecorder()
        first = _run(engine="socket", level=level, trace=first_trace)
        second = _run(engine="socket", level=level, trace=second_trace)
        assert np.array_equal(first.combined, reference)
        assert np.array_equal(second.combined, reference)
        assert not first.warm_pool and first.pool_cold_start_seconds > 0.0
        assert second.warm_pool and second.pool_cold_start_seconds == 0.0
        assert (second.faults, second.reconnects) == (0, 0)
        # the same two processes, named in each run's own trace
        spawned = _spawned_pids(first_trace)
        assert len(spawned) == 2 and not any(r for _, r in spawned)
        assert sorted(_spawned_pids(second_trace)) == sorted(
            (pid, True) for pid, _ in spawned
        )
        # and their caches came along
        assert second.operator_cache_hits > first.operator_cache_hits

    def test_a_runs_counters_are_its_own(self):
        runs = [_run(engine="socket") for _ in range(3)]
        assert [r.warm_pool for r in runs] == [False, True, True]

        def counters(r):
            return (r.net_bytes_sent, r.net_bytes_received, r.reconnects)

        assert counters(runs[0]) == counters(runs[2])
        assert runs[0].net_bytes_sent > 0
        assert pool_module.pool_diagnostics()["fleet_runs_served"] == 3

    def test_crash_discards_the_fleet(self, pickle_combined):
        faulted = _run(engine="socket", faults="crash@2,0")
        assert np.array_equal(faulted.combined, pickle_combined)
        assert (faulted.faults, faulted.recovered) == (1, 1)
        assert pool_module._fleet is None
        after = _run(engine="socket")
        assert not after.warm_pool
        assert (after.faults, after.reconnects) == (0, 0)
        assert np.array_equal(after.combined, pickle_combined)

    @pytest.mark.parametrize("index", [0, 1])
    def test_daemon_killed_while_parked_is_noticed_before_dispatch(
        self, index, pickle_combined
    ):
        _run(engine="socket")
        victim = pool_module._fleet.engine.links[index].proc.pid
        os.kill(victim, signal.SIGKILL)
        assert not _wait_until_gone([victim], 5.0)
        started = time.monotonic()
        after = _run(engine="socket")
        elapsed = time.monotonic() - started
        assert not after.warm_pool
        assert (after.faults, after.reconnects) == (0, 0)
        assert np.array_equal(after.combined, pickle_combined)
        # whichever daemon died, the surviving one was told to stop —
        # not sent a stop it never read and waited out
        assert elapsed < DRAIN_TIMEOUT / 2

    def test_shutdown_pool_leaves_no_process_behind(self):
        _run(engine="socket")
        links = pool_module._fleet.engine.links
        pids = _parked_pids()
        sentinels = [os.dup(link.proc.sentinel) for link in links]
        try:
            assert len(pids) > len(links)  # some task instance
            shutdown_pool()
            assert pool_module._fleet is None
            assert len(wait_for_exit(sentinels, timeout=0)) == len(sentinels)
            assert not [p for p in pids if os.path.exists(f"/proc/{p}")]
        finally:
            for fd in sentinels:
                os.close(fd)

    def test_interpreter_exit_with_a_live_fleet_leaves_nothing(self):
        script = (
            "from pathlib import Path\n"
            "from repro.restructured import pool, run_multiprocessing\n"
            "run_multiprocessing(root=2, level=2, tol=1e-3, processes=2,\n"
            "                    engine='socket')\n"
            "for link in pool._fleet.engine.links:\n"
            "    print(link.proc.pid)\n"
            "    for task in Path(f'/proc/{link.proc.pid}/task').iterdir():\n"
            "        try:\n"
            "            print((task / 'children').read_text())\n"
            "        except OSError:\n"
            "            pass  # a thread that ended under the listing\n"
        )
        done = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) > 2  # two daemons and some task instance
        assert not [p for p in pids if os.path.exists(f"/proc/{p}")]

    def test_abandoned_daemons_leave_on_their_own(
        self, monkeypatch, pickle_combined
    ):
        """Nobody is left behind: no master call after the run, and the
        daemons and their task instances are gone all the same."""
        monkeypatch.setattr(netengine, "FLEET_IDLE_EXIT", 0.2)
        _run(engine="socket")
        pids = _parked_pids()
        assert len(pids) > 2
        assert not _wait_until_gone(pids, 5.0)
        after = _run(engine="socket")
        assert not after.warm_pool
        assert (after.faults, after.reconnects) == (0, 0)
        assert np.array_equal(after.combined, pickle_combined)

    def test_only_fleet_daemons_are_told_to_leave(self):
        assert 0 < FLEET_IDLE_EXIT <= DRAIN_TIMEOUT
        with SocketTaskEngine("localhost:1") as private:
            assert private.idle_exit is None
        # what `repro worker-daemon` builds: it never idles out
        daemon = WorkerDaemon(port=0)
        daemon._listener.close()
        assert daemon.idle_exit is None
        lease = _FleetLease("localhost:1", shared=True)
        try:
            assert lease.engine.idle_exit == FLEET_IDLE_EXIT
        finally:
            lease.engine.close()

    def test_reuse_ends_at_half_the_idle_exit(self):
        """Rule 3 on an injected clock: a fleet released less than half
        the daemons' idle-exit ago is re-entered, one released longer
        ago is closed and rebuilt before anything is dispatched to it."""
        clock = FakeClock()
        specs = _level_specs()

        def leased_run():
            lease = _FleetLease("localhost:2", shared=True, clock=clock)
            try:
                lease.engine.run(specs, escalation=EscalationPolicy())
            finally:
                lease.release()
            return lease

        first = leased_run()
        assert not first.was_warm
        assert pool_module._fleet.released_at == clock.value
        clock.value += FLEET_IDLE_EXIT / 2 - 1e-3
        second = leased_run()
        assert second.was_warm and second.engine is first.engine
        assert second.cold_start_seconds == 0.0
        stale = second.engine
        sentinels = [os.dup(link.proc.sentinel) for link in stale.links]
        try:
            clock.value += FLEET_IDLE_EXIT / 2
            third = _FleetLease("localhost:2", shared=True, clock=clock)
            try:
                # the stale fleet was stopped inside the constructor,
                # without a job: the new daemons are other processes
                assert not third.was_warm and third.engine is not stale
                assert stale._closed
                assert len(wait_for_exit(sentinels, timeout=0)) == 2
                assert third.cold_start_seconds == third.engine.spawn_seconds
            finally:
                third.release()
        finally:
            for fd in sentinels:
                os.close(fd)
        assert pool_module._fleet.engine is third.engine

    @pytest.mark.parametrize("other", [{"hosts": "localhost:4"}])
    def test_another_key_closes_the_old_fleet_first(self, other):
        _run(engine="socket", hosts="localhost:2")
        old = pool_module._fleet
        pids = _parked_pids()
        result = _run(**{"engine": "socket", "hosts": "localhost:2", **other})
        assert not result.warm_pool
        assert old.engine._closed
        assert not [p for p in pids if os.path.exists(f"/proc/{p}")]
        assert pool_module._fleet.key != old.key
        assert pool_module._fleet.key == result.hosts

    def test_cold_runs_never_touch_the_slot(self, pickle_combined):
        cold = _run(engine="socket", warm_pool=False)
        assert not cold.warm_pool and cold.pool_cold_start_seconds > 0.0
        assert pool_module._fleet is None
        _run(engine="socket")
        parked = pool_module._fleet
        cold = _run(engine="socket", warm_pool=False)
        assert not cold.warm_pool and cold.pool_cold_start_seconds > 0.0
        assert np.array_equal(cold.combined, pickle_combined)
        assert pool_module._fleet is parked and parked.runs_served == 1
        assert _run(engine="socket").warm_pool

    def test_the_gap_between_runs_is_not_a_hang(self, monkeypatch, pickle_combined):
        """A link that was quiet for longer than ``HEARTBEAT_TIMEOUT``
        between two runs owes nothing: the watch armed by the second run
        first looks one timeout later."""
        monkeypatch.setattr(netengine, "HEARTBEAT_TIMEOUT", 0.3)
        monkeypatch.setattr(netengine, "HEARTBEAT_INTERVAL", 0.1)
        specs = _level_specs()
        with SocketTaskEngine("localhost:2") as engine:
            engine.run(specs, escalation=EscalationPolicy())
            time.sleep(0.5)
            outcome = engine.run(specs, escalation=EscalationPolicy())
            assert not outcome.report.events and engine.reconnects == 0
        for expect_warm in (False, True):
            result = _run(engine="socket")
            assert result.warm_pool is expect_warm
            assert (result.faults, result.reconnects) == (0, 0)
            assert np.array_equal(result.combined, pickle_combined)
            time.sleep(0.5)

    def test_fleet_diagnostics(self):
        assert pool_module.pool_diagnostics()["fleet_daemons"] == 0
        _run(engine="socket", hosts="localhost:2")
        diagnostics = pool_module.pool_diagnostics()
        assert diagnostics["fleet_hosts"] == "localhost:2"
        assert diagnostics["fleet_daemons"] == 2
        assert diagnostics["fleet_runs_served"] == 1
        assert 0.0 <= diagnostics["fleet_idle_s"] < FLEET_IDLE_EXIT
        shutdown_pool()
        assert pool_module.pool_diagnostics()["fleet_hosts"] == ""


# ----------------------------------------------------------------------
# the chaos suite
# ----------------------------------------------------------------------
class TestChaos:
    def test_daemon_kill_mid_job(self, pickle_combined):
        """A crash rule kills the whole daemon process unannounced; the
        master convicts via connection EOF, respawns, re-dispatches."""
        recorder = TraceRecorder()
        result = _run(
            engine="socket", faults="crash@2,0", trace=recorder
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 1
        assert result.recovered == 1
        assert result.reconnects == 1
        (event,) = result.fault_report.events
        assert event.kind == "crash"
        assert event.key == (2, 0)
        assert event.detected_by == "connection"
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.n_reconnects == 1
        reconnect = next(
            e for e in recorder.events() if e.kind == "reconnect"
        )
        assert reconnect.data["reason"] == "crash"

    def test_connection_drop_during_result_transfer(
        self, local_daemon, pickle_combined
    ):
        """The daemon truncates a result frame and hard-closes (RST):
        a mid-frame EOF, convicted as a crash, recovered on re-dial."""
        local_daemon._drop_result_keys.add((2, 0))
        recorder = TraceRecorder()
        result = _run(
            engine="socket",
            hosts=f"tcp://127.0.0.1:{local_daemon.port}",
            trace=recorder,
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults >= 1
        assert result.reconnects >= 1
        assert any(
            e.kind == "crash" and e.detected_by == "connection"
            for e in result.fault_report.events
        )
        assert (2, 0) in result.fault_report.recovered_keys
        assert not local_daemon._drop_result_keys

    def test_heartbeat_silence_past_deadline(self, monkeypatch, pickle_combined):
        """A daemon that stops talking while a job is in flight is a
        hang: detected by heartbeat timeout, replaced, re-dispatched."""
        # beats every 30s (never, at test scale) against a 1.2s timeout:
        # the only liveness signal left is result frames themselves
        monkeypatch.setattr(netengine, "HEARTBEAT_TIMEOUT", 1.2)
        monkeypatch.setattr(netengine, "HEARTBEAT_INTERVAL", 30.0)
        daemon = WorkerDaemon(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            recorder = TraceRecorder()
            result = _run(
                engine="socket",
                hosts=f"tcp://127.0.0.1:{daemon.port}",
                faults="hang@2,0:seconds=45",
                trace=recorder,
            )
            assert np.array_equal(result.combined, pickle_combined)
            assert result.faults == 1
            assert result.reconnects == 1
            (event,) = result.fault_report.events
            assert event.kind == "hang"
            assert event.detected_by == "heartbeat"
            assert event.seconds_lost >= 1.2
        finally:
            daemon.stop()
            thread.join(timeout=10.0)

    def test_fault_report_matches_trace(self, pickle_combined):
        """The FaultReport's counts and the trace's recovery overhead
        describe the same events."""
        recorder = TraceRecorder()
        result = _run(
            engine="socket", faults="crash@2,0;raise@1,1", trace=recorder
        )
        assert np.array_equal(result.combined, pickle_combined)
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.n_faults == result.faults == 2
        report = result.fault_report
        assert {e.key for e in report.events} == {(2, 0), (1, 1)}
        assert result.recovered == 2
        assert analysis.recovered_keys == set(report.recovered_keys)
        assert analysis.recovery_overhead_seconds > 0
        # one fault killed the daemon (reconnect), one did not
        assert analysis.n_reconnects == result.reconnects == 1


class TestRetryNoHeadOfLine:
    def test_backoff_on_one_link_does_not_stall_another(self, pickle_combined):
        """The head-of-line regression: a grid backing off after a fault
        must not freeze completion handling for healthy daemons.  The
        thread-per-link engine slept the full retry delay on its only
        dispatch thread; the reactor parks the grid and keeps serving
        every other link's frames, and the first link that comes free
        with nothing ready takes the grid without waiting out the
        1.5 s."""
        from repro.resilience import RetryPolicy

        recorder = TraceRecorder()
        result = _run(
            engine="socket",
            faults="raise@2,0",
            escalation=EscalationPolicy(retry=RetryPolicy(
                backoff_seconds=1.5, backoff_factor=1.0, jitter=0.0
            )),
            trace=recorder,
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 1
        events = recorder.events()
        fault = next(e for e in events if e.kind == "fault")
        retry = next(e for e in events if e.kind == "retry")
        waited = retry.data["backoff_seconds"]
        assert waited == pytest.approx(retry.t - fault.t, abs=2e-3)
        assert waited < 1.0  # taken by an idle link, not the timer...
        # ...once the healthy daemon's results had landed *during* it
        during = [
            e
            for e in events
            if e.kind == "net_recv"
            and e.data.get("frame_kind") == "result"
            and e.key != (2, 0)
            and fault.t < e.t < retry.t
        ]
        assert during, (
            "no result was processed during the backoff window: "
            "the retry stalled healthy links"
        )
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.retry_backoff_seconds == pytest.approx(waited)
        assert any("backoff" in line for line in analysis.report_lines())


class TestDaemonDrain:
    def test_stop_frame_drops_the_inflight_job(self, local_daemon):
        """A ``stop`` frame ends the relay at once: the master that sent
        it reads no more, so the job in flight is dropped, not drained —
        the connection closes with no result frame, long before the job
        could have finished."""
        sock = socket.create_connection(
            ("127.0.0.1", local_daemon.port), timeout=10.0
        )
        sock.settimeout(10.0)
        try:
            assert recv_frame(sock)[0] == "hello"
            spec = SubsolveJobSpec(
                problem_name="rotating-cone", root=2, l=2, m=0, tol=TOL
            )
            # the hang holds the job for 2 s before it computes: the
            # stop frame overtakes it
            plan = FaultPlan.parse("hang@2,0:seconds=2.0")
            send_frame(sock, "job", {
                "spec": spec, "plan": plan, "attempt": 1,
                "use_cache": True,
            })
            started = time.monotonic()
            send_frame(sock, "stop", {})
            kinds = []
            while (frame := recv_frame(sock)) is not None:
                kinds.append(frame[0])
            assert time.monotonic() - started < 1.0
        finally:
            sock.close()
        assert "result" not in kinds
        assert local_daemon.jobs_served == 0

    def test_stop_is_noticed_under_an_idle_master(self, monkeypatch):
        """``stop()`` ends a daemon whose master is connected and has
        nothing to say: the serving thread looks at its next heartbeat,
        it does not sit in a read until the master hangs up."""
        monkeypatch.setattr(netengine, "HEARTBEAT_INTERVAL", 0.2)
        daemon = WorkerDaemon(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=10.0)
        try:
            # the first heartbeat says the serve loop is under way
            assert [recv_frame(sock)[0] for _ in range(2)] == [
                "hello", "heartbeat"
            ]
            daemon.stop()
            thread.join(timeout=2 * daemon.heartbeat_interval)
            assert not thread.is_alive()
        finally:
            sock.close()
            thread.join(timeout=10.0)

    def test_a_drain_that_runs_out_forks_no_successor(self, monkeypatch):
        """A daemon leaving with a job still computing kills its worker
        and ends its pool; it forks no successor it would stop at once."""
        monkeypatch.setattr(netengine, "HEARTBEAT_INTERVAL", 0.2)
        daemon = WorkerDaemon(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        spec = _level_specs()[0]
        slow = FaultPlan.parse(f"slow@{spec.l},{spec.m}:factor=1000")
        sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=10.0)
        try:
            assert recv_frame(sock)[0] == "hello"
            send_frame(sock, "job", {
                "spec": spec, "plan": slow, "attempt": 1, "use_cache": True,
            })
            deadline = time.monotonic() + 10.0
            while daemon._worker is None:
                assert time.monotonic() < deadline, "the job was not forwarded"
            forked = list(daemon._worker_pool._workers)
            daemon.stop()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            sock.close()
        assert daemon._worker_pool.closed
        assert daemon._worker_pool._workers == forked
        assert not forked[0].process.is_alive()

    @staticmethod
    def _answers(sock, count):
        """The next ``count`` frames that are not heartbeats."""
        answers = []
        while len(answers) < count:
            frame = recv_frame(sock)
            assert frame is not None, "the daemon closed the connection"
            kind, data, _, _ = frame
            if kind != "heartbeat":
                answers.append((kind, data))
        return answers

    def test_second_job_while_busy_is_refused(self, local_daemon):
        """One job per worker: a ``job`` frame for a busy daemon is
        answered with an ``error`` frame at once — not queued, not
        computed beside the first — and the first job is untouched."""
        sock = socket.create_connection(
            ("127.0.0.1", local_daemon.port), timeout=10.0
        )
        try:
            assert recv_frame(sock)[0] == "hello"
            # the hold keeps the daemon busy until the second job is in
            plan = FaultPlan.parse("hang@2,0:seconds=0.3")
            specs = {(s.l, s.m): s for s in _level_specs()}
            first, second = specs[2, 0], specs[1, 1]
            for spec in (first, second):
                send_frame(sock, "job", {
                    "spec": spec, "plan": plan, "attempt": 1,
                    "use_cache": True,
                })
            (kind, refused), (done, result) = self._answers(sock, 2)
        finally:
            sock.close()
        assert (kind, tuple(refused["key"])) == ("error", (second.l, second.m))
        assert refused["attempt"] == 1 and "busy" in refused["error"]
        assert (done, tuple(result["key"])) == ("result", (first.l, first.m))

    @pytest.mark.parametrize("frame", sorted(HOSTILE_FRAMES))
    def test_hostile_frame_drops_the_sender(
        self, frame, local_daemon, pickle_combined
    ):
        """A body that does not decode, or a ``job`` without its fields,
        is a broken stream: the daemon hangs up on whoever sent it and
        is back in ``accept`` for the next master."""
        assert daemon_hangs_up_on(local_daemon.port, HOSTILE_FRAMES[frame])
        result = _run(engine="socket", hosts=f"tcp://127.0.0.1:{local_daemon.port}")
        assert np.array_equal(result.combined, pickle_combined)
        assert (result.faults, result.reconnects) == (0, 0)

    def test_dead_task_instance_is_reported_and_replaced(self, local_daemon):
        """The instance's pipe at EOF is a ``death_worker`` fault on the
        job it was sent, and the next job finds a fresh instance."""
        spec = _level_specs()[0]
        job = {"spec": spec, "plan": None, "attempt": 1, "use_cache": True}
        sock = socket.create_connection(
            ("127.0.0.1", local_daemon.port), timeout=10.0
        )
        try:
            assert recv_frame(sock)[0] == "hello"
            send_frame(sock, "job", job)
            assert self._answers(sock, 1)[0][0] == "result"
            instances = local_daemon._worker_pool
            (victim,) = instances.worker_pids()
            taken = instances.jobs_dispatched
            # slowed, so the kill lands under the job, not before it is
            # forwarded: a worker dead while idle is no fault
            slow = FaultPlan.parse(f"slow@{spec.l},{spec.m}:factor=1000")
            send_frame(sock, "job", {**job, "plan": slow, "attempt": 2})
            deadline = time.monotonic() + 10.0
            while instances.jobs_dispatched == taken:
                assert time.monotonic() < deadline, "the job was not forwarded"
            os.kill(victim, signal.SIGKILL)
            ((kind, lost),) = self._answers(sock, 1)
            assert kind == "error" and lost["fault_kind"] == "death_worker"
            assert (tuple(lost["key"]), lost["attempt"]) == ((spec.l, spec.m), 2)
            send_frame(sock, "job", {**job, "attempt": 3})
            ((kind, result),) = self._answers(sock, 1)
            assert kind == "result" and result["attempt"] == 3
            assert victim not in instances.worker_pids()
        finally:
            sock.close()


@pytest.mark.slow
class TestManyLinks:
    def test_32_daemons_one_dispatch_thread(self, pickle_combined):
        """The service-scale claim: one master holds 32 concurrent
        daemon links through one selector — thread count stays O(1),
        results stay bitwise identical."""
        samples = []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.05):
                samples.append(threading.active_count())

        before = threading.active_count()
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            result = _run(engine="socket", hosts="localhost:32")
        finally:
            stop.set()
            sampler.join(timeout=5.0)
        assert result.daemons == 32
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 0
        assert samples
        assert max(samples) <= before + 1  # + the sampler itself


# ----------------------------------------------------------------------
# the validation harness
# ----------------------------------------------------------------------
class TestValidationHarness:
    def test_predicted_and_measured_side_by_side(self):
        from repro.cluster.validation import validate_socket_engine

        report = validate_socket_engine(level=LEVEL, processes=2)
        assert report.bitwise_identical
        assert report.n_grids == 5
        assert report.measured["work_critical"] > 0
        assert report.predicted["work_critical"] > 0
        assert report.measured["startup"] == report.predicted["startup"]
        assert report.network_bytes > 0
        lines = report.lines()
        assert any("bitwise identical to sequential: True" in l for l in lines)
        assert any(l.startswith("work_critical") for l in lines)
        assert any(l.startswith("elapsed") for l in lines)
