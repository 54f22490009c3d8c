"""The socket master's link machine, deterministically: hand-made links
over scripted sockets, the wheel on a fake clock, a real dispatch core.

Every test here runs under ``test_dispatch_core``'s ``no_substrate``
fixture — ``socket.socket`` and ``os.fork`` raise, ``time.sleep`` is
forbidden — on a :class:`SocketTaskEngine` built with no hosts.  A link's
socket is a :class:`FakeSocket` (what the daemon "sent" is what a test
put in its inbox), the selector a :class:`FakeSelector` that records who
is registered for what, and the revive's two effects — fork a daemon,
start a connect — are the only engine methods a test substitutes.  Time
passes only when a test moves the clock.
"""

from __future__ import annotations

import errno
import selectors
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifold.timers import TimerWheel
from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    FaultToleranceExhausted,
    RetryPolicy,
)
from repro.restructured import netengine
from repro.restructured.dispatch import (
    _DEADLINE_GRACE,
    DispatchCore,
    Driver,
    JobState,
)
from repro.restructured.netengine import (
    CONNECT_TIMEOUT,
    HEARTBEAT_TIMEOUT,
    MAX_RECONNECTS,
    RECONNECT_BACKOFF,
    SocketTaskEngine,
    _DaemonLink,
    _FrameDecoder,
    _pack_frame,
    arm_heartbeat_deadline,
)
from repro.trace import TraceRecorder
from tests.conftest import HOSTILE_FRAMES
from tests.restructured.test_dispatch_core import (  # noqa: F401 - autouse fixture
    FakeClock,
    no_substrate,
    payload_for,
    spec_for,
)

#: written out here, not imported: the machine's whole legal behaviour
MOVES = {
    ("down", "adopt"): "up",
    ("up", "drop"): "down",
    ("down", "revive"): "reviving",
    ("reviving", "revive"): "reviving",
    ("reviving", "adopt"): "up",
    ("reviving", "give_up"): "down",
}
STATES = ("down", "reviving", "up")
EVENTS = ("adopt", "drop", "revive", "give_up")
RETRY_BACKOFF = 1.0


class FakeSocket:
    """One end of a link, as the engine's calls see it."""

    def __init__(self, connecting: bool = False) -> None:
        self.connecting = connecting
        self.connect_error = 0
        self.inbox = bytearray()
        self.eof = False
        self.reset = False
        self.closed = False
        #: what ``send`` answers: ``None`` takes the frame whole, an int
        #: is the short count, an exception is raised
        self.send_answer = None
        self.said_hello = False
        #: ``(spec, attempt)`` of the job frames sent and not answered
        self.jobs: list = []
        self.answered: list = []
        self._sent = _FrameDecoder()

    # -- what the engine calls ---------------------------------------------
    def setblocking(self, flag) -> None:
        pass

    def settimeout(self, seconds) -> None:
        pass

    def getsockopt(self, level, option) -> int:
        return self.connect_error

    def send(self, frame: bytes) -> int:
        assert not self.closed and not self.connecting
        if isinstance(self.send_answer, BaseException):
            raise self.send_answer
        if self.send_answer is not None:
            return self.send_answer
        for kind, data, _, _ in self._sent.feed(frame):
            assert kind == "job"
            self.jobs.append((data["spec"], data["attempt"]))
        return len(frame)

    def recv(self, size: int) -> bytes:
        assert not self.closed
        if self.reset:
            raise ConnectionResetError(errno.ECONNRESET, "reset by peer")
        if self.inbox:
            data, self.inbox = bytes(self.inbox), bytearray()
            return data
        if self.eof:
            return b""
        raise BlockingIOError(errno.EAGAIN, "nothing to read")

    def shutdown(self, how) -> None:
        if self.connecting:
            raise OSError(errno.ENOTCONN, "not connected")

    def close(self) -> None:
        self.closed = True

    # -- what the daemon at the other end does ------------------------------
    def say(self, kind: str, data: dict) -> None:
        self.inbox += _pack_frame(kind, data)

    def hello(self, pid: int = 4242) -> None:
        self.said_hello = True
        self.say("hello", {"pid": pid})

    def answer(self, kind: str = "result") -> None:
        spec, attempt = job = self.jobs.pop(0)
        self.answered.append(job)
        body = {"key": (spec.l, spec.m), "attempt": attempt}
        if kind == "result":
            body["payload"] = payload_for(spec)
        else:
            body.update(fault_kind="exception", error="scripted")
        self.say(kind, body)


class FakeSelector:
    """Who is registered for what; ``select`` is the test's script."""

    def __init__(self) -> None:
        self.registered: dict = {}
        self.write_interest: list = []
        self.script = None

    def register(self, fileobj, events, data) -> None:
        assert fileobj not in self.registered
        self.registered[fileobj] = (events, data)
        if events & selectors.EVENT_WRITE:
            self.write_interest.append(fileobj)

    def unregister(self, fileobj) -> None:
        del self.registered[fileobj]

    def select(self, timeout):
        ready = self.script(timeout)
        return [
            (selectors.SelectorKey(sock, -1, *self.registered[sock]), 0)
            for sock in ready
            if sock in self.registered
        ]

    def close(self) -> None:
        pass


class Rig:
    """An engine over ``links`` hand-made links, every one connected and
    past its ``hello``, and — for the tests that do not go through
    ``run`` — a core built the way ``run`` builds it."""

    def __init__(self, links: int = 2) -> None:
        self.clock = FakeClock()
        self.trace = TraceRecorder(clock=self.clock)
        self.engine = SocketTaskEngine(hosts=())
        self.engine._selector.close()
        self.selector = self.engine._selector = FakeSelector()
        self.engine._clock = self.clock
        # the revive's two effects
        self.forks: list = []
        self.dials: list = []
        #: connects that may start; a later one is refused at once
        self.dial_limit = 10_000
        self.engine._spawn = lambda link: self.forks.append(link.name)
        self.engine._dial = self._dial
        self.escalation = EscalationPolicy(
            retry=RetryPolicy(
                backoff_seconds=RETRY_BACKOFF, backoff_factor=1.0, jitter=0.0
            ),
            deadline=DeadlinePolicy(default_seconds=1000.0),
        )
        for index in range(links):
            link = _DaemonLink(
                f"daemon-{index}", spawned=True, address=("127.0.0.1", 9000 + index)
            )
            self.engine.links.append(link)
            self.engine._adopt(link, FakeSocket())
            link.pid, link.sock.said_hello = 1000 + index, True

    def _dial(self, address) -> FakeSocket:
        if len(self.dials) >= self.dial_limit:
            raise ConnectionRefusedError(errno.ECONNREFUSED, "refused")
        self.dials.append(FakeSocket(connecting=True))
        return self.dials[-1]

    @property
    def links(self):
        return self.engine.links

    def begin(self, keys) -> DispatchCore:
        engine = self.engine
        engine._core = self.core = DispatchCore(
            [spec_for(key) for key in keys],
            Driver(engine._place, engine._launch, engine._retire),
            escalation=self.escalation,
            timers=TimerWheel(self.clock),
            trace=self.trace,
        )
        for link in self.links:
            engine._watch(link)
        self.core.dispatch_ready()
        return self.core

    def run(self, keys):
        return self.engine.run(
            [spec_for(key) for key in keys],
            escalation=self.escalation,
            trace=self.trace,
        )

    # -- the script's verbs ------------------------------------------------
    def advance(self, seconds: float) -> None:
        self.advance_to(self.clock.value + seconds)

    def advance_to(self, when: float) -> None:
        self.clock.value = when
        self.core.timers.fire_due()
        self.core.dispatch_ready()

    def deliver(self, link) -> None:
        """The link's socket is readable."""
        self.engine._read(link)
        self.core.dispatch_ready()

    def connect(self, link, error: int = 0) -> None:
        """The link's pending connect completed, one way or the other."""
        link.sock.connect_error = error
        link.sock.connecting = bool(error)
        self.engine._connect_done(link)
        self.core.dispatch_ready()

    def faults(self):
        return [(e.key, e.kind, e.detected_by) for e in self.core.log.events()]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def _link_in(state: str) -> _DaemonLink:
    link = _DaemonLink("d0", spawned=True)
    if state != "down":
        link.move({"up": "adopt", "reviving": "revive"}[state])
    assert link.state == state
    return link


class TestMoves:
    def test_the_declared_table_is_the_one_written_here(self):
        assert netengine._LINK_MOVES == MOVES

    @pytest.mark.parametrize("event", EVENTS + ("bogus",))
    @pytest.mark.parametrize("state", STATES)
    def test_moves_outside_the_table_raise(self, state, event):
        link = _link_in(state)
        generation = link.generation
        if (state, event) in MOVES:
            link.move(event)
            assert link.state == MOVES[state, event]
            assert link.generation == generation + 1
        else:
            with pytest.raises(RuntimeError, match=event):
                link.move(event)
            assert (link.state, link.generation) == (state, generation)

    def test_a_fresh_link_is_down_and_holds_nothing(self):
        link = _DaemonLink("d0", spawned=False, address=("node7", 9123))
        assert (link.state, link.generation) == ("down", 0)
        assert link.sock is link.proc is link.pid is link.job is None


# ----------------------------------------------------------------------
# the heartbeat watch (moved from test_netengine.py)
# ----------------------------------------------------------------------
class TestHeartbeatDeadline:
    """Satellite of the reactor rewrite: heartbeat-silence detection is
    now a timer on the wheel reading ``link.last_frame`` from the same
    thread that writes it — assert its conviction logic with an
    injected clock, no sockets and no wall time involved."""

    def _link(self, clock):
        link = _DaemonLink("d0", spawned=True)
        link.move("adopt")
        link.last_frame = clock["t"]
        return link

    def test_convicts_silent_link_with_jobs_in_flight(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.job = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        clock["t"] = 1.0 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == [link]

    def test_frames_postpone_the_deadline(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.job = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        # a heartbeat lands just before the deadline: the watch re-arms
        # at last_frame + timeout instead of convicting
        clock["t"] = 0.9
        link.last_frame = 0.9
        clock["t"] = 1.0 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == []
        clock["t"] = 1.9 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == [link]

    def test_idle_silence_is_not_a_hang(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)  # nothing in flight: owes no result
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        clock["t"] = 10.0
        wheel.fire_due()
        assert convicted == []
        assert len(wheel) == 1  # still watching, re-armed

    def test_stale_epoch_watch_is_void(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.job = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        link.move("drop")  # the connection was replaced: old watch is void
        clock["t"] = 5.0
        wheel.fire_due()
        assert convicted == []
        assert len(wheel) == 0  # and it does not re-arm


# ----------------------------------------------------------------------
# losing a link
# ----------------------------------------------------------------------
class TestLoss:
    KEYS = ((2, 0), (1, 1), (0, 2))

    def test_faults_exactly_the_job_the_link_held(self):
        rig = Rig(links=2)
        core = rig.begin(self.KEYS)
        first, second = rig.links
        assert (first.job.key, second.job.key) == ((2, 0), (1, 1))
        first.sock.eof = True
        rig.deliver(first)
        assert rig.faults() == [((2, 0), "crash", "connection")]
        assert (first.state, first.job, first.sock) == ("reviving", None, None)
        # the other link's job is untouched, and nothing new went to it
        assert core.pending[(1, 1)].worker is second
        assert second.job is core.pending[(1, 1)]
        # the lost job is back at the head of the queue, no timer on it
        assert core.state[(2, 0)] is JobState.READY
        assert core.ready[0] == (spec_for((2, 0)), 2)
        assert core.state[(0, 2)] is JobState.READY

    def test_an_idle_link_lost_faults_nothing(self):
        rig = Rig(links=2)
        core = rig.begin(((2, 0),))
        idle = rig.links[1]
        assert idle.job is None
        idle.sock.eof = True
        rig.deliver(idle)
        assert rig.faults() == []
        assert idle.state == "reviving" and rig.engine.reconnects == 1
        assert core.pending[(2, 0)].worker is rig.links[0]

    def test_a_garbled_stream_and_a_reset_are_losses_too(self):
        rig = Rig(links=2)
        rig.begin(self.KEYS)
        first, second = rig.links
        first.sock.inbox += b"HTTP/1.1 200 OK\r\n"
        rig.deliver(first)
        second.sock.reset = True
        rig.deliver(second)
        assert rig.faults() == [
            ((2, 0), "crash", "connection"),
            ((1, 1), "crash", "connection"),
        ]
        assert "bad frame magic" in rig.core.log.events()[0].error
        assert [link.state for link in rig.links] == ["reviving", "reviving"]

    def test_silence_with_a_job_in_flight_is_a_hang(self):
        rig = Rig(links=2)
        rig.begin(((2, 0),))
        busy, idle = rig.links
        rig.advance(HEARTBEAT_TIMEOUT)
        assert rig.faults() == []  # not before the grace
        rig.advance(2 * _DEADLINE_GRACE)
        assert rig.faults() == [((2, 0), "hang", "heartbeat")]
        assert (busy.state, idle.state) == ("reviving", "up")

    def test_a_wedged_job_costs_the_daemon_under_it(self):
        rig = Rig(links=1)
        rig.escalation = EscalationPolicy(
            retry=rig.escalation.retry, deadline=DeadlinePolicy(default_seconds=2.0)
        )
        rig.begin(((2, 0),))
        (link,) = rig.links
        sock = link.sock
        for _ in range(4):  # heartbeats keep coming: only the job is stuck
            rig.advance(0.5)
            sock.say("heartbeat", {"pid": link.pid})
            rig.deliver(link)
        assert rig.faults() == []
        rig.advance(2 * _DEADLINE_GRACE)
        assert rig.faults() == [((2, 0), "deadline", "deadline")]
        assert link.state == "reviving" and link.revive_reason == "deadline"
        assert sock.closed and sock not in rig.selector.registered


# ----------------------------------------------------------------------
# the send side: one send, or the link is lost
# ----------------------------------------------------------------------
class TestOneSendOrLost:
    @pytest.mark.parametrize(
        "answer",
        [
            100,
            0,
            BrokenPipeError(errno.EPIPE, "broken pipe"),
            BlockingIOError(errno.EAGAIN, "send buffer full"),
        ],
        ids=["short", "nothing", "oserror", "would-block"],
    )
    def test_unsent_frame_loses_link(self, answer):
        rig = Rig(links=2)
        bad, good = rig.links
        bad_sock = bad.sock
        bad_sock.send_answer = answer
        core = rig.begin(((2, 0), (1, 1)))
        # (2, 0) went to the first link, whose send failed: convicted at
        # once, the link lost, and nothing queued or waited for
        assert rig.faults() == [((2, 0), "crash", "connection")]
        assert (bad.state, bad.job) == ("reviving", None)
        assert bad_sock.closed and bad_sock not in rig.selector.registered
        assert rig.selector.write_interest == []
        # re-queued at its head, the job takes the other link at once,
        # one attempt later, and (1, 1) waits for it
        assert good.job is core.pending[(2, 0)] and good.job.attempt == 2
        good.sock.answer()
        rig.deliver(good)
        assert good.job.key == (1, 1)
        good.sock.answer()
        rig.deliver(good)
        assert core.done
        assert core.outcome().report.recovered_keys == ((2, 0),)
        assert rig.faults() == [((2, 0), "crash", "connection")]
        submits = [
            (e.key, e.attempt, e.worker)
            for e in rig.trace.events()
            if e.kind == "job_submit"
        ]
        assert submits == [
            ((2, 0), 1, "daemon-0"),
            ((2, 0), 2, "daemon-1"),
            ((1, 1), 1, "daemon-1"),
        ]
        # the only socket ever watched for writability is a revive's connect
        assert rig.selector.write_interest == rig.dials

    def test_a_whole_send_is_accounted_and_traced(self):
        rig = Rig(links=1)
        rig.begin(((2, 0),))
        (sent,) = (e for e in rig.trace.events() if e.kind == "net_send")
        assert sent.data["frame_kind"] == "job"
        assert sent.data["frame_bytes"] == rig.engine.bytes_sent > 0
        assert rig.links[0].sock.jobs == [(spec_for((2, 0)), 1)]


# ----------------------------------------------------------------------
# getting a link back
# ----------------------------------------------------------------------
class TestRevive:
    def _lost(self, rig):
        (link,) = rig.links
        link.sock.eof = True
        rig.deliver(link)
        return link

    def test_kth_revive_fires_backoff_doubled_after_the_loss(self):
        rig = Rig(links=1)
        rig.dial_limit = 0
        rig.begin(((2, 0),))
        link = self._lost(rig)
        for k in range(1, MAX_RECONNECTS + 1):
            assert (link.state, link.reconnects) == ("reviving", k)
            due = rig.clock.value + RECONNECT_BACKOFF * 2 ** (k - 1)
            rig.advance_to(due - 1e-6)
            assert len(rig.forks) == k - 1  # not a tick early
            rig.advance_to(due)
            assert len(rig.forks) == k  # forked, dialed, refused: armed again
        # the budget is spent: down for good, and once the timers that
        # were on the wheel have come due (void) nothing is armed for it
        assert (link.state, link.reconnects) == ("down", MAX_RECONNECTS)
        assert rig.engine.reconnects == MAX_RECONNECTS
        rig.advance(10_000.0)
        assert len(rig.core.timers) == 0
        assert len(rig.forks) == MAX_RECONNECTS and link.state == "down"

    def test_the_budget_is_the_links_not_the_outages(self):
        rig = Rig(links=1)
        rig.begin(((2, 0),))
        (link,) = rig.links
        for k in range(1, MAX_RECONNECTS + 1):
            self._lost(rig)
            rig.advance(RECONNECT_BACKOFF * 2 ** (k - 1))
            rig.connect(link)
            assert (link.state, link.reconnects) == ("up", k)
            assert link.pid is None  # no job before this connection's hello
        generation = link.generation
        self._lost(rig)  # loss MAX_RECONNECTS + 1
        assert (link.state, link.sock) == ("down", None)
        assert link.generation == generation + 1  # dropped; nothing else moved
        rig.advance(10_000.0)
        assert len(rig.core.timers) == 0 and link.state == "down"
        reconnects = [e for e in rig.trace.events() if e.kind == "reconnect"]
        assert [e.attempt for e in reconnects] == list(
            range(1, MAX_RECONNECTS + 1)
        )
        assert {e.data["reason"] for e in reconnects} == {"crash"}

    def test_a_connect_that_never_completes_is_abandoned_and_retried(self):
        rig = Rig(links=1)
        rig.begin(((2, 0),))
        link = self._lost(rig)
        rig.advance(RECONNECT_BACKOFF)
        (pending,) = rig.dials
        assert link.sock is pending
        assert rig.selector.registered[pending] == (selectors.EVENT_WRITE, link)
        due = rig.clock.value + CONNECT_TIMEOUT
        rig.advance_to(due - 1e-6)
        assert link.sock is pending and not pending.closed
        rig.advance_to(due)
        assert pending.closed and pending not in rig.selector.registered
        assert (link.state, link.sock, link.reconnects) == ("reviving", None, 2)
        rig.advance(2 * RECONNECT_BACKOFF)
        assert len(rig.dials) == 2 and link.sock is rig.dials[1]
        rig.connect(link)
        assert link.state == "up"
        assert rig.selector.registered[link.sock] == (selectors.EVENT_READ, link)

    def test_a_refused_connect_is_retried_too(self):
        rig = Rig(links=1)
        rig.begin(((2, 0),))
        link = self._lost(rig)
        rig.advance(RECONNECT_BACKOFF)
        refused = link.sock
        rig.connect(link, error=errno.ECONNREFUSED)
        assert refused.closed and refused not in rig.selector.registered
        assert (link.state, link.sock, link.reconnects) == ("reviving", None, 2)

    def test_timers_of_an_older_generation_do_nothing(self):
        rig = Rig(links=2)
        rig.begin(((2, 0), (1, 1)))
        first, second = rig.links
        # a revive timer, voided by the engine letting go of the link
        first.sock.eof = True
        rig.deliver(first)
        rig.engine._disconnect(first)
        assert first.state == "down"
        rig.advance(RECONNECT_BACKOFF)
        assert rig.forks == [] and rig.dials == []
        # a connect timeout, voided by the connect completing
        second.sock.eof = True
        rig.deliver(second)
        rig.advance(RECONNECT_BACKOFF)
        rig.connect(second)
        revived = second.sock
        rig.advance(CONNECT_TIMEOUT)
        assert second.state == "up" and second.sock is revived
        assert not revived.closed

    def test_a_heartbeat_watch_does_not_outlive_its_connection(self):
        rig = Rig(links=1)
        rig.begin(((2, 0),))
        link = self._lost(rig)
        rig.advance(RECONNECT_BACKOFF)
        rig.connect(link)
        # on the wheel now: the first connection's watch and the second's
        due = 0.0 + (HEARTBEAT_TIMEOUT + _DEADLINE_GRACE)
        rig.advance_to(due - 1e-6)
        before = len(rig.core.timers)
        rig.advance_to(due)  # the old watch comes due: void, not re-armed
        assert len(rig.core.timers) == before - 1
        assert link.state == "up"


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class Daemons:
    """A ``select`` script: applies the steps it was given, one per
    call, then behaves — every connect completes, every daemon says
    hello and answers its job — until the run is over."""

    def __init__(self, rig: Rig, steps=(), check=None) -> None:
        self.rig = rig
        self.steps = list(steps)
        self.check = check
        self.calls = 0

    def __call__(self, timeout):
        self.calls += 1
        assert self.calls < 5_000, "the run does not end"
        if self.check is not None:
            self.check()
        socks = [link.sock for link in self.rig.links]
        if self.steps:
            action, index, seconds = self.steps.pop(0)
            return self.apply(action, socks[index % len(socks)], timeout, seconds)
        ready = []
        for sock in socks:
            if sock is None:
                continue
            if sock.connecting:
                sock.connecting = False
            elif not sock.said_hello:
                sock.hello()
            elif sock.jobs:
                sock.answer()
            else:
                continue
            ready.append(sock)
        if not ready:
            self.rig.clock.value += timeout
        return ready

    def apply(self, action, sock, timeout, seconds):
        if action == "advance":
            self.rig.clock.value += min(seconds, timeout)
        elif action == "silence":
            self.rig.clock.value += timeout
        if sock is None or action in ("advance", "silence"):
            return []
        if sock.connecting:
            if action == "connect-ok":
                sock.connecting = False
            elif action == "connect-fail":
                sock.connect_error = errno.ECONNREFUSED
            else:
                return []
        elif action == "hello":
            sock.hello()
        elif action in ("result", "error") and sock.jobs:
            sock.answer(action)
        elif action == "late" and sock.answered:
            sock.jobs.insert(0, sock.answered.pop())
            sock.answer()
        elif action == "heartbeat":
            sock.say("heartbeat", {"pid": 1})
        elif action == "eof":
            sock.eof = True
        elif action == "garbage":
            sock.inbox += HOSTILE_FRAMES["garbage"]
        else:
            return []
        return [sock]


class TestRun:
    KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1))

    def test_a_quiet_run_leaves_the_engine_reusable(self):
        rig = Rig(links=2)
        rig.selector.script = Daemons(rig)
        outcome = rig.run(self.KEYS)
        assert sorted(outcome.completion_order) == sorted(self.KEYS)
        assert outcome.attempts == len(self.KEYS) and not outcome.report.events
        assert rig.engine.reusable and rig.engine.park()
        assert [link.state for link in rig.links] == ["down", "down"]
        assert rig.selector.registered == {}

    def test_a_run_waits_for_its_revives(self):
        rig = Rig(links=2)
        rig.selector.script = Daemons(rig, [("eof", 0, 0.0)])
        outcome = rig.run(self.KEYS)
        assert len(outcome.report.events) == 1
        assert outcome.report.recovered_keys == ((2, 0),)
        assert [link.state for link in rig.links] == ["up", "up"]
        assert rig.engine.reconnects == 1
        assert not rig.engine.reusable and not rig.engine.park()

    @pytest.mark.parametrize("frame", ["garbage", "no-pair"])
    def test_undecodable_body_convicts_its_link(self, frame):
        """A frame whose body is not a pickled ``(kind, data)`` pair is
        a broken stream: that link is lost, its job re-dispatched, and
        the run returns — it does not end on an ``UnpicklingError``."""
        rig = Rig(links=2)
        rig.dial_limit = 0  # the garbled link never comes back
        behave = Daemons(rig)
        garbled = rig.links[0].sock

        def script(timeout):
            if garbled.closed:
                return behave(timeout)
            garbled.inbox += HOSTILE_FRAMES[frame]
            return [garbled]

        rig.selector.script = script
        outcome = rig.run(self.KEYS)
        assert [(e.key, e.kind, e.detected_by) for e in outcome.report.events] == [
            ((2, 0), "crash", "connection")
        ]
        assert "frame body" in outcome.report.events[0].error
        assert sorted(outcome.completion_order) == sorted(self.KEYS)
        assert outcome.report.recovered_keys == ((2, 0),)
        resubmitted = [
            e.worker for e in rig.trace.events()
            if e.kind == "job_submit" and e.key == (2, 0)
        ]
        assert resubmitted == ["daemon-0", "daemon-1"]
        assert [link.state for link in rig.links] == ["down", "up"]

    def test_a_descriptor_dropped_earlier_in_its_batch_is_skipped(self):
        rig = Rig(links=2)
        first, second = rig.links
        behave = Daemons(rig)
        stale = second.sock

        def script(timeout):
            if stale.inbox or stale.closed:
                return behave(timeout)
            # one batch, both sockets ready: the first daemon reports a
            # deadline on the job the second one holds, which costs the
            # second link its connection before its own key comes up
            spec, attempt = stale.jobs[0]
            first.sock.say("error", {
                "key": (spec.l, spec.m), "attempt": attempt,
                "fault_kind": "deadline", "error": "not mine to report",
            })
            stale.say("heartbeat", {"pid": second.pid})
            return [first.sock, stale]

        rig.selector.script = script
        outcome = rig.run(self.KEYS)
        assert [(e.key, e.kind) for e in outcome.report.events] == [((1, 1), "deadline")]
        assert stale.closed and stale.inbox  # never read again
        assert (second.state, second.reconnects) == ("up", 1)
        assert sorted(outcome.completion_order) == sorted(self.KEYS)

    def test_no_link_up_at_the_start_fails_the_run(self):
        rig = Rig(links=2)
        for link in rig.links:
            rig.engine._disconnect(link)
        with pytest.raises(FaultToleranceExhausted) as info:
            rig.run(self.KEYS)
        assert str(info.value.__cause__) == "no worker daemon is alive"
        assert not rig.engine.reusable

    def test_every_link_out_of_budget_fails_the_run(self):
        rig = Rig(links=2)
        rig.dial_limit = 0
        rig.selector.script = Daemons(rig, [("eof", 0, 0.0), ("eof", 1, 0.0)])
        with pytest.raises(FaultToleranceExhausted) as info:
            rig.run(self.KEYS)
        assert str(info.value.__cause__) == (
            "every worker daemon is lost and out of reconnect budget"
        )
        assert [link.state for link in rig.links] == ["down", "down"]
        assert rig.engine.reconnects == 2 * MAX_RECONNECTS
        assert len(rig.forks) == 2 * MAX_RECONNECTS
        report = info.value.report
        assert [e.kind for e in report.events] == ["crash", "crash"]


ACTIONS = (
    "hello", "result", "error", "eof", "silence", "connect-ok",
    "connect-fail", "advance", "heartbeat", "late", "garbage",
)
TERMINAL = {JobState.DONE, JobState.FALLBACK}


@settings(max_examples=600, deadline=None)
@given(
    links=st.integers(1, 4),
    keys=st.integers(1, 5),
    dials=st.integers(0, 12),
    steps=st.lists(
        st.tuples(
            st.sampled_from(ACTIONS),
            st.integers(0, 3),
            st.sampled_from((0.0, 0.01, 0.05, 0.4, 1.0, 6.0, 30.0)),
        ),
        max_size=40,
    ),
)
def test_generated_schedules_keep_the_link_invariants(links, keys, dials, steps):
    """Random daemon behaviour over 1-4 links — frames, EOFs, silence,
    connects that complete or fail, time passing — checked every time
    the loop comes back to ``select``."""
    rig = Rig(links=links)
    rig.dial_limit = dials
    engine = rig.engine
    for link in rig.links[1::2]:  # every other one has not said hello yet
        link.pid, link.sock.said_hello = None, False
    cores = []

    def check():
        core = engine._core
        cores[:] = [core]
        holders = Counter(id(job.worker) for job in core.pending.values())
        assert not holders or max(holders.values()) == 1
        for link in rig.links:
            if link.state != "up":
                assert link.job is None
            if link.state == "down":
                assert link.sock is None
            if link.job is not None:
                assert core.pending[link.job.key] is link.job
                assert link.job.worker is link and link.pid is not None
            assert link.reconnects <= MAX_RECONNECTS
        # the selector watches the links' sockets and no other: an up
        # link's for bytes, a reviving link's for its connect
        assert set(rig.selector.registered) == {
            link.sock for link in rig.links if link.sock is not None
        }
        for sock, (events, link) in rig.selector.registered.items():
            assert link.sock is sock
            assert (link.state, events) in (
                ("up", selectors.EVENT_READ), ("reviving", selectors.EVENT_WRITE)
            )
        assert not engine.reusable  # mid-run

    rig.selector.script = Daemons(rig, steps, check)
    wanted = TestRun.KEYS[:keys]
    try:
        outcome = rig.run(wanted)
    except FaultToleranceExhausted as failure:
        # the one way a run with an in-master fallback can fail
        assert all(link.state == "down" for link in rig.links)
        assert "worker daemon" in str(failure.__cause__)
        assert not engine.reusable
        return
    assert "reviving" not in [link.state for link in rig.links]
    # every key reached exactly one terminal state
    assert sorted(outcome.completion_order) == sorted(wanted)
    assert set(outcome.payloads) == set(wanted)
    assert set(cores[0].state.values()) <= TERMINAL
    reusable = engine.reusable
    assert reusable == (
        engine.reconnects == 0
        and all(link.state == "up" and link.job is None for link in rig.links)
    )
    assert (engine.reconnects == 0) == all(l.reconnects == 0 for l in rig.links)
    assert engine.park() == reusable
