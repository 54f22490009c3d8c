"""Events and event memories: identity, delivery, matching, scoping."""

from __future__ import annotations

import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifold import BEGIN, Event, EventMemory, EventOccurrence
from repro.manifold.errors import EventError


class TestEvent:
    def test_same_name_is_equal(self):
        assert Event("go") == Event("go")

    def test_same_name_hashes_equal(self):
        assert hash(Event("go")) == hash(Event("go"))

    def test_different_names_differ(self):
        assert Event("go") != Event("stop")

    def test_local_events_with_same_name_differ(self):
        a = Event.local("death_worker")
        b = Event.local("death_worker")
        assert a != b

    def test_local_event_differs_from_global(self):
        assert Event.local("death_worker") != Event("death_worker")

    def test_local_event_keeps_its_name(self):
        assert Event.local("death_worker").name == "death_worker"

    def test_empty_name_rejected(self):
        with pytest.raises(EventError):
            Event("")

    def test_non_string_name_rejected(self):
        with pytest.raises(EventError):
            Event(42)  # type: ignore[arg-type]

    def test_usable_as_dict_key(self):
        table = {Event("a"): 1, Event("b"): 2}
        assert table[Event("a")] == 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_survives_a_pickle_round_trip(self, protocol):
        event = pickle.loads(pickle.dumps(Event("go"), protocol=protocol))
        assert event == Event("go") and hash(event) == hash(Event("go"))
        assert type(event) is Event and event.name == "go"
        local = Event.local("go")
        assert pickle.loads(pickle.dumps(local, protocol=protocol)) == local

    def test_hashes_and_compares_without_python_code(self):
        """Every label match hashes and compares events: no Python frame."""
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        a, b, local = Event("go"), Event("go"), Event.local("go")
        sys.setprofile(profile)
        try:
            hash(a), a == b, a != local, {a: 1}[b]
        finally:
            sys.setprofile(None)
        assert frames == []


class TestEventOccurrence:
    def test_sequence_numbers_increase(self):
        a = EventOccurrence(Event("go"))
        b = EventOccurrence(Event("go"))
        assert b.seq > a.seq


class TestEventMemory:
    def match_any(self, *events: Event):
        return dict.fromkeys(events, 0)

    def test_post_then_take(self):
        memory = EventMemory()
        memory.post(Event("go"))
        occ = memory.take_match(self.match_any(Event("go")))
        assert occ is not None and occ.event == Event("go")

    def test_take_removes_occurrence(self):
        memory = EventMemory()
        memory.post(Event("go"))
        memory.take_match(self.match_any(Event("go")))
        assert memory.take_match(self.match_any(Event("go"))) is None

    def test_non_matching_events_are_retained(self):
        memory = EventMemory()
        memory.post(Event("other"))
        assert memory.take_match(self.match_any(Event("go"))) is None
        assert len(memory) == 1

    def test_fifo_among_equal_priority(self):
        memory = EventMemory()
        first = EventOccurrence(Event("go"))
        second = EventOccurrence(Event("go"))
        memory.deliver(first)
        memory.deliver(second)
        taken = memory.take_match(self.match_any(Event("go")))
        assert taken is first

    def test_priority_beats_arrival_order(self):
        memory = EventMemory()
        memory.post(Event("rendezvous"))
        memory.post(Event("create_worker"))

        matcher = {Event("create_worker"): 2, Event("rendezvous"): 1}
        taken = memory.take_match(matcher)
        assert taken is not None and taken.event == Event("create_worker")

    def test_wait_returns_matching_event(self):
        memory = EventMemory()

        def poster():
            time.sleep(0.02)
            memory.post(Event("go"))

        threading.Thread(target=poster).start()
        occ = memory.wait_for_match(self.match_any(Event("go")), timeout=2.0)
        assert occ is not None and occ.event == Event("go")

    def test_wait_timeout_returns_none(self):
        memory = EventMemory()
        assert memory.wait_for_match(self.match_any(Event("go")), timeout=0.05) is None

    def test_wait_wakes_on_extra_predicate(self):
        memory = EventMemory()
        flag = threading.Event()

        def setter():
            time.sleep(0.02)
            flag.set()
            memory.notify()

        threading.Thread(target=setter).start()
        result = memory.wait_for_match(
            self.match_any(Event("go")), timeout=2.0, extra_predicate=flag.is_set
        )
        assert result is None
        assert flag.is_set()

    def test_discard_drops_named_events(self):
        memory = EventMemory()
        memory.post(Event("death"))
        memory.post(Event("death"))
        memory.post(Event("keep"))
        dropped = memory.discard([Event("death")])
        assert dropped == 2
        assert len(memory) == 1

    def test_snapshot_preserves_order(self):
        memory = EventMemory()
        memory.post(Event("a"))
        memory.post(Event("b"))
        names = [occ.event.name for occ in memory.snapshot()]
        assert names == ["a", "b"]

    def test_closed_memory_drops_deliveries(self):
        memory = EventMemory()
        memory.close()
        memory.post(Event("go"))
        assert len(memory) == 0

    def test_closed_memory_wait_returns_none(self):
        memory = EventMemory()
        memory.close()
        assert memory.wait_for_match(self.match_any(Event("go"))) is None

    def test_begin_is_predefined(self):
        assert BEGIN == Event("begin")


def _noise(memory: EventMemory, seconds: float) -> threading.Thread:
    """Post an event nobody takes every 20 ms for ``seconds``."""

    def run():
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            memory.post(Event("noise"))
            time.sleep(0.02)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestWaitDeadline:
    """A timeout is one deadline, not a quiet period."""

    @pytest.mark.parametrize(
        "predicate", [None, lambda: False], ids=["mapping", "predicate"]
    )
    def test_unrelated_traffic_does_not_postpone_timeout(self, predicate):
        memory = EventMemory()
        noise = _noise(memory, 1.0)
        start = time.monotonic()
        assert memory.wait_for_match(
            {Event("go"): 0}, timeout=0.05, extra_predicate=predicate
        ) is None
        elapsed = time.monotonic() - start
        noise.join()
        assert elapsed < 0.2


class TestWakeRules:
    """Who a delivery wakes: a waiter that has a label for the event, or
    one that waits on a predicate."""

    def waits(self, memory: EventMemory, **kwargs) -> tuple[threading.Thread, list]:
        wakeups: list[int] = []
        original = memory._cond.wait

        def counting_wait(timeout=None):
            woken = original(timeout)
            wakeups.append(1)
            return woken

        memory._cond.wait = counting_wait
        thread = threading.Thread(
            target=memory.wait_for_match, args=({Event("go"): 0},), kwargs=kwargs
        )
        thread.start()
        while not memory._waiters:
            time.sleep(0.001)
        return thread, wakeups

    def test_unlabelled_event_does_not_wake_a_label_waiter(self):
        memory = EventMemory()
        thread, wakeups = self.waits(memory, timeout=5.0)
        for _ in range(10):
            memory.post(Event("death"))
        time.sleep(0.05)
        assert wakeups == []
        memory.post(Event("go"))
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert wakeups == [1]
        assert len(memory) == 10

    def test_any_event_wakes_a_predicate_waiter(self):
        memory = EventMemory()
        flag = threading.Event()
        thread, wakeups = self.waits(
            memory, timeout=5.0, extra_predicate=flag.is_set
        )
        flag.set()
        memory.post(Event("death"))
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert wakeups == [1]

    def test_close_wakes_a_label_waiter(self):
        memory = EventMemory()
        thread, _ = self.waits(memory)
        memory.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# the indexed memory against a plain list
# ----------------------------------------------------------------------

_EVENTS = [Event(name) for name in "abcd"]
_ranks = st.dictionaries(st.sampled_from(_EVENTS), st.integers(0, 3), max_size=4)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.sampled_from(_EVENTS)),
        st.tuples(st.just("redeliver"), st.integers(0, 50)),
        st.tuples(st.just("take_mapping"), _ranks),
        st.tuples(st.just("discard"), st.lists(st.sampled_from(_EVENTS), max_size=2)),
    ),
    max_size=40,
)


def _reference_take(pending: list, ranks: dict):
    """Highest rank, then earliest arrival — the list scan the memory
    used to be."""
    best = None
    for occ in pending:
        rank = ranks.get(occ.event)
        if rank is not None and (best is None or rank > ranks[best.event]):
            best = occ
    if best is not None:
        del pending[next(i for i, occ in enumerate(pending) if occ is best)]
    return best


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_indexed_memory_agrees_with_a_plain_list(steps):
    memory = EventMemory()
    pending: list[EventOccurrence] = []
    delivered: list[EventOccurrence] = []
    for op, arg in steps:
        if op == "post":
            occ = EventOccurrence(arg, source=None)
            delivered.append(occ)
            memory.deliver(occ)
            pending.append(occ)
        elif op == "redeliver" and delivered:
            # an old occurrence arriving again: arrival order is the
            # memory's, not the occurrence's own ``seq``
            occ = delivered[arg % len(delivered)]
            memory.deliver(occ)
            pending.append(occ)
        elif op == "take_mapping":
            assert memory.take_match(arg) is _reference_take(pending, arg)
        elif op == "discard":
            before = len(pending)
            pending = [occ for occ in pending if occ.event not in arg]
            assert memory.discard(arg) == before - len(pending)
        assert len(memory) == len(pending)
        snapshot = memory.snapshot()
        assert len(snapshot) == len(pending)
        assert all(a is b for a, b in zip(snapshot, pending))
