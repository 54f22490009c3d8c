"""MLINK and CONFIG stages: parsing, bundling semantics, host mapping."""

from __future__ import annotations

import pytest

from repro.manifold import (
    AtomicDefinition,
    ConfigError,
    HostMapper,
    LinkError,
    Runtime,
    TaskManager,
    parse_braces,
    parse_config,
    parse_mlink,
)

PAPER_MLINK = """
{task *
  {perpetual}
  {load 1}
  {weight Master 1}
  {weight Worker 1}
}
{task mainprog
  {include mainprog.o}
  {include protocolMW.o}
}
"""

PAPER_CONFIG = """
{host host1 diplice.sen.cwi.nl}
{host host2 alboka.sen.cwi.nl}
{host host3 altfluit.sen.cwi.nl}
{host host4 arghul.sen.cwi.nl}
{host host5 basfluit.sen.cwi.nl}
{locus mainprog $host1 $host2 $host3 $host4 $host5}
"""


class TestBraceParser:
    def test_parses_nested_expressions(self):
        exprs = parse_braces("{a {b c} d}")
        assert len(exprs) == 1
        assert exprs[0].head == "a"
        assert exprs[0].atoms() == ["a", "d"]
        assert exprs[0].children()[0].atoms() == ["b", "c"]

    def test_comments_stripped(self):
        exprs = parse_braces("# comment\n{a b} # trailing\n")
        assert exprs[0].atoms() == ["a", "b"]

    def test_unbalanced_open_rejected(self):
        with pytest.raises(LinkError):
            parse_braces("{a {b}")

    def test_unbalanced_close_rejected(self):
        with pytest.raises(LinkError):
            parse_braces("{a} }")

    def test_stray_toplevel_atoms_rejected(self):
        with pytest.raises(LinkError):
            parse_braces("loose {a}")


class TestMlinkParser:
    def test_paper_example(self):
        spec = parse_mlink(PAPER_MLINK)
        pattern = spec.pattern_for("mainprog")
        assert pattern.perpetual
        assert pattern.load_limit == 1.0
        assert pattern.weights == {"Master": 1.0, "Worker": 1.0}
        assert pattern.includes == ["mainprog.o", "protocolMW.o"]

    def test_star_pattern_applies_to_any_task(self):
        spec = parse_mlink("{task * {load 3}}")
        assert spec.pattern_for("whatever").load_limit == 3.0

    def test_named_pattern_refines_star(self):
        spec = parse_mlink("{task * {load 1}} {task big {load 6}}")
        assert spec.pattern_for("big").load_limit == 6.0
        assert spec.pattern_for("other").load_limit == 1.0

    def test_unknown_directive_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("{task * {frobnicate 1}}")

    def test_missing_task_name_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("{task}")

    def test_non_numeric_load_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("{task * {load heavy}}")

    def test_negative_weight_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("{task * {weight W -1}}")

    def test_empty_spec_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("")

    def test_top_level_non_task_rejected(self):
        with pytest.raises(LinkError):
            parse_mlink("{host a b}")

    def test_unweighted_definitions_are_weightless(self):
        spec = parse_mlink(PAPER_MLINK)
        assert spec.pattern_for("mainprog").weight_of("Main") == 0.0

    def test_task_names_listed(self):
        spec = parse_mlink(PAPER_MLINK)
        assert spec.task_names == ["mainprog"]


class TestTaskManager:
    def make_manager(self, mlink_text: str = PAPER_MLINK, clock=None) -> TaskManager:
        spec = parse_mlink(mlink_text)
        kwargs = {"clock": clock} if clock else {}
        return TaskManager(spec, **kwargs)

    def spawn_idle(self, runtime: Runtime, name: str):
        return runtime.create(AtomicDefinition(name, lambda p: p.read()))

    def test_unit_weights_one_worker_per_task(self, runtime):
        manager = self.make_manager()
        workers = [self.spawn_idle(runtime, "Worker") for _ in range(3)]
        instances = {manager.place(w).id for w in workers}
        assert len(instances) == 3

    def test_load_six_bundles_workers_together(self, runtime):
        text = PAPER_MLINK.replace("{load 1}", "{load 6}")
        manager = self.make_manager(text)
        workers = [self.spawn_idle(runtime, "Worker") for _ in range(6)]
        instances = {manager.place(w).id for w in workers}
        assert len(instances) == 1

    def test_weightless_process_rides_along(self, runtime):
        manager = self.make_manager()
        worker = self.spawn_idle(runtime, "Worker")
        coordinator = self.spawn_idle(runtime, "Main")
        t1 = manager.place(worker)
        t2 = manager.place(coordinator)
        assert t1.id == t2.id  # Main is weightless, fits anywhere

    def test_perpetual_task_survives_emptying(self, runtime):
        manager = self.make_manager()
        worker = self.spawn_idle(runtime, "Worker")
        task = manager.place(worker)
        manager.release(worker)
        assert task.alive
        assert not task.residents

    def test_perpetual_task_welcomes_new_worker(self, runtime):
        manager = self.make_manager()
        first = self.spawn_idle(runtime, "Worker")
        task = manager.place(first)
        manager.release(first)
        second = self.spawn_idle(runtime, "Worker")
        assert manager.place(second).id == task.id
        assert task.total_housed == 2

    def test_non_perpetual_task_dies_when_empty(self, runtime):
        text = PAPER_MLINK.replace("{perpetual}", "")
        manager = self.make_manager(text)
        worker = self.spawn_idle(runtime, "Worker")
        task = manager.place(worker)
        manager.release(worker)
        assert not task.alive

    def test_timeline_records_alive_counts(self, runtime):
        clock_value = [0.0]
        manager = self.make_manager(clock=lambda: clock_value[0])
        clock_value[0] = 1.0
        w1 = self.spawn_idle(runtime, "Worker")
        manager.place(w1)
        clock_value[0] = 2.0
        w2 = self.spawn_idle(runtime, "Worker")
        manager.place(w2)
        counts = [p.alive for p in manager.timeline()]
        assert counts == [0, 1, 2]
        assert manager.peak_instances() == 2

    def test_kill_idle_perpetual(self, runtime):
        manager = self.make_manager()
        worker = self.spawn_idle(runtime, "Worker")
        task = manager.place(worker)
        manager.release(worker)
        assert manager.kill_idle_perpetual() == 1
        assert not task.alive

    def test_release_unknown_process_is_noop(self, runtime):
        manager = self.make_manager()
        stranger = self.spawn_idle(runtime, "Worker")
        assert manager.release(stranger) is None

    def test_attach_places_on_activation(self, runtime):
        manager = self.make_manager().attach(runtime)
        worker = runtime.spawn(AtomicDefinition("Worker", lambda p: None))
        worker.join(timeout=2.0)
        assert worker.task_instance is not None
        # death released it again
        assert not manager.alive_instances() or all(
            worker not in t.residents for t in manager.alive_instances()
        )

    def test_default_task_required_when_ambiguous(self):
        spec = parse_mlink("{task a {load 1}} {task b {load 1}}")
        with pytest.raises(LinkError):
            TaskManager(spec)


class TestConfig:
    def test_paper_example(self):
        spec = parse_config(PAPER_CONFIG)
        assert spec.hosts["host1"] == "diplice.sen.cwi.nl"
        assert spec.locus_hosts("mainprog") == [
            "diplice.sen.cwi.nl",
            "alboka.sen.cwi.nl",
            "altfluit.sen.cwi.nl",
            "arghul.sen.cwi.nl",
            "basfluit.sen.cwi.nl",
        ]

    def test_unbound_variable_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{locus t $nope}")

    def test_duplicate_host_variable_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{host h a} {host h b}")

    def test_literal_hostnames_allowed(self):
        spec = parse_config("{locus t some.host.example}")
        assert spec.locus_hosts("t") == ["some.host.example"]

    def test_unknown_clause_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{task t}")

    def test_missing_locus_rejected(self):
        spec = parse_config(PAPER_CONFIG)
        with pytest.raises(ConfigError):
            spec.locus_hosts("other")


class TestHostMapper:
    def make_mapper(self, capacity: int = 1) -> HostMapper:
        return HostMapper(
            parse_config(PAPER_CONFIG), startup_host="bumpa.sen.cwi.nl",
            capacity=capacity,
        )

    def make_task(self):
        from repro.manifold.mlink import TaskPattern
        from repro.manifold.task import TaskInstance

        return TaskInstance("mainprog", TaskPattern("mainprog"), created_at=0.0)

    def test_first_task_gets_startup_host(self):
        mapper = self.make_mapper()
        assert mapper.assign(self.make_task()) == "bumpa.sen.cwi.nl"

    def test_following_tasks_get_locus_hosts(self):
        mapper = self.make_mapper()
        mapper.assign(self.make_task())
        assert mapper.assign(self.make_task()) == "diplice.sen.cwi.nl"
        assert mapper.assign(self.make_task()) == "alboka.sen.cwi.nl"

    def test_capacity_exhaustion_raises(self):
        mapper = self.make_mapper()
        for _ in range(6):  # startup + 5 locus hosts
            mapper.assign(self.make_task())
        with pytest.raises(ConfigError):
            mapper.assign(self.make_task())

    def test_freed_host_is_reusable(self):
        mapper = self.make_mapper()
        mapper.assign(self.make_task())
        task = self.make_task()
        host = mapper.assign(task)
        mapper.free(task)
        assert mapper.assign(self.make_task()) == host

    def test_capacity_two_allows_two_tasks(self):
        mapper = self.make_mapper(capacity=2)
        mapper.assign(self.make_task())
        a = mapper.assign(self.make_task())
        b = mapper.assign(self.make_task())
        assert a == b == "diplice.sen.cwi.nl"

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            self.make_mapper(capacity=0)

    def test_hosts_in_use_reported(self):
        mapper = self.make_mapper()
        task = self.make_task()
        mapper.assign(task)
        assert mapper.hosts_in_use() == ["bumpa.sen.cwi.nl"]
        assert mapper.host_of(task) == "bumpa.sen.cwi.nl"


class TestTaskDeathFreesHost:
    """Regression: a task instance's machine slot must be released on
    *task* death through every exit path — not only when a resident
    thread's death happens to empty a non-perpetual instance.  Instances
    ended by ``kill_idle_perpetual`` (mid-run reclamation) or
    ``mark_dead`` (an engine observing its daemon die) once held their
    host forever, so long chaos runs wrongly exhausted the locus.  A
    ``TaskManager`` given ``hosts=`` assigns and frees the machines
    itself."""

    TWO_HOSTS = """
    {host h1 diplice.sen.cwi.nl}
    {host h2 alboka.sen.cwi.nl}
    {locus mainprog $h1 $h2}
    """

    class FakeProc:
        _counter = iter(range(10_000, 20_000))

        def __init__(self):
            self.instance_id = next(self._counter)
            self.definition_name = "Worker"
            self.task_instance = None

    def make_pair(self, perpetual: bool):
        pattern = "{perpetual} " if perpetual else ""
        mapper = HostMapper(parse_config(self.TWO_HOSTS), "bumpa.sen.cwi.nl")
        manager = TaskManager(parse_mlink(
            "{task mainprog " + pattern + "{load 1} {weight Worker 1}}"
        ), hosts=mapper)
        return manager, mapper

    def cycle_once(self, manager, mapper, *, reclaim: bool):
        proc = self.FakeProc()
        task = manager.place(proc)
        manager.release(proc)
        if reclaim:
            manager.kill_idle_perpetual()
        return task

    def test_cycling_more_instances_than_hosts_never_exhausts(self):
        # 3 machines (startup + 2 locus), 8 sequential task instances
        manager, mapper = self.make_pair(perpetual=False)
        for _ in range(8):
            self.cycle_once(manager, mapper, reclaim=False)
        assert mapper.hosts_in_use() == []

    def test_perpetual_reclamation_frees_machines(self):
        # mid-run kill_idle_perpetual (the "ebb" of the ebb & flow)
        # must hand the machines back for the next flow
        manager, mapper = self.make_pair(perpetual=True)
        for _ in range(8):
            self.cycle_once(manager, mapper, reclaim=True)
        assert mapper.hosts_in_use() == []

    def test_mark_dead_frees_machine_exactly_once(self):
        manager, mapper = self.make_pair(perpetual=True)
        proc = self.FakeProc()
        task = manager.place(proc)
        assert manager.mark_dead(task) is True
        assert mapper.hosts_in_use() == []
        # second kill is a no-op: no callbacks, no double free
        assert manager.mark_dead(task) is False
        # the resident unwinding later must not re-report the death
        manager.release(proc)
        assert mapper.hosts_in_use() == []

    def test_full_locus_records_nothing(self):
        # startup host + two locus hosts are taken: the fourth fork
        # finds no machine, and no host-less instance is left behind
        manager, mapper = self.make_pair(perpetual=True)
        for _ in range(3):
            manager.place(self.FakeProc())
        instances, timeline = manager.instances(), manager.timeline()
        with pytest.raises(ConfigError):
            manager.place(self.FakeProc())
        assert manager.instances() == instances
        assert manager.timeline() == timeline
        assert all(task.host is not None for task in instances)
