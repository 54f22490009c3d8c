"""Task instances and the placement engine (the run side of MLINK and CONFIG).

Process instances run as threads bundled into *task instances* — the
heavy-weight, OS-level processes of a MANIFOLD application.  This module
decides that bundling and, given a CONFIG ``HostMapper``, their machines:

* when a process instance is activated, the :class:`TaskManager` places
  it in an existing non-full task instance of its task, or forks a new
  task instance on the first machine CONFIG has free for it;
* when a process instance dies, its weight is released; an emptied task
  instance dies, and hands its machine back, unless its pattern is
  ``perpetual``, in which case it stays alive, "ready to welcome a new
  worker";
* every placement and death is timestamped, producing the task-count
  timeline behind the paper's Figure 1 (the "ebb & flow" of machines).

The clock is injected: real runs place on ``time.monotonic``, and the
discrete-event cluster simulator places through this same engine on its
virtual time.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .errors import LinkError
from .mlink import LinkSpec, TaskPattern
from .process import ProcessBase

if TYPE_CHECKING:
    from .config import HostMapper

__all__ = ["TaskInstance", "TaskManager", "TimelinePoint"]

_task_counter = itertools.count()


@dataclass
class TimelinePoint:
    """One change in the number of live task instances."""

    time: float
    alive: int


class TaskInstance:
    """One OS-level process housing some of the application's threads."""

    def __init__(self, task_name: str, pattern: TaskPattern, created_at: float) -> None:
        self.id = next(_task_counter)
        self.task_name = task_name
        self.pattern = pattern
        self.created_at = created_at
        self.died_at: Optional[float] = None
        self.residents: list[ProcessBase] = []
        self.load = 0.0
        #: the machine CONFIG assigned when the instance was forked
        #: (``None`` when its :class:`TaskManager` has no host mapper)
        self.host: Optional[str] = None
        #: total residents ever housed (perpetual reuse accounting)
        self.total_housed = 0

    @property
    def alive(self) -> bool:
        return self.died_at is None

    @property
    def name(self) -> str:
        return f"{self.task_name}[{self.id}]"

    def fits(self, weight: float) -> bool:
        """True when a resident of ``weight`` can be housed without the
        task instance becoming full (load exceeding the limit)."""
        return self.alive and self.load + weight <= self.pattern.load_limit

    def house(self, proc: ProcessBase, weight: float) -> None:
        self.residents.append(proc)
        self.load += weight
        self.total_housed += 1

    def evict(self, proc: ProcessBase, weight: float) -> None:
        self.residents.remove(proc)
        self.load = max(0.0, self.load - weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"TaskInstance({self.name}, load={self.load}, {state})"


class TaskManager:
    """Places process instances into task instances per a link spec;
    with ``hosts``, gives each instance its machine before recording it
    (a ``ConfigError`` leaves nothing behind) and takes it back at death."""

    def __init__(
        self,
        link_spec: LinkSpec,
        default_task: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        hosts: Optional["HostMapper"] = None,
    ) -> None:
        names = link_spec.task_names
        if default_task is None:
            if len(names) != 1:
                raise LinkError(
                    "default_task must be given when the link spec declares "
                    f"{len(names)} named tasks"
                )
            default_task = names[0]
        self.link_spec = link_spec
        self.default_task = default_task
        self.clock = clock
        self.hosts = hosts
        self._lock = threading.Lock()
        self._patterns = {name: link_spec.pattern_for(name) for name in names}
        self._instances: list[TaskInstance] = []
        self._by_process: dict[int, tuple[TaskInstance, float]] = {}
        self._timeline: list[TimelinePoint] = []
        self._record_timeline_locked()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, proc: ProcessBase, task_name: Optional[str] = None) -> TaskInstance:
        """Bundle an activated process instance into a task instance."""
        task_name = task_name or self.default_task
        pattern = self._patterns.get(task_name) or self.link_spec.pattern_for(task_name)
        weight = pattern.weight_of(proc.definition_name)
        with self._lock:
            instance = self._find_or_fork_locked(task_name, pattern, weight)
            instance.house(proc, weight)
            self._by_process[proc.instance_id] = (instance, weight)
            proc.task_instance = instance
            self._record_timeline_locked()
            return instance

    def _find_or_fork_locked(
        self, task_name: str, pattern: TaskPattern, weight: float
    ) -> TaskInstance:
        for instance in self._instances:
            if instance.task_name == task_name and instance.fits(weight):
                return instance
        instance = TaskInstance(task_name, pattern, created_at=self.clock())
        if self.hosts is not None:
            self.hosts.assign(instance)
        self._instances.append(instance)
        return instance

    def release(self, proc: ProcessBase) -> Optional[TaskInstance]:
        """Handle a process death; may end its (non-perpetual) task."""
        with self._lock:
            entry = self._by_process.pop(proc.instance_id, None)
            if entry is None:
                return None
            instance, weight = entry
            instance.evict(proc, weight)
            if (
                instance.alive
                and not instance.residents
                and not instance.pattern.perpetual
            ):
                self._end_locked(instance, self.clock())
            self._record_timeline_locked()
        return instance

    def kill_idle_perpetual(self) -> int:
        """End every empty perpetual task instance (application wind-down).

        Returns the number of instances ended.  Real MANIFOLD reclaims
        perpetual tasks when the application exits; drivers call this
        once the main coordinator is done so the machine-count timeline
        returns to zero.
        """
        with self._lock:
            now = self.clock()
            ended = 0
            for instance in self._instances:
                if instance.alive and not instance.residents:
                    self._end_locked(instance, now)
                    ended += 1
            if ended:
                self._record_timeline_locked()
        return ended

    def mark_dead(self, instance: TaskInstance) -> bool:
        """End a task instance whose OS-level process died out from
        under the coordination layer (a crashed or killed daemon).

        Residents stay mapped — their threads unwind through
        :meth:`release` as usual, which will not double-report the
        death.  Returns ``False`` when the instance was already dead.
        """
        with self._lock:
            if not instance.alive:
                return False
            self._end_locked(instance, self.clock())
            self._record_timeline_locked()
        return True

    def _end_locked(self, instance: TaskInstance, now: float) -> None:
        """The one way a task instance dies: its machine goes back."""
        instance.died_at = now
        if self.hosts is not None:
            self.hosts.free(instance)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def instances(self) -> list[TaskInstance]:
        with self._lock:
            return list(self._instances)

    def alive_instances(self) -> list[TaskInstance]:
        with self._lock:
            return [t for t in self._instances if t.alive]

    def timeline(self) -> list[TimelinePoint]:
        """Alive-task-count history — Figure 1's raw data."""
        with self._lock:
            return list(self._timeline)

    def peak_instances(self) -> int:
        return max((p.alive for p in self.timeline()), default=0)

    def _record_timeline_locked(self) -> None:
        alive = sum(1 for t in self._instances if t.alive)
        self._timeline.append(TimelinePoint(self.clock(), alive))

    # ------------------------------------------------------------------
    # runtime wiring
    # ------------------------------------------------------------------
    def attach(self, runtime) -> "TaskManager":
        """Subscribe to a runtime's activation/death hooks."""
        runtime.on_activate_hooks.append(lambda proc: self.place(proc))
        runtime.on_death_hooks.append(lambda proc: self.release(proc))
        return self
