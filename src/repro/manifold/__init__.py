"""A Python implementation of the MANIFOLD/IWIM coordination model.

This package is the runtime substrate of the reproduction: events and
event memories, ports, typed streams (BK/KK/BB/KB), atomic worker
processes, coordinator state machines (manifolds and manners), built-in
processes, and the MLINK/CONFIG composition and configuration stages.

The public surface is re-exported here so applications can write::

    from repro.manifold import (
        Runtime, Coordinator, Block, AtomicDefinition, Event, StreamType,
    )
"""

from .builtins import Variable, make_printer, make_sink, make_variable, make_void
from .config import ConfigSpec, HostMapper, parse_config
from .errors import (
    ConfigError,
    EventError,
    LinkError,
    ManifoldError,
    PortError,
    ProcessError,
    StateMachineError,
    StreamError,
)
from .events import BEGIN, END, Event, EventMemory, EventOccurrence
from .manifold import Coordinator, Manner, run_application
from .mlink import LinkSpec, SExpr, TaskPattern, parse_braces, parse_mlink
from .ports import Port, PortDirection
from .process import (
    DEATH,
    AtomicDefinition,
    AtomicProcess,
    ProcessBase,
    ProcessState,
)
from .scheduler import Runtime
from .states import Block, HaltBlock, StateContext
from .streams import Stream, StreamType
from .task import TaskInstance, TaskManager, TimelinePoint
from .units import ProcessReference, Unit
from .watchdog import StallReport, Watchdog

__all__ = [
    "BEGIN",
    "END",
    "DEATH",
    "AtomicDefinition",
    "AtomicProcess",
    "Block",
    "ConfigError",
    "ConfigSpec",
    "Coordinator",
    "Event",
    "EventError",
    "EventMemory",
    "EventOccurrence",
    "HaltBlock",
    "HostMapper",
    "LinkError",
    "LinkSpec",
    "Manner",
    "ManifoldError",
    "Port",
    "PortDirection",
    "ProcessBase",
    "ProcessError",
    "ProcessReference",
    "ProcessState",
    "Runtime",
    "SExpr",
    "StallReport",
    "StateContext",
    "StateMachineError",
    "Watchdog",
    "Stream",
    "StreamError",
    "StreamType",
    "TaskInstance",
    "TaskManager",
    "TaskPattern",
    "TimelinePoint",
    "Unit",
    "Variable",
    "make_printer",
    "make_sink",
    "make_variable",
    "make_void",
    "parse_braces",
    "parse_config",
    "parse_mlink",
    "run_application",
]
