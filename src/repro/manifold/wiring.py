"""The ``a -> b -> c.port`` stream-configuration notation.

MANIFOLD states wire processes with chained arrows; the paper's central
line is::

    &worker -> master -> worker -> master.dataport

Each arrow creates a stream from the element on its left to the element
on its right; a bare process name means its default port (``output``
when producing, ``input`` when consuming), ``name.port`` selects a
specific port, and ``&name`` injects the named process's *reference* as
a literal unit.  This module parses that notation so coordinator state
bodies can use it verbatim::

    ctx.wire(
        "&worker -> master -> worker -> master.dataport",
        env={"worker": worker, "master": master},
        types={2: StreamType.KK},          # third arrow: the KK stream
    )

The ``types`` mapping assigns stream types by arrow index (0-based),
defaulting to BK exactly like the language.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import StreamError
from .ports import Port, PortDirection
from .process import ProcessBase
from .streams import Stream, StreamType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .states import StateContext

__all__ = ["WireElement", "parse_wire_spec", "wire"]


@dataclass(frozen=True)
class WireElement:
    """One element of a chain: a process endpoint or a reference."""

    name: str
    port: Optional[str]      # None = default port for the position
    is_reference: bool       # the &p form

    def resolve_process(self, env: Mapping[str, ProcessBase]) -> ProcessBase:
        try:
            return env[self.name]
        except KeyError:
            raise StreamError(
                f"wire spec references unknown process {self.name!r}; "
                f"known: {sorted(env)}"
            ) from None

    def sink_port(self, env: Mapping[str, ProcessBase]) -> Port:
        proc = self.resolve_process(env)
        port = proc.port(self.port or "input")
        if port.direction is not PortDirection.IN:
            raise StreamError(
                f"{self.name}.{port.name} is not an input port"
            )
        return port

    def source_port(self, env: Mapping[str, ProcessBase]) -> Port:
        proc = self.resolve_process(env)
        port = proc.port(self.port or "output")
        if port.direction is not PortDirection.OUT:
            raise StreamError(
                f"{self.name}.{port.name} is not an output port"
            )
        return port


def parse_wire_spec(spec: str) -> list[WireElement]:
    """Parse a chain like ``&a -> b.dataport -> c`` into elements."""
    return list(_parse(spec))


@functools.lru_cache(maxsize=128)
def _parse(spec: str) -> tuple[WireElement, ...]:
    # a state body wires the same literal for every worker it creates
    parts = [part.strip() for part in spec.split("->")]
    if len(parts) < 2:
        raise StreamError(f"wire spec needs at least one arrow: {spec!r}")
    elements = []
    for part in parts:
        if not part:
            raise StreamError(f"empty element in wire spec: {spec!r}")
        is_reference = part.startswith("&")
        body = part[1:] if is_reference else part
        name, dot, port = body.partition(".")
        if not name or (dot and not port):
            raise StreamError(f"malformed wire element {part!r} in {spec!r}")
        if is_reference and dot:
            raise StreamError(
                f"a reference element cannot name a port: {part!r}"
            )
        elements.append(
            WireElement(name=name, port=port if dot else None,
                        is_reference=is_reference)
        )
    if any(e.is_reference for e in elements[1:]):
        raise StreamError(
            f"only the first element of a chain may be a reference: {spec!r}"
        )
    return tuple(elements)


def wire(
    ctx: "StateContext",
    spec: str,
    env: Mapping[str, ProcessBase],
    types: Optional[Mapping[int, StreamType]] = None,
) -> list[Stream]:
    """Realize a chain inside a coordinator state.

    Returns the created streams in arrow order.  All streams are
    recorded against the current state (dismantled per type on
    preemption), exactly as :meth:`StateContext.connect` would.
    """
    elements = _parse(spec)
    types = types or {}
    streams: list[Stream] = []
    for index, (left, right) in enumerate(zip(elements, elements[1:])):
        stream_type = types.get(index, StreamType.BK)
        sink = right.sink_port(env)
        if left.is_reference:
            reference = left.resolve_process(env).reference()
            streams.append(ctx.send(reference, sink, type=stream_type))
        else:
            streams.append(
                ctx.connect(left.source_port(env), sink, type=stream_type)
            )
    return streams
