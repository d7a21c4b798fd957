"""Stateful behaviour of censorship devices.

§4.1 ("Network path variance") observes two stateful behaviours that
shape CenTrace's design: residual censorship — after one trigger, a
device keeps interfering with the 3-tuple for a while regardless of
content — and per-connection injection limits ("some middleboxes only
inject censored responses a certain number of times per TCP
connection"). Both live here, keyed on the simulator's virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..netmodel.ip import FlowKey

# What identifies a "punished" tuple for residual censorship.
RESIDUAL_3TUPLE = "3tuple"  # (client, server, server-port)
RESIDUAL_HOSTS = "hosts"  # (client, server)
RESIDUAL_OFF = "off"


@dataclass
class ResidualTracker:
    """Tracks residually-censored tuples with expiry times."""

    mode: str = RESIDUAL_OFF
    duration: float = 90.0
    _entries: Dict[Tuple, float] = field(default_factory=dict)

    def _key(self, flow: FlowKey) -> Optional[Tuple]:
        if self.mode == RESIDUAL_3TUPLE:
            return (flow.src, flow.dst, flow.dport)
        if self.mode == RESIDUAL_HOSTS:
            return (flow.src, flow.dst)
        return None

    def punish(self, flow: FlowKey, clock: float) -> None:
        key = self._key(flow)
        if key is not None:
            self._entries[key] = clock + self.duration

    def is_punished(self, flow: FlowKey, clock: float) -> bool:
        key = self._key(flow)
        if key is None:
            return False
        expiry = self._entries.get(key)
        if expiry is None:
            return False
        if clock >= expiry:
            del self._entries[key]
            return False
        return True

    def punishes(self, flow: FlowKey, clock: float) -> bool:
        """:meth:`is_punished` without dropping an expired entry (the
        next :meth:`is_punished` or :meth:`punish` of its key does)."""
        if not self._entries:
            return False
        key = self._key(flow)
        if key is None:
            return False
        expiry = self._entries.get(key)
        return expiry is not None and clock < expiry

    def active_count(self, clock: float) -> int:
        return sum(1 for expiry in self._entries.values() if expiry > clock)

    def holds_entries(self) -> bool:
        """Could any tuple be punished? False means :meth:`is_punished`
        answers False for every flow, so callers may skip building one."""
        return bool(self._entries)

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class FlowInjectionCounter:
    """Counts injections per flow to enforce per-connection limits."""

    limit: Optional[int] = None  # None = unlimited
    _counts: Dict[Tuple, int] = field(default_factory=dict)

    def may_inject(self, flow: FlowKey) -> bool:
        if self.limit is None:
            return True
        return self._counts.get(flow.canonical(), 0) < self.limit

    def record(self, flow: FlowKey) -> None:
        if self.limit is None:
            return
        key = flow.canonical()
        self._counts[key] = self._counts.get(key, 0) + 1

    def reset_flow(self, flow: FlowKey) -> None:
        self._counts.pop(flow.canonical(), None)

    def clear(self) -> None:
        self._counts.clear()
