"""Deterministic fault injection: loss profiles, ICMP rate limiting,
duplication/reordering, path churn and flaky devices.

The paper's tools are engineered around unreliable networks: CenTrace
retries probes up to three times, tolerates ICMP-silent routers and
accounts for drops and ECMP path variance (§4.1). The base simulator
models only a uniform per-hop loss rate, which exercises none of that
machinery. A :class:`FaultPlan` composes richer, *seeded* fault models:

* :class:`LossProfile` — per-link / per-AS loss rates instead of one
  global number (transit ASes in the real measurements lose far more
  than the edge).
* :class:`IcmpRateLimitProfile` — a token bucket per router, so dense
  TTL sweeps see intermittently silent hops exactly the way real
  traceroutes do (most routers rate-limit ICMP error generation).
* :class:`DeliveryFaultProfile` — duplication and reordering of the
  packets delivered back to the client.
* :class:`PathChurnProfile` — mid-measurement ECMP re-hash after N
  packets or T virtual seconds, exercising §4.1's path-variance
  handling ("A Churn for the Better" shows churn mid-measurement is
  the norm, not the exception).
* :class:`FlakyDeviceProfile` — a censorship device that intermittently
  fails open (stops enforcing) or fails closed (drops everything).

Plans are immutable, hashable values (they live inside
:class:`~repro.geo.countries.WorldSpec` and campaign cache keys); all
runtime state — token buckets, churn counters, the fault RNG — lives in
:class:`FaultState`, which the simulator rebuilds on every
``Simulator.reset()`` so the campaign executor's bit-identical-replay
guarantee holds under any plan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# Device fates rolled by FlakyDeviceProfile.
FATE_INSPECT = "inspect"
FATE_FAIL_OPEN = "fail_open"
FATE_FAIL_CLOSED = "fail_closed"


def _pairs(mapping) -> Tuple[Tuple, ...]:
    """Normalize a dict (or pair sequence) to a sorted, hashable tuple."""
    if isinstance(mapping, dict):
        items = mapping.items()
    else:
        items = tuple(tuple(p) for p in mapping)
    return tuple(sorted((k, v) for k, v in items))


@dataclass(frozen=True)
class LossProfile:
    """Per-link loss rates: a default plus per-AS and per-link overrides.

    The link leading to a node is keyed either by the node's name
    (``link_rates``, most specific) or by its AS number (``as_rates``).
    ``default_rate`` covers everything else, including the final
    delivery link back to the client.

    **Precedence over the simulator's uniform loss:** installing a
    profile *replaces* ``Simulator.loss_rate`` wholesale — the uniform
    rate is NOT added to or mixed with the profile's rates, and a link
    the profile maps to rate 0.0 is lossless even when ``loss_rate``
    is 1.0. This is deliberate: a fault plan describes the complete
    loss behaviour of the path, and its rolls draw from the dedicated
    fault RNG so installing one never perturbs the base RNG stream
    (which golden digests depend on). Callers who want uniform loss on
    top of a profile must fold it into ``default_rate`` themselves.
    """

    default_rate: float = 0.0
    as_rates: Tuple[Tuple[int, float], ...] = ()
    link_rates: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "as_rates", _pairs(self.as_rates))
        object.__setattr__(self, "link_rates", _pairs(self.link_rates))
        # Lookup dicts rebuilt from the canonical tuples (not fields, so
        # equality/hash stay value-based).
        object.__setattr__(self, "_by_as", dict(self.as_rates))
        object.__setattr__(self, "_by_link", dict(self.link_rates))

    def rate_for(self, node) -> float:
        """Loss rate of the link leading to ``node`` (None = client link)."""
        if node is not None:
            name_rate = self._by_link.get(node.name)
            if name_rate is not None:
                return name_rate
            as_rate = self._by_as.get(node.asn)
            if as_rate is not None:
                return as_rate
        return self.default_rate

    def max_rate(self) -> float:
        """The worst single-link loss rate anywhere in the profile."""
        return max(
            [self.default_rate]
            + [r for _, r in self.as_rates]
            + [r for _, r in self.link_rates]
        )


@dataclass(frozen=True)
class IcmpRateLimitProfile:
    """Token-bucket ICMP error generation at every responding router.

    A router holds at most ``capacity`` tokens and regains
    ``refill_rate`` tokens per virtual second; emitting one ICMP error
    (Time Exceeded) costs one token. A dense TTL sweep drains the
    bucket and sees the hop go silent until virtual time passes —
    which is exactly why CenTrace must not treat one silent response
    as a terminating condition.
    """

    capacity: int = 2
    refill_rate: float = 1.0  # tokens per virtual second


@dataclass(frozen=True)
class DeliveryFaultProfile:
    """Duplication and reordering applied to client-bound deliveries."""

    duplicate_rate: float = 0.0  # per delivered packet
    reorder_rate: float = 0.0  # per adjacent pair: swap probability


@dataclass(frozen=True)
class PathChurnProfile:
    """Mid-measurement ECMP re-hash.

    After ``rehash_after_packets`` client sends, or after
    ``rehash_after_seconds`` of virtual time (whichever fires first),
    the flow-hash seed changes: the same 5-tuple may land on a
    different candidate path. This models routing churn *during* a
    measurement, which §4.1's repetition/aggregation logic must absorb.
    """

    rehash_after_packets: Optional[int] = None
    rehash_after_seconds: Optional[float] = None


@dataclass(frozen=True)
class FlakyDeviceProfile:
    """A device that intermittently stops doing its job.

    ``fail_open_rate``: probability (per inspected packet) the device
    passes traffic uninspected — blocked domains leak through.
    ``fail_closed_rate``: probability an in-path device drops the
    packet regardless of policy. ``device_names`` restricts the fault
    to specific devices; empty means every device is flaky.
    """

    fail_open_rate: float = 0.0
    fail_closed_rate: float = 0.0
    device_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "device_names", tuple(self.device_names))

    def applies_to(self, device) -> bool:
        return not self.device_names or device.name in self.device_names


@dataclass(frozen=True)
class FaultPlan:
    """A composed, seeded set of fault models for one simulator."""

    name: str = "custom"
    loss: Optional[LossProfile] = None
    icmp_rate_limit: Optional[IcmpRateLimitProfile] = None
    delivery: Optional[DeliveryFaultProfile] = None
    churn: Optional[PathChurnProfile] = None
    flaky_devices: Optional[FlakyDeviceProfile] = None

    def is_noop(self) -> bool:
        return (
            self.loss is None
            and self.icmp_rate_limit is None
            and self.delivery is None
            and self.churn is None
            and self.flaky_devices is None
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        out: Dict = {"name": self.name}
        for spec_field, cls in _COMPONENTS.items():
            value = getattr(self, spec_field)
            if value is not None:
                out[spec_field] = {
                    f.name: getattr(value, f.name) for f in fields(cls)
                }
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        kwargs: Dict = {"name": data.get("name", "custom")}
        for spec_field, component_cls in _COMPONENTS.items():
            raw = data.get(spec_field)
            if raw is not None:
                known = {f.name for f in fields(component_cls)}
                unknown = set(raw) - known
                if unknown:
                    raise ValueError(
                        f"unknown {spec_field} fields: {sorted(unknown)}"
                    )
                kwargs[spec_field] = component_cls(**raw)
        return cls(**kwargs)

    @classmethod
    def from_spec(cls, spec: "FaultPlanLike") -> "FaultPlan":
        """Accept a plan, a preset name, inline JSON, or an @file path."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if not isinstance(spec, str):
            raise TypeError(f"cannot build a FaultPlan from {spec!r}")
        text = spec.strip()
        if text in PRESETS:
            return PRESETS[text]
        if text.startswith("@"):
            return cls.from_dict(json.loads(Path(text[1:]).read_text()))
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        raise ValueError(
            f"unknown fault plan {spec!r}; expected one of "
            f"{sorted(PRESETS)}, inline JSON, or @path/to/plan.json"
        )


FaultPlanLike = object  # FaultPlan | str | dict — documentation alias


_COMPONENTS = {
    "loss": LossProfile,
    "icmp_rate_limit": IcmpRateLimitProfile,
    "delivery": DeliveryFaultProfile,
    "churn": PathChurnProfile,
    "flaky_devices": FlakyDeviceProfile,
}


# Named presets — the chaos grid and the CLI's ``--fault-plan`` accept
# these by name. Rates are chosen so the invariant suite's guarantees
# (±1 hop attribution under ≤5% loss) are testable per plan.
PRESETS: Dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "light": FaultPlan(
        name="light",
        loss=LossProfile(default_rate=0.01),
        icmp_rate_limit=IcmpRateLimitProfile(capacity=8, refill_rate=4.0),
    ),
    "lossy": FaultPlan(name="lossy", loss=LossProfile(default_rate=0.05)),
    "ratelimit": FaultPlan(
        name="ratelimit",
        icmp_rate_limit=IcmpRateLimitProfile(capacity=1, refill_rate=0.5),
    ),
    "churn": FaultPlan(
        name="churn",
        churn=PathChurnProfile(rehash_after_packets=5),
    ),
    "flaky": FaultPlan(
        name="flaky",
        flaky_devices=FlakyDeviceProfile(
            fail_open_rate=0.05, fail_closed_rate=0.02
        ),
    ),
    "duplicate": FaultPlan(
        name="duplicate",
        delivery=DeliveryFaultProfile(duplicate_rate=0.1, reorder_rate=0.1),
    ),
    "chaos": FaultPlan(
        name="chaos",
        loss=LossProfile(default_rate=0.03),
        icmp_rate_limit=IcmpRateLimitProfile(capacity=3, refill_rate=1.0),
        delivery=DeliveryFaultProfile(duplicate_rate=0.05, reorder_rate=0.05),
        churn=PathChurnProfile(rehash_after_packets=40),
        flaky_devices=FlakyDeviceProfile(fail_open_rate=0.02),
    ),
}


@dataclass
class FaultCounters:
    """Ground-truth tallies of injected faults (tests/debugging only)."""

    packets_lost: int = 0
    icmp_suppressed: int = 0
    duplicated: int = 0
    reordered: int = 0
    churn_epochs: int = 0
    fail_open: int = 0
    fail_closed: int = 0


class _TokenBucket:
    """Per-router ICMP budget, refilled by virtual time."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, capacity: float, stamp: float) -> None:
        self.tokens = float(capacity)
        self.stamp = stamp


class FaultState:
    """All mutable runtime state for one (plan, seed) pair.

    The simulator owns exactly one of these (or None); ``reset(seed)``
    restores the just-built state, which is what makes a faulted
    measurement a pure function of (world spec, fault plan, unit seed).
    """

    # Mixed into the seed so the fault RNG never tracks the loss RNG.
    _SEED_SALT = 0x5FAA17C3

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self.reset(seed)

    def reset(self, seed: int) -> None:
        """Restore just-built state (buckets, churn counters, RNG)."""
        self.seed = seed
        self.rng = random.Random((seed << 1) ^ self._SEED_SALT)
        self._buckets: Dict[str, _TokenBucket] = {}
        self.packets_sent = 0
        self.epoch = 0
        self._epoch_clock_start = 0.0
        self.counters = FaultCounters()

    # -- loss --------------------------------------------------------------

    @property
    def per_link_loss(self) -> bool:
        return self.plan.loss is not None

    # -- ICMP rate limiting ------------------------------------------------

    def icmp_suppressed(self, router, clock: float) -> bool:
        """Would ``router`` rate-limit an ICMP error right now?"""
        profile = self.plan.icmp_rate_limit
        if profile is None:
            return False
        bucket = self._buckets.get(router.name)
        if bucket is None:
            bucket = _TokenBucket(profile.capacity, clock)
            self._buckets[router.name] = bucket
        elif clock > bucket.stamp:
            bucket.tokens = min(
                float(profile.capacity),
                bucket.tokens + (clock - bucket.stamp) * profile.refill_rate,
            )
            bucket.stamp = clock
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return False
        self.counters.icmp_suppressed += 1
        return True

    # -- path churn --------------------------------------------------------

    def note_client_packet(self, clock: float) -> None:
        """Count a client send; advance the churn epoch when due."""
        churn = self.plan.churn
        if churn is None:
            return
        self.packets_sent += 1
        rehash = False
        if (
            churn.rehash_after_packets is not None
            and self.packets_sent >= churn.rehash_after_packets
        ):
            rehash = True
        if (
            churn.rehash_after_seconds is not None
            and clock - self._epoch_clock_start >= churn.rehash_after_seconds
        ):
            rehash = True
        if rehash:
            self.epoch += 1
            self.packets_sent = 0
            self._epoch_clock_start = clock
            self.counters.churn_epochs += 1

    def path_seed(self, base_seed: int) -> int:
        """The ECMP hash seed for the current churn epoch."""
        if self.epoch == 0:
            return base_seed
        return base_seed + 0x9E3779B1 * self.epoch

    # -- flaky devices -----------------------------------------------------

    def device_fate(self, device) -> str:
        """Roll whether ``device`` inspects, fails open, or fails closed."""
        profile = self.plan.flaky_devices
        if profile is None or not profile.applies_to(device):
            return FATE_INSPECT
        roll = self.rng.random()
        if roll < profile.fail_open_rate:
            self.counters.fail_open += 1
            return FATE_FAIL_OPEN
        if roll < profile.fail_open_rate + profile.fail_closed_rate:
            self.counters.fail_closed += 1
            return FATE_FAIL_CLOSED
        return FATE_INSPECT

    # -- delivery shaping --------------------------------------------------

    def shape_deliveries(self, deliveries: List, clone) -> List:
        """Apply duplication then reordering to client deliveries.

        ``clone`` builds an independent copy of a packet (duplicates
        must not alias — the whole point of the dispatch-boundary fix).
        """
        profile = self.plan.delivery
        if profile is None or not deliveries:
            return deliveries
        shaped = []
        for packet in deliveries:
            shaped.append(packet)
            if (
                profile.duplicate_rate > 0
                and self.rng.random() < profile.duplicate_rate
            ):
                shaped.append(clone(packet))
                self.counters.duplicated += 1
        if profile.reorder_rate > 0 and len(shaped) > 1:
            for i in range(len(shaped) - 1):
                if self.rng.random() < profile.reorder_rate:
                    shaped[i], shaped[i + 1] = shaped[i + 1], shaped[i]
                    self.counters.reordered += 1
        return shaped
