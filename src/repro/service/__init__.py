"""Campaign-as-a-service: an asyncio job queue over the campaign engine.

Real censorship-measurement platforms are standing services: many
vantage clients (ICLab nodes, Centinel-style probes) continuously
submit measurement requests to a shared backend, and the backend — not
each client — decides what actually runs. This package puts that front
end over the repo's campaign engine:

* :class:`CampaignService` (``queue.py``) — the queue itself:
  per-tenant rate limits, priorities, request **coalescing** (identical
  work units execute once and fan out to every subscriber), bounded
  backpressure, and retry-or-report on worker death.
* ``jobs.py`` — the request/result data model (:class:`WorldKey`,
  :class:`ProbeRequest`, :class:`UnitResult`, :class:`ResultStream`).
* :func:`run_campaign_via_service` (``campaigns.py``) — drives a whole
  country campaign through the queue as shuffled, duplicate-heavy
  multi-tenant requests and reassembles a
  :class:`~repro.experiments.campaign.CountryCampaign` that is
  byte-identical to a direct :func:`~repro.experiments.campaign.run_campaign`.
* :func:`run_swarm` (``swarm.py``) — the synthetic client swarm behind
  ``repro serve`` and the CI smoke job.

The load-bearing invariant: **scheduling decides when a unit runs,
never what it computes.** Every unit executes through the executor's
``prepare_unit`` reset protocol, so its result is a pure function of
(world spec, unit content, repetitions) — request interleaving, tenant
mix, priorities and coalescing cannot change a single byte.
"""

from .jobs import (
    ProbeRequest,
    ResultStream,
    ServiceError,
    UnitResult,
    WorldKey,
    work_key,
)
from .queue import CampaignService, ServiceConfig
from .campaigns import run_campaign_via_service
from .swarm import SwarmConfig, SwarmReport, run_swarm

__all__ = [
    "CampaignService",
    "ServiceConfig",
    "ProbeRequest",
    "ResultStream",
    "ServiceError",
    "UnitResult",
    "WorldKey",
    "work_key",
    "run_campaign_via_service",
    "SwarmConfig",
    "SwarmReport",
    "run_swarm",
]
