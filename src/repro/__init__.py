"""Reproduction of "Network Measurement Methods for Locating and
Examining Censorship Devices" (CoNEXT 2022).

The package provides the paper's three measurement tools and analysis
pipeline, plus the simulated network substrate they run on:

* :mod:`repro.core.centrace` — CenTrace, the censorship traceroute (§4)
* :mod:`repro.core.cenprobe` — CenProbe, device banner grabs (§5)
* :mod:`repro.core.cenfuzz` — CenFuzz, deterministic request fuzzing (§6)
* :mod:`repro.analysis` — feature extraction, random-forest feature
  importance and DBSCAN clustering (§7)
* :mod:`repro.netsim` / :mod:`repro.netmodel` — the packet-level network
  simulator and byte-accurate protocol models
* :mod:`repro.devices` — censorship middlebox models (vendor catalog)
* :mod:`repro.geo` — the AZ/BY/KZ/RU study worlds and IP metadata
* :mod:`repro.experiments` — one module per paper table/figure

Importing ``repro`` loads none of these: each entry point imports only
the subpackages it runs, so a short measurement command does not pay
for scipy or networkx (see DESIGN.md, "Import surface").

Quickstart::

    from repro.geo import build_world
    from repro.core.centrace import CenTrace

    world = build_world("KZ")
    tracer = CenTrace(world.sim, world.remote_client, asdb=world.asdb)
    result = tracer.measure(world.endpoints[0].ip, world.test_domains[0])
    print(result.brief())
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "persist",
    "core",
    "devices",
    "experiments",
    "geo",
    "netmodel",
    "netsim",
    "services",
    "viz",
    "__version__",
]
