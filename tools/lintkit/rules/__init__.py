"""Rule passes. Importing this package registers every rule.

Adding a pass: create a module here, subclass ``FileRule``,
``ProjectRule``, or ``IndexRule`` with a fresh ``RPxxx`` id, decorate
with ``@register``, and import the module below. Each invariant family
owns a hundred block: RP0xx the framework itself (stale pragmas),
RP1xx determinism clocks, RP2xx RNG discipline, RP3xx iteration order,
RP4xx layering, RP5xx shared state, RP6xx the telemetry registry,
RP8xx async safety, RP9xx the typed error contract.
"""

from . import pragmas  # noqa: F401  (RP001)
from . import wallclock  # noqa: F401  (RP101)
from . import rng  # noqa: F401  (RP201-RP203)
from . import iteration  # noqa: F401  (RP301-RP302)
from . import layering  # noqa: F401  (RP401-RP402)
from . import mutable_state  # noqa: F401  (RP501-RP503)
from . import telemetry_contract  # noqa: F401  (RP601-RP603)
from . import async_safety  # noqa: F401  (RP801-RP802)
from . import error_contract  # noqa: F401  (RP901-RP902)
