"""Gateway-tier tunables.

One frozen dataclass, so a sweep called with an ``EdgeConfig`` is keyed by
all of its fields: the runner's sweep cache takes frozen dataclasses into
its keys as themselves (see :mod:`repro.harness.cache`), and a sweep run
with a different gateway budget never satisfies a lookup for another.
"""

from __future__ import annotations

from dataclasses import dataclass

MiB = 1024 * 1024


@dataclass(frozen=True)
class EdgeConfig:
    """Behaviour and budgets of one :class:`~repro.edge.gateway.EdgeGateway`."""

    #: Server-side park time for an empty long-poll before it returns 204.
    long_poll_timeout: float = 60.0
    #: Modeled body bytes of one ``/edge/poll`` request (topic + cursor).
    poll_request_bytes: float = 96.0
    #: Modeled body bytes per event in a poll response.
    event_bytes: float = 140.0
    #: Entries retained per topic in the replay ring.
    replay_capacity: int = 4096
    #: Heap retained per parked client connection (socket buffers + parked
    #: request state); multiplied by the poll's cohort weight.
    parked_heap_bytes: float = 9216.0
    #: Fraction of the gateway heap parked connections may occupy before
    #: new polls are shed with 503.
    shed_heap_fraction: float = 0.85
    #: Cap on events returned by a single poll response.
    max_events_per_poll: int = 64
    #: Base + jitter for the 503 Retry-After hint (seconds).
    retry_after: float = 1.0
    retry_after_jitter: float = 2.0
    #: Failover catch-up overlap: a client that switches gateways asks for
    #: everything created since ``last_created - catch_up_margin`` and
    #: deduplicates the overlap client-side.
    catch_up_margin: float = 1.0
    #: Gateway JVM heap.
    heap_bytes: float = 1024 * MiB
    #: CPU charged on the gateway per event written into a response, and
    #: per poll request handled.
    cpu_per_event: float = 20e-6
    cpu_per_poll: float = 30e-6
