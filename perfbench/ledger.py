"""Per-layer self-time ledger from a deterministic (cProfile) profile.

A layer is a package under ``src/repro/``.  Each profiled function's self
time goes to the package whose source file defines it.  Functions defined
outside ``src/repro/`` — C builtins such as ``heapq.heappush`` or compiled
``re`` matching, and Python code from the standard library or numpy — are
charged to the layer that called them, split over their callers in
proportion to the self time recorded on each caller edge (walking up
through callers that are themselves outside ``src/repro/``).  Without that
rule the kernel's heap operations and the R-GMA lexer's regex matching —
together 15–20 % of self time — would sit in no layer at all.  Time with no
``src/repro/`` caller anywhere above it (the benchmark's own glue) is
charged to ``harness``, the layer that owns the run functions.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Any, Iterator, Optional

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every package under ``src/repro/``; the tests keep this in step with the
#: source tree, so every package gets a ledger entry, 0 when it is idle.
LAYERS = (
    "cluster", "core", "edge", "faults", "federation", "gma", "harness", "jms",
    "narada", "plog", "powergrid", "rgma", "scenario", "sim", "telemetry",
    "transport", "webservices",
)
FALLBACK_LAYER = "harness"

#: Public entry points whose profiled call counts become per-message
#: ledger counts: metric -> (defining file, function name).  ``execute`` is
#: counted at the plain shim :func:`plain_entry_points` installs.
ENTRY_POINTS = {
    "execute": (__file__, "node_execute"),
    "transmit": (str(SRC_REPRO / "cluster" / "network.py"), "transmit"),
    "wire_size": (str(SRC_REPRO / "jms" / "message.py"), "body_wire_size"),
    "selector_evals": (str(SRC_REPRO / "jms" / "selector.py"), "matches"),
    "sql_parse": (str(SRC_REPRO / "rgma" / "sql.py"), "parse_sql"),
}

FuncKey = tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The ``src/repro/`` package defining ``filename``, else ``None``."""
    if filename.startswith("<") or filename == "~":
        return None
    rel = os.path.relpath(filename, SRC_REPRO)
    if rel.startswith(".."):
        return None
    head, sep, _ = rel.partition(os.sep)
    return head if sep else None


def attribute(stats: dict[FuncKey, tuple]) -> dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total self time."""
    memo: dict[FuncKey, dict[str, float]] = {}

    def shares(func: FuncKey, active: set[FuncKey]) -> dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        edges = [(c, e[2]) for c, e in callers.items() if c not in active]
        if edges and not any(w > 0 for _, w in edges):
            edges = [(c, callers[c][1]) for c, _ in edges]
        total = sum(w for _, w in edges)
        result: dict[str, float] = {}
        if total > 0:
            active.add(func)
            for caller, w in edges:
                for layer, share in shares(caller, active).items():
                    result[layer] = result.get(layer, 0.0) + share * w / total
            active.discard(func)
        if not result:
            result = {FALLBACK_LAYER: 1.0}
        memo[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt:
            for layer, share in shares(func, set()).items():
                seconds[layer] = seconds.get(layer, 0.0) + tt * share
    return seconds


def entry_counts(stats: dict[FuncKey, tuple]) -> dict[str, int]:
    """Profiled call counts of the :data:`ENTRY_POINTS`."""
    counts = dict.fromkeys(ENTRY_POINTS, 0)
    wanted = {where: metric for metric, where in ENTRY_POINTS.items()}
    for (filename, _line, name), (_cc, nc, *_rest) in stats.items():
        metric = wanted.get((filename, name))
        if metric is not None:
            counts[metric] += nc
    return counts


@contextlib.contextmanager
def plain_entry_points() -> Iterator[None]:
    """Make generator entry points count once per invocation.

    ``Node.execute`` is a generator, and cProfile records every resume of a
    generator as one more call.  This plain function returning the
    generator is called exactly once per invocation; ``yield from``
    delegates to the generator it returns, so the simulation is unchanged.
    Its own (tiny) self time lies outside ``src/repro/`` and so is charged
    to whichever layer asked for CPU time.
    """
    from repro.cluster.node import Node

    original = Node.execute

    def node_execute(self: Any, work: float) -> Any:
        return original(self, work)

    Node.execute = node_execute
    try:
        yield
    finally:
        Node.execute = original
