"""Parallel sweep execution across a process pool.

Every sweep point (one ``narada_run`` / ``rgma_run`` / ``plog_run`` at one
connection count) is an independent simulation: it builds its own
:class:`~repro.sim.kernel.Simulator` from the same ``(scale, seed)`` and
shares no mutable state with its siblings.  That makes the fan-out
trivially deterministic — a point computes the same record book whether it
runs in-process or in a worker — so ``--jobs N`` and ``--jobs 1`` produce
byte-identical results (asserted by ``tests/harness/test_parallel.py``).

Workers are addressed by ``(module, function, kwargs)`` specs rather than
callables so the pool only ever pickles plain data.  When the parent has
an active telemetry session, each worker observes its point under a fresh
session and ships back an :func:`~repro.telemetry.merge.export_telemetry`
snapshot; the parent merges the snapshots **in point order**, keeping
``--trace`` / ``--metrics-out`` complete and reproducible under fan-out.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional, Sequence

from repro.telemetry import context as tel_context

#: Environment variable consulted when a jobs count is not given explicitly.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None, default: Optional[int] = None) -> int:
    """The effective worker count.

    Explicit ``jobs`` wins; else ``$REPRO_JOBS``; else ``default`` (the CLI
    passes the machine's CPU count, library callers leave it at 1 so plain
    ``run()`` calls never fork unless asked to).
    """
    if jobs is not None:
        n = int(jobs)
    else:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            n = int(env)
        elif default is not None:
            n = int(default)
        else:
            n = 1
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    return n


def _books_of(result: Any) -> list:
    """The record books a run result carries (for span re-binding)."""
    book = getattr(result, "book", None)
    return [book] if book is not None else []


def _run_point(spec: tuple) -> tuple[Any, Optional[dict]]:
    """Worker entry: run one ``fn(**kwargs)`` sweep point.

    With ``fork`` start the child inherits the parent's telemetry stack;
    that session's marks could never travel back through it, so the stack
    is cleared and — when the parent had a session — replaced by a fresh
    one whose snapshot ships home in the return value.
    """
    module_name, fn_name, kwargs, with_telemetry = spec
    fn = getattr(importlib.import_module(module_name), fn_name)
    tel_context._stack.clear()
    if not with_telemetry:
        return fn(**kwargs), None
    from repro.telemetry import Telemetry
    from repro.telemetry.merge import export_telemetry

    telemetry = Telemetry(label=f"worker:{fn_name}")
    with tel_context.session(telemetry):
        result = fn(**kwargs)
    return result, export_telemetry(telemetry, books=_books_of(result))


def map_points(
    module_name: str,
    fn_name: str,
    kwargs_list: Sequence[dict],
    jobs: Optional[int] = None,
) -> list[Any]:
    """Run ``fn(**kwargs)`` for every kwargs dict; results in input order.

    ``jobs <= 1`` (after :func:`resolve_jobs`) or a single point runs the
    exact serial path — direct in-process calls, no executor, the parent's
    telemetry session observing live.  Otherwise points fan out over a
    :class:`ProcessPoolExecutor` and telemetry exports merge back in point
    order.
    """
    jobs = resolve_jobs(jobs)
    fn = getattr(importlib.import_module(module_name), fn_name)
    if jobs <= 1 or len(kwargs_list) <= 1:
        return [fn(**kwargs) for kwargs in kwargs_list]

    telemetry = tel_context.current()
    specs = [
        (module_name, fn_name, kwargs, telemetry is not None)
        for kwargs in kwargs_list
    ]
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        outcomes = list(pool.map(_run_point, specs))

    results: list[Any] = []
    if telemetry is not None:
        from repro.telemetry.merge import merge_telemetry

        for result, export in outcomes:
            if export is not None:
                merge_telemetry(telemetry, export, books=_books_of(result))
            results.append(result)
    else:
        results = [result for result, _ in outcomes]
    return results


def sweep(
    module_name: str,
    fn_name: str,
    param: str,
    values: Sequence[Any],
    jobs: Optional[int] = None,
    **common: Any,
) -> dict[Any, Any]:
    """``fn(param=value, **common)`` for every value, fanned out by
    :func:`map_points`; results keyed by value, in input order."""
    points = [{param: value, **common} for value in values]
    return dict(zip(values, map_points(module_name, fn_name, points, jobs=jobs)))
