"""One benchmark leg in a fresh interpreter; prints one JSON line.

    python3 perfbench/leg.py --workload narada_fanin --seed 1 --mode time

Modes:

* ``time``  — run the leg untraced; report its host seconds (build through
  ``sim.run`` to collect), its outputs and the process's peak RSS.
* ``setup`` — stop as soon as the leg enters its main ``Simulator.run``;
  only the set-up timestamp is reported.
* ``trace`` — run the leg under cProfile and report the per-layer ledger.

Every mode reports ``run_entered_at``: the system-wide monotonic clock at
the moment the leg first entered ``Simulator.run``.  The parent subtracts
the clock reading it took just before spawning this process, which gives
set-up time from interpreter start, imports included.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.harness.scale import Scale  # noqa: E402
from repro.powergrid import receiver  # noqa: E402
from repro.sim import Simulator  # noqa: E402

import ledger  # noqa: E402
from workloads import WORKLOADS, layer_counters, outputs  # noqa: E402


class _SetupDone(Exception):
    """Raised at main-run entry to end a ``setup`` probe."""


class RunProbe:
    """Wraps ``Simulator.run`` to note the simulator and its first entry time."""

    def __init__(self, stop_at_entry: bool):
        self.stop_at_entry = stop_at_entry
        self.sim = None
        self.entered_at = None
        self._original = Simulator.run

    def __enter__(self) -> "RunProbe":
        original = self._original
        probe = self

        def run(sim, until=None):
            if probe.entered_at is None:
                probe.entered_at = time.clock_gettime(time.CLOCK_MONOTONIC)
                probe.sim = sim
                if probe.stop_at_entry:
                    raise _SetupDone
            return original(sim, until)

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._original


class SinkProbe:
    """Collects every receiver the leg builds, for its own delivery counts."""

    CLASSES = (receiver.NaradaReceiver, receiver.PlogReceiver, receiver.RgmaReceiver)

    def __init__(self) -> None:
        self.sinks: list = []
        self._originals = {cls: cls.__init__ for cls in self.CLASSES}

    def __enter__(self) -> "SinkProbe":
        for cls, original in self._originals.items():
            def init(sink, *args, _original=original, **kwargs):
                _original(sink, *args, **kwargs)
                self.sinks.append(sink)

            cls.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals.items():
            cls.__init__ = original


def run_leg(workload: str, seed: int, mode: str, scale: Scale) -> dict:
    leg = WORKLOADS[workload].run
    report: dict = {"workload": workload, "seed": seed, "mode": mode}
    with RunProbe(stop_at_entry=mode == "setup") as probe, SinkProbe() as sinks:
        if mode == "setup":
            try:
                leg(seed, scale)
            except _SetupDone:
                pass
            else:
                raise RuntimeError("leg never entered Simulator.run")
        elif mode == "time":
            t0 = time.perf_counter()
            result = leg(seed, scale)
            report["leg_s"] = time.perf_counter() - t0
        else:
            import cProfile
            import pstats

            profile = cProfile.Profile()
            with ledger.plain_entry_points():
                t0 = time.perf_counter()
                profile.enable()
                result = leg(seed, scale)
                profile.disable()
                report["leg_s"] = time.perf_counter() - t0
            # pstats' raw table: {func: (cc, nc, tt, ct, callers)}.
            stats = pstats.Stats(profile).stats
            report["layer_s"] = ledger.attribute(stats)
            report["profile_total_s"] = sum(row[2] for row in stats.values())
            report["entry_counts"] = ledger.entry_counts(stats)
    report["run_entered_at"] = probe.entered_at
    if mode != "setup":
        report["outputs"] = outputs(
            result, probe.sim.events_scheduled, sinks.sinks
        )
        report["counters"] = layer_counters(result)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("time", "setup", "trace"), default="time")
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    args = parser.parse_args(argv)
    report = run_leg(args.workload, args.seed, args.mode, Scale.named(args.scale))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
