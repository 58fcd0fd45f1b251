"""Run-scale presets.

Simulated statistics converge long before the paper's 30 wall-clock minutes,
so the default ``bench`` scale publishes for ~80 simulated seconds per
generator and compresses the creation stagger.  Connection counts are left
untouched at either scale — they are the experiments' independent variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Time-compression preset for harness runs."""

    name: str
    #: Per-generator publishing duration (paper: 1800 s).
    duration: float
    #: Generator creation stagger for Narada tests (paper: 0.5 s).
    creation_interval_narada: float
    #: Generator creation stagger for R-GMA tests (paper: 1.0 s).
    creation_interval_rgma: float
    #: Warm-up sleep range (paper: 10-20 s).
    warmup: tuple[float, float]
    #: Extra simulated time to let in-flight messages drain at the end.
    drain: float

    @classmethod
    def bench(cls) -> "Scale":
        return cls(
            name="bench",
            duration=80.0,
            creation_interval_narada=0.02,
            creation_interval_rgma=0.03,
            warmup=(4.0, 8.0),
            drain=20.0,
        )

    @classmethod
    def smoke(cls) -> "Scale":
        """Tiny preset for unit tests of the harness itself."""
        return cls(
            name="smoke",
            duration=30.0,
            creation_interval_narada=0.01,
            creation_interval_rgma=0.01,
            warmup=(1.0, 2.0),
            drain=10.0,
        )

    @classmethod
    def full(cls) -> "Scale":
        """The paper's parameters."""
        return cls(
            name="full",
            duration=1800.0,
            creation_interval_narada=0.5,
            creation_interval_rgma=1.0,
            warmup=(10.0, 20.0),
            drain=40.0,
        )

    @classmethod
    def from_env(cls) -> "Scale":
        """``REPRO_FULL=1`` selects the paper-scale preset."""
        return cls.full() if os.environ.get("REPRO_FULL") == "1" else cls.bench()

    @classmethod
    def named(cls, name: str) -> "Scale":
        presets = {"bench": cls.bench, "smoke": cls.smoke, "full": cls.full}
        if not isinstance(name, str) or name not in presets:
            raise ValueError(
                f"unknown scale {name!r}; choose from {', '.join(presets)}"
            )
        return presets[name]()
