"""The paper's performance metrics (§III.C), vectorised with numpy.

"RTT was calculated as the mean round-trip time of all the messages. ...
RTT variation was calculated as the standard deviation (STDDEV) of all the
round-trip times.  Percentile of RTT was the percentage of the round-trip
times."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.records import MessageRecord, RecordBook

#: The percentile grid used by every percentile figure (Figs 4, 8-10, 12, 14).
PERCENTILE_POINTS = (95.0, 96.0, 97.0, 98.0, 99.0, 100.0)


@dataclass(frozen=True)
class RttStats:
    """Headline numbers for one test run."""

    count: int
    sent: int
    mean_ms: float
    stddev_ms: float
    min_ms: float
    max_ms: float
    loss_rate: float

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"RTT {self.mean_ms:.1f} ms ± {self.stddev_ms:.1f} "
            f"(n={self.count}, loss {self.loss_rate * 100:.2f}%)"
        )


@dataclass(frozen=True)
class PhaseBreakdown:
    """Fig 15: mean phase durations, RTT = PRT + PT + SRT."""

    prt_ms: float
    pt_ms: float
    srt_ms: float

    @property
    def rtt_ms(self) -> float:
        return self.prt_ms + self.pt_ms + self.srt_ms


def rtt_stats(book: RecordBook, since: float = 0.0) -> RttStats:
    """Mean/STDDEV RTT and loss over messages sent at/after ``since``.

    Edge cases: an empty window (nothing sent) is all-zeros with zero loss;
    a window where everything sent was lost keeps NaN latencies (there is
    no RTT to report, and a zero would read as "instant") with loss 1.0.
    """
    relevant = [r for r in book.records if r.t_before_send >= since]
    sent = len(relevant)
    rtts = np.array([r.rtt for r in relevant if r.delivered], dtype=float)
    if rtts.size == 0:
        if sent == 0:
            return RttStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return RttStats(0, sent, float("nan"), float("nan"), float("nan"),
                        float("nan"), 1.0)
    return RttStats(
        count=int(rtts.size),
        sent=sent,
        mean_ms=float(rtts.mean() * 1e3),
        stddev_ms=float(rtts.std(ddof=0) * 1e3),
        min_ms=float(rtts.min() * 1e3),
        max_ms=float(rtts.max() * 1e3),
        loss_rate=1.0 - rtts.size / sent if sent else 0.0,
    )


def loss_rate(sent: int, received: int) -> float:
    """Fraction of messages lost."""
    if received > sent:
        raise ValueError(f"received {received} > sent {sent}")
    return 0.0 if sent == 0 else 1.0 - received / sent


def percentile_curve(
    rtts_seconds: Sequence[float] | np.ndarray,
    points: Sequence[float] = PERCENTILE_POINTS,
) -> list[tuple[float, float]]:
    """(percentile, RTT ms) pairs — one figure series.

    ``numpy.percentile`` with linear interpolation; the 100th percentile is
    the maximum, matching how the paper's plots terminate.  No samples →
    no curve (an empty list, not NaN points, so plots and tables simply
    omit the series instead of rendering NaNs).
    """
    arr = np.asarray(rtts_seconds, dtype=float)
    if arr.size == 0:
        return []
    values = np.percentile(arr, list(points)) * 1e3
    return [(float(p), float(v)) for p, v in zip(points, values)]


def rtt_percentiles(
    rtts_seconds: Sequence[float] | np.ndarray, points: Sequence[float]
) -> tuple[float, ...]:
    """RTT in milliseconds at each of ``points`` (e.g. ``(50, 99)``).

    Unlike :func:`percentile_curve`, a table cell needs a value even when
    nothing was measured: no samples gives one NaN per point.
    """
    if len(rtts_seconds) == 0:
        return tuple(float("nan") for _ in points)
    return tuple(float(np.percentile(rtts_seconds, p) * 1e3) for p in points)


def within_threshold(
    rtts_seconds: Sequence[float] | np.ndarray, threshold_s: float
) -> float:
    """Fraction of messages within ``threshold_s`` (e.g. the paper's
    '99.8% of messages arrived within 100 milliseconds').

    With zero samples the constraint is vacuously satisfied (1.0); note
    that loss is tracked separately, so "nothing delivered" shows up in
    ``loss_rate``, not here.
    """
    arr = np.asarray(rtts_seconds, dtype=float)
    if arr.size == 0:
        return 1.0
    return float((arr <= threshold_s).mean())


def decompose(book: RecordBook, since: float = 0.0) -> PhaseBreakdown:
    """Mean PRT / PT / SRT over fully-stamped delivered messages."""
    rows = [
        r
        for r in book.records
        if r.delivered
        and r.t_arrived is not None
        and r.t_after_send is not None
        and r.t_before_send >= since
    ]
    if not rows:
        return PhaseBreakdown(float("nan"), float("nan"), float("nan"))
    prt = np.array([r.prt for r in rows])
    srt = np.array([r.srt for r in rows])
    pt = np.array([r.pt for r in rows])
    return PhaseBreakdown(
        prt_ms=float(prt.mean() * 1e3),
        pt_ms=float(pt.mean() * 1e3),
        srt_ms=float(srt.mean() * 1e3),
    )


def soft_realtime_compliance(
    book: RecordBook,
    deadline_s: float = 5.0,
    max_loss: float = 0.005,
    since: float = 0.0,
) -> tuple[bool, float, float]:
    """The paper's §I requirement: data within ~5 s, delays/loss < 0.5 %.

    Returns (compliant, fraction_late_or_lost, loss_rate).
    """
    relevant = [r for r in book.records if r.t_before_send >= since]
    if not relevant:
        return True, 0.0, 0.0
    late_or_lost = sum(
        1 for r in relevant if not r.delivered or r.rtt > deadline_s
    )
    lost = sum(1 for r in relevant if not r.delivered)
    frac = late_or_lost / len(relevant)
    return frac <= max_loss, frac, lost / len(relevant)
