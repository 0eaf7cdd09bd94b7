"""Figure/table specifications: what the paper's evaluation reports.

The paper's evaluation section contains a single figure — Figure 4, two
panels of throughput (K tps) vs. contention θ for 4 and 24 concurrent
ad-hoc queries, one curve per protocol.  This module pins those axes and
the qualitative expectations the reproduction must match, so the benchmark
harness, its tests and ``examples/protocol_comparison.py`` check one
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: The θ sweep of Figure 4 (x-axis 0.0 .. 3.0).
FIGURE4_THETAS: list[float] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9]

#: The protocols compared (curve order as in the paper's legend).
PROTOCOLS: list[str] = ["mvcc", "s2pl", "bocc"]

#: Reader counts of the two panels.
FIGURE4_PANELS: dict[str, int] = {"left": 4, "right": 24}


@dataclass
class ExpectedShape:
    """Qualitative expectations extracted from Section 5.2."""

    #: MVCC throughput never drops below this fraction of its θ=0 value.
    mvcc_stability_floor: float = 0.9
    #: S2PL at max θ must fall below this fraction of its θ=0 value.
    s2pl_collapse_ceiling: float = 0.6
    #: BOCC at max θ must fall below this fraction of its θ=0 value.
    bocc_collapse_ceiling: float = 0.75
    #: BOCC's edge over MVCC at θ=0 with many readers: within this band.
    bocc_low_contention_edge: tuple[float, float] = (0.0, 0.15)
    #: MVCC must beat both baselines at max θ by at least this factor.
    mvcc_win_factor_high_theta: float = 1.5


@dataclass
class FigureSpec:
    """One reproducible experiment unit (figure panel or ablation)."""

    experiment_id: str
    description: str
    thetas: list[float] = field(default_factory=lambda: list(FIGURE4_THETAS))
    readers: int = 4
    protocols: list[str] = field(default_factory=lambda: list(PROTOCOLS))
    expected: ExpectedShape = field(default_factory=ExpectedShape)


FIGURE4_LEFT = FigureSpec(
    experiment_id="figure4-left",
    description=(
        "Throughput vs contention, 4 concurrent ad-hoc queries, persistent "
        "synchronous writes, medium transactions (10 ops)"
    ),
    readers=4,
)

FIGURE4_RIGHT = FigureSpec(
    experiment_id="figure4-right",
    description=(
        "Throughput vs contention, 24 concurrent ad-hoc queries, persistent "
        "synchronous writes, medium transactions (10 ops)"
    ),
    readers=24,
)

ALL_FIGURES = [FIGURE4_LEFT, FIGURE4_RIGHT]
