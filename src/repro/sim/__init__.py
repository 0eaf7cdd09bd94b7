"""Discrete-event concurrency simulator (the paper's testbed substitute).

Runs the Figure-4 benchmark in virtual time over the real protocol data
structures, sidestepping the GIL for concurrency measurements: CPython
threads serialise on the interpreter lock, so real-thread throughput
would show the GIL rather than how MVCC, S2PL and BOCC contend.  The
simulator keeps the protocols' real read/write sets, version arrays and
validation logic and charges each step a virtual service time instead.
"""

from .clients import CLIENTS, SimEnvironment, SimStats
from .costmodel import CostModel, SimCache
from .des import Acquire, Delay, Release, Simulator
from .harness import SimResult, run_benchmark, sweep_theta
from .resources import SimLatch, SimLock

__all__ = [
    "Acquire",
    "CLIENTS",
    "CostModel",
    "Delay",
    "Release",
    "SimCache",
    "SimEnvironment",
    "SimLatch",
    "SimLock",
    "SimResult",
    "SimStats",
    "Simulator",
    "run_benchmark",
    "sweep_theta",
]
