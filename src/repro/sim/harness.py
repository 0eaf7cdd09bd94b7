"""Simulation harness: run the Figure-4 workload and report throughput.

One :func:`run_benchmark` call = one point of Figure 4: a protocol, a
contention level θ and a number of concurrent ad-hoc readers.  The harness
spawns 1 stream writer + N readers, runs the virtual clock for
``duration_us`` (after a warm-up period that fills the cache), and reports
committed transactions per virtual second.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BenchmarkError
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from .clients import CLIENTS, SimEnvironment, bocc_reader, bocc_writer
from .costmodel import CostModel
from .des import Simulator


@dataclass
class SimResult:
    """Outcome of one simulated benchmark point."""

    protocol: str
    theta: float
    readers: int
    duration_us: float
    reader_commits: int
    writer_commits: int
    reader_aborts: int
    writer_aborts: int
    lock_waits: int
    cache_hit_ratio: float
    events: int

    @property
    def commits(self) -> int:
        return self.reader_commits + self.writer_commits

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per (virtual) second."""
        if self.duration_us <= 0:
            return 0.0
        return self.commits / (self.duration_us / 1_000_000.0)

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1000.0

    @property
    def abort_rate(self) -> float:
        attempts = self.commits + self.reader_aborts + self.writer_aborts
        if attempts == 0:
            return 0.0
        return (self.reader_aborts + self.writer_aborts) / attempts


def run_benchmark(
    protocol: str,
    theta: float,
    readers: int,
    writers: int = 1,
    duration_us: float = 200_000.0,
    warmup_us: float = 50_000.0,
    config: WorkloadConfig | None = None,
    cost: CostModel | None = None,
    seed: int = 42,
) -> SimResult:
    """Run one simulated benchmark point; returns the measured result.

    ``duration_us`` is *measured* virtual time; a preceding ``warmup_us``
    window lets caches and queues reach steady state before counters are
    reset (the paper's throughput is likewise steady-state).
    """
    if protocol not in CLIENTS:
        raise BenchmarkError(f"unknown protocol {protocol!r}; known: {sorted(CLIENTS)}")
    if readers < 0 or writers < 0 or readers + writers == 0:
        raise BenchmarkError("need at least one client")

    base = config or WorkloadConfig()
    workload = WorkloadConfig(
        table_size=base.table_size,
        txn_length=base.txn_length,
        theta=theta,
        value_bytes=base.value_bytes,
        seed=seed,
        states=base.states,
    )
    env = SimEnvironment(workload, cost)
    sim = Simulator()
    deadline = warmup_us + duration_us

    reader_fn, writer_fn = CLIENTS[protocol]
    needs_id = reader_fn is bocc_reader
    for i in range(readers):
        wl = WorkloadGenerator(workload, seed_offset=1000 + i)
        if needs_id:
            sim.spawn(reader_fn(env, sim, wl, deadline, i))
        else:
            sim.spawn(reader_fn(env, sim, wl, deadline))
    for i in range(writers):
        wl = WorkloadGenerator(workload, seed_offset=5000 + i)
        if writer_fn is bocc_writer:
            sim.spawn(writer_fn(env, sim, wl, deadline, 10_000 + i))
        else:
            sim.spawn(writer_fn(env, sim, wl, deadline))

    sim.run_until(warmup_us)
    # reset counters after warm-up: measure steady state only
    env.stats.reader_commits = 0
    env.stats.writer_commits = 0
    env.stats.reader_aborts = 0
    env.stats.writer_aborts = 0
    env.stats.lock_waits = 0
    sim.run_to_completion()

    return SimResult(
        protocol=protocol,
        theta=theta,
        readers=readers,
        duration_us=duration_us,
        reader_commits=env.stats.reader_commits,
        writer_commits=env.stats.writer_commits,
        reader_aborts=env.stats.reader_aborts,
        writer_aborts=env.stats.writer_aborts,
        lock_waits=env.stats.lock_waits,
        cache_hit_ratio=env.cache.hit_ratio(),
        events=sim.events_processed,
    )


def sweep_theta(
    protocol: str,
    thetas: list[float],
    readers: int,
    **kwargs: object,
) -> list[SimResult]:
    """One protocol's Figure-4 curve: throughput over the θ sweep."""
    return [run_benchmark(protocol, theta, readers, **kwargs) for theta in thetas]
