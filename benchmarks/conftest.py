"""Shared configuration for the benchmark suite.

Benchmarks run the simulated Figure-4 workload at a reduced virtual
duration (the curves stabilise well below the default); the
full-resolution sweep is available via ``examples/protocol_comparison.py``.

Machine-readable results: every benchmark module writes a
``BENCH_<name>.json`` next to this file so the perf trajectory is tracked
across PRs.  Two sources feed it:

* :func:`record_bench` — domain metrics (throughput, speedups, configs)
  recorded explicitly by the benchmark bodies;
* a ``pytest_sessionfinish`` hook that dumps per-test wall-clock timing
  (mean / p50 / p99) for every pytest-benchmark measurement of the run.

``--smoke`` shrinks parameter grids for the non-blocking CI smoke job;
smoke runs write their results to ``BENCH_<name>.smoke.json`` so they can
never clobber a committed full-run ``BENCH_<name>.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

#: Virtual measurement window per benchmark point (microseconds).
BENCH_DURATION_US = 30_000.0
BENCH_WARMUP_US = 8_000.0

RESULTS_DIR = Path(__file__).resolve().parent

#: Set by ``pytest_configure``: a --smoke session redirects every
#: ``record_bench`` write (including the timing dump) to the sidecar
#: ``BENCH_<name>.smoke.json`` — smoke grids are not comparable to the
#: committed full-run numbers and must never overwrite them.
_SMOKE_SESSION = False


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink benchmark grids to a fast CI smoke subset",
    )


def pytest_configure(config):
    global _SMOKE_SESSION
    _SMOKE_SESSION = bool(config.getoption("--smoke", default=False))


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


def report_lines(title: str, lines: list[str]) -> None:
    """Print a labelled report block (captured into bench output logs)."""
    print()
    print(f"=== {title} ===")
    for line in lines:
        print(line)


def _result_path(module_file: str) -> Path:
    name = Path(module_file).stem.removeprefix("bench_")
    suffix = ".smoke.json" if _SMOKE_SESSION else ".json"
    return RESULTS_DIR / f"BENCH_{name}{suffix}"


def record_bench(module_file: str, section: str, payload: dict) -> None:
    """Merge one section of machine-readable results into the module's
    ``BENCH_<name>.json``.  Called as ``record_bench(__file__, "...", {...})``;
    written incrementally so partial runs still leave a file behind.  A
    ``--smoke`` session writes to ``BENCH_<name>.smoke.json`` instead —
    the committed full-run results are never clobbered by a CI smoke run.
    """
    path = _result_path(module_file)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n")


def _percentile(data: list[float], q: float) -> float:
    if not data:
        return 0.0
    ordered = sorted(data)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def latency_stats(samples: list[float], scale: float = 1.0) -> dict:
    """Tail-visible summary of a latency sample set: count, mean and the
    p50/p95/p99 percentiles (scaled, e.g. ``scale=1e3`` for s -> ms).

    The shared shape for every ``BENCH_<name>.json`` latency payload:
    means alone hide exactly the tail spikes this trajectory tracks, so
    benchmark sections record these percentiles rather than bare averages.
    """
    return {
        "count": len(samples),
        "mean": (sum(samples) / len(samples)) * scale if samples else 0.0,
        "p50": _percentile(samples, 0.50) * scale,
        "p95": _percentile(samples, 0.95) * scale,
        "p99": _percentile(samples, 0.99) * scale,
    }


def pytest_sessionfinish(session, exitstatus):
    """Dump per-test timing stats for every pytest-benchmark measurement."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: dict[str, dict] = {}
    for bench in bench_session.benchmarks:
        module_file = bench.fullname.split("::", 1)[0]
        data = list(getattr(bench.stats, "data", []) or [])
        by_module.setdefault(module_file, {})[bench.name] = {
            "group": bench.group,
            "rounds": len(data),
            "mean_s": sum(data) / len(data) if data else 0.0,
            "p50_s": _percentile(data, 0.50),
            "p95_s": _percentile(data, 0.95),
            "p99_s": _percentile(data, 0.99),
        }
    for module_file, timings in by_module.items():
        record_bench(module_file, "timings", timings)
