#!/usr/bin/env python3
"""Reproduce Figure 4 from the command line (small, fast configuration).

Runs the simulated contention sweep for both panels and prints the
throughput tables, ASCII charts and shape verdicts.  The full-resolution
version lives in benchmarks/bench_figure4_contention.py.

Run:  python examples/protocol_comparison.py [--fast]
"""

import sys
import time

from repro.bench import FIGURE4_LEFT, FIGURE4_RIGHT, full_report, run_figure


def report(duration_us: float, warmup_us: float) -> None:
    """Run both panels at ``duration_us`` virtual time per point and
    print each one's table, chart and shape verdicts."""
    for spec in (FIGURE4_LEFT, FIGURE4_RIGHT):
        start = time.perf_counter()
        run = run_figure(spec, duration_us=duration_us, warmup_us=warmup_us)
        elapsed = time.perf_counter() - start
        print(full_report(run))
        print(f"\n(regenerated in {elapsed:.1f}s wall clock, "
              f"{duration_us / 1000:g}ms virtual time per point)\n")
        print("=" * 72)


def main() -> None:
    fast = "--fast" in sys.argv
    report(
        duration_us=20_000.0 if fast else 60_000.0,
        warmup_us=5_000.0 if fast else 15_000.0,
    )


if __name__ == "__main__":
    main()
