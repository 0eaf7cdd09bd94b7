"""Real-engine benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``ingest_replicated``, ``adhoc_cold``, ``adhoc_pinned`` and ``stream_hot``.

Every run happens in a fresh interpreter with a fixed ``PYTHONHASHSEED``
(the launcher re-executes itself when the variable is not set), so two
runs with one seed feed the engine identical inputs.  A run:

1. sets the workload up ``SETUPS`` times — engine construction, bulk
   load, on-disk build and ``open()``, and a fixed-count warm-up — and
   reports the median as ``setup_s``.  Each set-up gets its own data
   directory under ``.perfbench_state/`` that is deleted outside every
   timed region.  The warm-up's timing-independent layer counters must be
   identical across the set-ups and across runs with the same seed and
   source tree, or the run fails;
2. measures the last set-up with the closed-loop client, which runs a
   fixed number of steps: ``--seconds`` times the workload's nominal rate
   (``--trace 0``), or half of them untraced and half with the span
   recorder installed (``--trace 1``);
3. checks the final state against a reference replay of every committed
   transaction.

The machine's speed is measured alongside: a fixed pure-Python reference
task runs before and after every set-up and between the ``SEGMENTS``
segments of the measured phase, while the client waits, and is timed
in the main thread's CPU time, so engine daemons holding the interpreter
lock do not lengthen it.  Every end-to-end time is reported at reference
speed: the measured value times ``REFERENCE_S`` over the median reference
time taken around it (rates are divided by that factor).  The 2-core VM
this benchmark was written on runs from 0.7x to 1.3x its typical speed as
neighbours load the host, in stretches of a fraction of a second to many
minutes; the engine's timings follow, and the factor takes that out.
The table on standard output also prints the measured values.

The last line of standard output is the result object; progress and
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HASH_SEED = "0"
SETUPS = 3
#: Runs of the reference task before and after a set-up, and between
#: two segments of the measured phase.
SETUP_REFERENCE_REPS = 4
PHASE_REFERENCE_REPS = 2
#: The reference task's time on a typical 2-core VM: the speed that the
#: end-to-end times are reported at.
REFERENCE_S = 0.025
ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench_state"


def _relaunch() -> int:
    """Re-run this script in a fresh interpreter with the fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env)
    return proc.returncode


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def _reference_task() -> int:
    """Fixed interpreter work of the engine's kind: tuples, dict inserts
    and lookups, a sort and a pickle round trip."""
    table: dict[int, tuple] = {}
    rows = []
    for i in range(30_000):
        row = ((i * 7919) % 4099, i, i & 0xFF)
        table[row[0]] = row
        rows.append(row)
    rows.sort()
    pickle.loads(pickle.dumps(rows[:8000]))
    return sum(table[key][1] for key in range(0, 4099, 3))


def _reference_times(reps: int) -> list[float]:
    """``reps`` runs of the reference task, each in this thread's CPU
    seconds.  The cyclic collector is off meanwhile, so the times do not
    depend on how many objects the engine has left on the heap."""
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.thread_time()
            _reference_task()
            times.append(time.thread_time() - t0)
    finally:
        gc.enable()
    return times


def _rss_bytes() -> int:
    """The process's current resident set size."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _merge(segments: list) -> tuple:
    """The measured phase's samples as measured, the same at reference
    speed (each segment's times scaled by ``REFERENCE_S`` over the mean of
    the reference times taken just before and just after it), and each
    segment's rows per second, as measured and at reference speed."""
    from workloads import Samples

    measured, scaled = Samples(), Samples()
    rates: list[float] = []
    scaled_rates: list[float] = []
    for segment in segments:
        part = segment.samples
        factor = REFERENCE_S / ((segment.before + segment.after) / 2)
        measured.merge(part)
        scaled.txn += [t * factor for t in part.txn]
        scaled.query += [t * factor for t in part.query]
        scaled.scan += [t * factor for t in part.scan]
        rates.append(part.rows / part.elapsed)
        scaled_rates.append(part.rows / (part.elapsed * factor))
    return measured, scaled, rates, scaled_rates


def _source_digest() -> str:
    """Digest of the engine and benchmark sources: exact-repeat counters
    are only comparable between runs of the same code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_repeat(workload: str, seed: int, counters: dict[str, int]) -> list[str]:
    """Compare the warm-up counters with an earlier run of this seed."""
    path = STATE_DIR / "exact" / f"{workload}-{seed}-{_source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            return [f"exact-repeat counters differ from an earlier run with "
                    f"seed {seed}: {before} != {counters}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counters, sort_keys=True))
    os.replace(tmp, path)
    return []


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Run every workload in its own interpreter; print each one's table
    and one combined result whose metric names carry the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, entry in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Every import happens here, before any clock starts.
    import spans
    import workloads

    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose 'all' or one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    STATE_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    recorder = spans.LayerTracer() if args.trace else None
    problems: list[str] = []
    setup_times: list[float] = []
    setup_speeds: list[float] = []
    phase_reference: list[float] = []

    def pause() -> float:
        times = _reference_times(PHASE_REFERENCE_REPS)
        phase_reference.extend(times)
        return statistics.median(times)

    baseline_rss = _rss_bytes()
    bench = None
    try:
        counters: list[dict[str, int]] = []
        for rep in range(SETUPS):
            if bench is not None:
                bench.close()
                shutil.rmtree(run_dir / f"setup-{rep - 1}", ignore_errors=True)
                bench = None
            bench = workloads.WORKLOADS[args.workload](args.seed)
            data_dir = run_dir / f"setup-{rep}"
            traced_setup = recorder is not None and rep == SETUPS - 1
            if traced_setup:
                recorder.install()
            gc.collect()
            reference = _reference_times(SETUP_REFERENCE_REPS)
            t0 = time.perf_counter()
            bench.setup(data_dir)
            before = bench.counters()
            bench.warmup()
            setup_times.append(time.perf_counter() - t0)
            reference += _reference_times(SETUP_REFERENCE_REPS)
            setup_speeds.append(REFERENCE_S / statistics.median(reference))
            if traced_setup:
                recorder.uninstall()
            after = bench.counters()
            counters.append(
                {k: after[k] - before[k] for k in workloads.EXACT_COUNTERS}
            )
            print(f"setup {rep}: {setup_times[-1]:.3f} s, warm-up counters "
                  f"{counters[-1]}", file=sys.stderr)
        if any(c != counters[0] for c in counters):
            problems.append(f"exact-repeat counters differ between set-ups: {counters}")
        problems += _check_repeat(args.workload, args.seed, counters[0])

        if recorder is None:
            measured, scaled, rates, scaled_rates = _merge(
                bench.measure(args.seconds, pause)
            )
        else:
            open_s = recorder.total_seconds("recovery.open")
            recorder.reset()
            plain = _merge(bench.measure(args.seconds / 2, pause))[0]
            engine_before = bench.counters()
            recorder.install()
            measured = _merge(bench.measure(args.seconds / 2, pause))[0]
            recorder.uninstall()
            engine_after = bench.counters()
            problems += plain.errors
        problems += measured.errors
        bench.verify()
    except workloads.ConsistencyError as exc:
        problems.append(f"output check failed: {exc}")
        measured = None
    except Exception as exc:  # reported as a failed run, not lost
        problems.append(f"run failed: {type(exc).__name__}: {exc}")
        measured = None
    finally:
        if bench is not None:
            bench.close()
        gc.collect()
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - baseline_rss

    for problem in problems[:10]:
        print(problem, file=sys.stderr)
    if measured is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(result))
        return 1

    print(f"speed factors: set-ups {[round(f, 3) for f in setup_speeds]}, measured "
          f"phase {REFERENCE_S / statistics.median(phase_reference):.3f} "
          f"(median of {len(phase_reference)} reference runs)", file=sys.stderr)
    # name -> (value reported, unit, sample count, value as measured)
    metrics: dict[str, tuple[float, str, int, float]] = {}
    if recorder is None:
        metrics["setup_s"] = (
            statistics.median(t * f for t, f in zip(setup_times, setup_speeds)),
            "s", len(setup_times), statistics.median(setup_times),
        )
        metrics["txn_p50_us"] = (
            _percentile(scaled.txn, 50) * 1e6, "us", len(scaled.txn),
            _percentile(measured.txn, 50) * 1e6,
        )
        metrics["query_p50_us"] = (
            _percentile(scaled.query, 50) * 1e6, "us", len(scaled.query),
            _percentile(measured.query, 50) * 1e6,
        )
        # The median segment's rate: a stall of the host in one segment
        # does not move it.
        metrics["ingest_rows_per_s"] = (
            statistics.median(scaled_rates), "1/s", len(rates),
            statistics.median(rates),
        )
        metrics["scan_p50_ms"] = (
            _percentile(scaled.scan, 50) * 1e3, "ms", len(scaled.scan),
            _percentile(measured.scan, 50) * 1e3,
        )
        metrics["peak_rss_mb"] = (peak_rss / 2**20, "MB", 1, peak_rss / 2**20)
    else:
        layers = recorder.layer_metrics(
            engine_before, engine_after, measured, queries=len(measured.query)
        )
        for name, (value, unit) in layers.items():
            metrics[name] = (value, unit, 1, value)
        metrics["recovery.open_s"] = (open_s, "s", 1, open_s)
        key = "query" if args.workload.startswith("adhoc") else "txn"
        overhead = (
            _percentile(getattr(measured, key), 50)
            / _percentile(getattr(plain, key), 50) - 1
        ) * 100
        metrics["trace.overhead_pct"] = (
            overhead, "%", len(getattr(measured, key)), overhead
        )
        reference_ms = statistics.median(phase_reference) * 1e3
        metrics["bench.reference_ms"] = (
            reference_ms, "ms", len(phase_reference), reference_ms
        )
        for name, value in sorted(counters[0].items()):
            metrics[f"exact.{name}"] = (value, "count", 1, value)
        recorder.write(STATE_DIR / "trace" / f"{args.workload}-{args.seed}.spans.tsv")
        measured.attempted += plain.attempted
        measured.failed += plain.failed
    print(f"{args.workload:18s} {'metric':36s} {'reported':>14s} {'unit':6s} "
          f"{'samples':>7s} {'measured':>14s}")
    for name, (value, unit, count, raw) in metrics.items():
        print(f"{args.workload:18s} {name:36s} {value:14.4f} {unit:6s} "
              f"{count:7d} {raw:14.4f}")
    print(f"{args.workload:18s} attempted={measured.attempted} failed={measured.failed} "
          f"checks={'passed' if not problems else 'FAILED'}")
    result = {
        "correct": not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _count, _raw) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.exit(_relaunch())
    sys.exit(main(sys.argv[1:]))
