"""Smoke tests running every example script end to end.

Each example doubles as an integration test of the public API; failures
here mean the documented entry points broke.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_example(name: str, *args: str, timeout: int = 120) -> str:
    # Examples import `repro` from src/; a bare `pytest` run gets src/ via
    # the pythonpath ini option, which subprocesses do not inherit.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "second committer aborted as expected" in out
    assert "reader kept its snapshot" in out


def test_smart_metering():
    out = run_example("smart_metering.py")
    assert "violations found" in out
    assert "joint snapshot for meter 3: measurement=True, aggregate=True" in out


@pytest.mark.parametrize("protocol", ["mvcc", "bocc"])
def test_adhoc_analytics(protocol):
    out = run_example("adhoc_analytics.py", protocol)
    assert "consistency breaches: 0" in out
    assert "all multi-state reads were consistent" in out


def test_recovery_demo():
    out = run_example("recovery_demo.py")
    assert "uncommitted write is gone, committed data intact" in out
    assert "post-recovery write: {'stock': 42}" in out


@pytest.mark.parametrize("protocol", ["mvcc", "s2pl", "bocc"])
def test_sharding_demo(protocol):
    out = run_example("sharding_demo.py", protocol)
    assert "sum invariant holds" in out
    assert "all-or-nothing: balances unchanged after the failed 2PC" in out
    assert "merged scan returned 16 keys in order" in out


def test_protocol_comparison_fast(capsys):
    # Both panels in-process at 1 ms of virtual time per point (the
    # script's --fast mode runs 20 ms).  The simulator is deterministic
    # for its fixed seed: every shape check passes at 0.5 ms and up, and
    # at 0.25 ms ``s2pl_drops`` fails.
    spec = importlib.util.spec_from_file_location(
        "protocol_comparison", EXAMPLES / "protocol_comparison.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.report(duration_us=1_000.0, warmup_us=250.0)
    out = capsys.readouterr().out
    assert "figure4-left" in out
    assert "figure4-right" in out
    assert out.count("shape checks") == 2
    assert out.count("[PASS]") == 10 and "[FAIL]" not in out
