"""The reprolint static-analysis pass (``tools/reprolint``).

Each rule gets a violating, a clean and a suppressed fixture, exercised
through :func:`tools.reprolint.analyze_source` on synthetic snippets; the
regression class at the bottom pins the real findings this pass surfaced
and we fixed (the manifest write moved off the LSM store lock).  RL003
fsync discipline keeps its synthetic cases in ``TestRL003FsyncDiscipline``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tools import reprolint  # noqa: E402

from repro.storage.lsm import LSMOptions, LSMStore  # noqa: E402
from repro.storage.manifest import Manifest  # noqa: E402


def findings(text: str, path: str = "src/repro/core/example.py"):
    report = reprolint.analyze_source(text, path)
    return report


def rules_of(report) -> list[str]:
    return [f.rule for f in report.findings]


class TestRL001LockOrder:
    VIOLATING = """\
class LSMStore:
    def bad(self):
        with self._lock:
            with self._flush_lock:
                pass
"""

    def test_violating(self):
        report = findings(self.VIOLATING)
        assert rules_of(report) == ["RL001"]
        assert "_flush_lock" in report.findings[0].message
        assert report.findings[0].func == "LSMStore.bad"

    def test_clean_leafward_order(self):
        report = findings(
            """\
class LSMStore:
    def good(self):
        with self._flush_lock:
            with self._lock:
                pass
"""
        )
        assert rules_of(report) == []

    def test_unranked_locks_are_not_checked(self):
        report = findings(
            """\
class Anything:
    def f(self):
        with self._some_lock:
            with self._other_lock:
                pass
"""
        )
        assert rules_of(report) == []

    def test_suppressed_with_reason(self):
        report = findings(
            """\
class LSMStore:
    def bad(self):
        with self._lock:
            with self._flush_lock:  # reprolint: allow[RL001] reason=test fixture
                pass
"""
        )
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["RL001"]

    def test_reasonless_suppression_is_void(self):
        # Marker built by concatenation so reprolint's raw-line scan of
        # *this* file doesn't itself see a reasonless suppression.
        marker = "# reprolint: " + "allow[RL001]"
        report = findings(
            "class LSMStore:\n"
            "    def bad(self):\n"
            "        with self._lock:\n"
            f"            with self._flush_lock:  {marker}\n"
            "                pass\n"
        )
        assert rules_of(report) == ["RL001"]
        assert report.reasonless_suppressions == [4]


class TestRL002BlockingUnderLock:
    def test_fsync_under_lock(self):
        report = findings(
            """\
import os
class Store:
    def bad(self):
        with self._lock:
            os.fsync(self.fd)
"""
        )
        assert rules_of(report) == ["RL002"]
        assert "os.fsync" in report.findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "time.sleep(0.1)",
            "self.wal.append_many(batch)",
            "fut.result()",
            "ticket.wait()",
            "thread.join()",
        ],
    )
    def test_other_blocking_calls(self, call):
        report = findings(
            f"""\
import time
class Store:
    def bad(self):
        with self._lock:
            {call}
"""
        )
        assert rules_of(report) == ["RL002"]

    def test_clean_outside_lock(self):
        report = findings(
            """\
import os
class Store:
    def good(self):
        with self._lock:
            payload = self.encode()
        os.fsync(self.fd)
"""
        )
        assert rules_of(report) == []

    def test_nonblocking_calls_under_lock_are_fine(self):
        report = findings(
            """\
class Store:
    def good(self):
        with self._lock:
            self.values.append(1)
            self.notify_all()
"""
        )
        assert rules_of(report) == []

    def test_suppressed(self):
        report = findings(
            """\
import os
class Store:
    def bad(self):
        with self._lock:
            os.fsync(self.fd)  # reprolint: allow[RL002] reason=lock exists to serialise fsyncs
"""
        )
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["RL002"]


class TestRL003FsyncDiscipline:
    STORAGE = "src/repro/storage/example.py"

    def test_rename_without_fsync_dir(self):
        report = findings(
            """\
import os
def publish(tmp, path):
    os.replace(tmp, path)
""",
            self.STORAGE,
        )
        assert rules_of(report) == ["RL003"]
        assert "fsync_dir" in report.findings[0].message

    def test_path_replace_without_fsync_dir(self):
        report = findings(
            """\
def publish(tmp, path):
    tmp.replace(path)
""",
            self.STORAGE,
        )
        assert rules_of(report) == ["RL003"]

    def test_rename_with_fsync_dir_is_clean(self):
        report = findings(
            """\
import os
def publish(tmp, path, fsync_dir):
    os.replace(tmp, path)
    fsync_dir(path.parent)
""",
            self.STORAGE,
        )
        assert rules_of(report) == []

    def test_out_of_scope_path_is_ignored(self):
        report = findings(
            """\
import os
def publish(tmp, path):
    os.replace(tmp, path)
""",
            "src/repro/core/example.py",
        )
        assert rules_of(report) == []

    def test_str_replace_is_not_a_rename(self):
        report = findings(
            """\
def fmt(name):
    return name.replace("-", "_")
""",
            self.STORAGE,
        )
        assert rules_of(report) == []

    def test_suppressed(self):
        report = findings(
            """\
import os
def publish(tmp, path):
    os.replace(tmp, path)  # reprolint: allow[RL003] reason=parent synced by caller
""",
            self.STORAGE,
        )
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["RL003"]


class TestRL004SwallowedDaemonError:
    def test_except_pass_in_daemon_run_loop(self):
        report = findings(
            """\
class CheckpointDaemon:
    def _run(self):
        while True:
            try:
                self.cut()
            except Exception:
                pass
"""
        )
        assert rules_of(report) == ["RL004"]

    def test_bare_except_pass(self):
        report = findings(
            """\
class GroupFsyncDaemon:
    def _flush_loop(self):
        try:
            self.flush()
        except:
            pass
"""
        )
        assert rules_of(report) == ["RL004"]

    def test_recorded_failure_is_clean(self):
        report = findings(
            """\
class StorageMaintenanceDaemon:
    def _run(self):
        try:
            self.work()
        except Exception as exc:
            self.failures += 1
            self.last_error = exc
"""
        )
        assert rules_of(report) == []

    def test_non_daemon_class_is_ignored(self):
        report = findings(
            """\
class Parser:
    def _run(self):
        try:
            self.parse()
        except Exception:
            pass
"""
        )
        assert rules_of(report) == []

    def test_narrow_exception_is_ignored(self):
        report = findings(
            """\
class ReplicationDaemon:
    def _ship_loop(self):
        try:
            self.ship()
        except KeyError:
            pass
"""
        )
        assert rules_of(report) == []

    def test_suppressed(self):
        report = findings(
            """\
class CheckpointDaemon:
    def _run(self):
        try:
            self.cut()
        except Exception:  # reprolint: allow[RL004] reason=poison handled by caller
            pass
"""
        )
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["RL004"]


class TestRL005GuardedBy:
    def test_write_outside_lock(self):
        report = findings(
            """\
class Daemon:
    def __init__(self):
        self.count = 0  #: guarded_by(_cond)
    def bump(self):
        self.count += 1
"""
        )
        assert rules_of(report) == ["RL005"]
        assert "guarded_by(_cond)" in report.findings[0].message

    def test_write_under_lock_is_clean(self):
        report = findings(
            """\
class Daemon:
    def __init__(self):
        self.count = 0  #: guarded_by(_cond)
    def bump(self):
        with self._cond:
            self.count += 1
"""
        )
        assert rules_of(report) == []

    def test_locked_suffix_helper_is_exempt(self):
        report = findings(
            """\
class Daemon:
    def __init__(self):
        self.count = 0  #: guarded_by(_cond)
    def _bump_locked(self):
        self.count += 1
"""
        )
        assert rules_of(report) == []

    def test_marker_on_preceding_line(self):
        report = findings(
            """\
class Daemon:
    def __init__(self):
        #: guarded_by(_lock)
        self.state = None
    def poke(self):
        self.state = 1
"""
        )
        assert rules_of(report) == ["RL005"]

    def test_suppressed(self):
        report = findings(
            """\
class Daemon:
    def __init__(self):
        self.count = 0  #: guarded_by(_cond)
    def bump(self):
        self.count += 1  # reprolint: allow[RL005] reason=single-threaded test hook
"""
        )
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["RL005"]


class TestBaselineAndCLI:
    def test_baseline_requires_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {"fingerprint": "RL002|a.py|f|blocking:os.fsync@_lock"},
                        {
                            "fingerprint": "RL002|b.py|g|blocking:os.fsync@_lock",
                            "reason": "documented",
                        },
                    ],
                }
            )
        )
        entries, errors = reprolint.load_baseline(path)
        assert len(entries) == 2
        assert len(errors) == 1 and "without a reason" in errors[0]

    def test_committed_baseline_is_valid_and_current(self):
        """The repo's own gate: zero unbaselined findings over the CI
        scope, and every baseline entry carries a real reason."""
        root = Path(__file__).resolve().parent.parent
        baseline_path = root / "tools" / "reprolint" / "baseline.json"
        entries, errors = reprolint.load_baseline(baseline_path)
        assert errors == []
        assert all(
            "TODO" not in entry["reason"] for entry in entries.values()
        )
        found, _suppressed, warnings = reprolint.analyze_paths(
            ["src", "tests", "benchmarks"], root
        )
        new = [f for f in found if f.fingerprint not in entries]
        assert new == [], "\n".join(f.render() for f in new)
        assert warnings == []

    def test_explain_covers_every_rule(self):
        assert set(reprolint.EXPLAIN) == set(reprolint.RULES)
        for rule, text in reprolint.EXPLAIN.items():
            assert rule in text
            assert "reprolint: allow" in text

    def test_fingerprints_are_line_independent(self):
        """Unrelated edits must not invalidate the baseline: the
        fingerprint survives the finding moving to another line."""
        a = findings(
            "import os\nclass S:\n    def f(self):\n"
            "        with self._lock:\n            os.fsync(self.fd)\n"
        )
        b = findings(
            "import os\n\n\nclass S:\n    def f(self):\n"
            "        x = 1\n        with self._lock:\n"
            "            os.fsync(self.fd)\n"
        )
        assert a.findings[0].fingerprint == b.findings[0].fingerprint
        assert a.findings[0].line != b.findings[0].line


class TestRegressions:
    """Pins for real findings the pass surfaced (and we fixed)."""

    def test_manifest_write_runs_outside_the_store_lock(
        self, tmp_path, monkeypatch
    ):
        """The blocking-under-lock fix on the flush install path: while the
        manifest's two fsyncs + rename run, the store lock must be free for
        readers/writers (it used to be held across Manifest.save())."""
        store = LSMStore(tmp_path, LSMOptions(sync=False))
        store.put(b"k", b"v")

        lock_free_during_write: list[bool] = []
        real_write = Manifest.write_payload

        def probed_write(self, payload):
            # Probe from another thread: the store lock is re-entrant, so a
            # same-thread acquire would succeed even while held.
            def probe():
                got = store._lock.acquire(timeout=2.0)
                if got:
                    store._lock.release()
                lock_free_during_write.append(got)

            t = threading.Thread(target=probe)
            t.start()
            t.join(5.0)
            return real_write(self, payload)

        monkeypatch.setattr(Manifest, "write_payload", probed_write)
        store.flush()
        store.close()
        assert lock_free_during_write  # the flush did write a manifest
        assert all(lock_free_during_write)

    def test_manifest_saves_stay_in_install_order(self, tmp_path):
        """Two concurrent flush/compaction installs may not reorder their
        manifest writes (the manifest lock serialises them): after any
        interleaving, the manifest on disk names exactly the live tables."""
        store = LSMStore(
            tmp_path, LSMOptions(sync=False, memtable_bytes=256, fanout=2)
        )
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(base: int) -> None:
            try:
                i = 0
                while not stop.is_set() and i < 200:
                    store.put(f"k{base + i}".encode(), b"x" * 64)
                    i += 1
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(n * 1000,)) for n in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        stop.set()
        store.flush()
        store.close()
        assert not errors
        reopened = LSMStore(tmp_path, LSMOptions(sync=False))
        try:
            for n in range(3):
                for i in range(200):
                    assert reopened.get(f"k{n * 1000 + i}".encode()) == b"x" * 64
        finally:
            reopened.close()
