#!/usr/bin/env python3
"""Durability and restart recovery of a stream query.

A child process runs the shop query — one punctuated stream of events
feeding two grouped ``TO_TABLE`` states, ``inventory`` and ``orders`` — on
a 4-shard durable manager (``data_dir=``: LSM base tables + per-shard
commit WALs + checkpoints).  Each transaction commits when the last of
its two ``TO_TABLE`` votes arrives, through the single-shard path or 2PC
when the two keys live on different shards.  The child leaves one stream
transaction open and hard-kills itself with ``os._exit`` mid-load — no
close, no flush, no atexit.

The parent reopens the directory with ``ShardedTransactionManager.open()``,
which replays the commit-WAL tails, resolves any in-doubt 2PC prepares
(presumed-abort) and restores ``LastCTS``, prints what came back, and then
restarts the same query on the reopened store.

Run:  python examples/recovery_demo.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core import ShardedTransactionManager
from repro.streams import StreamTuple, Topology, TransactionalSource, bot

EVENTS = [{"item": i % 50, "order": i, "stock": 100 - i % 7} for i in range(220)]


def shop_query(smgr: ShardedTransactionManager, events: list[dict]) -> Topology:
    """Every event updates its item's stock; every fifth is also an order."""
    topo = Topology(smgr, "shop")
    stream = topo.source(
        TransactionalSource(events, key_fn=lambda e: e["item"], append_eos=False)
    )
    stream.map(lambda e: {"stock": e["stock"]}).to_table("inventory")
    (
        stream.filter(lambda e: e["order"] % 5 == 0)
        .key_by(lambda e: e["order"])
        .map(lambda e: {"qty": 1})
        .to_table("orders")
    )
    return topo


def crash_child(data_dir: str) -> None:
    smgr = ShardedTransactionManager(
        num_shards=4, protocol="mvcc", data_dir=data_dir, checkpoint_interval=60
    )
    smgr.create_table("inventory")
    smgr.create_table("orders")
    topo = shop_query(smgr, EVENTS)
    topo.run()  # 220 stream transactions, one per event
    # one stream transaction that must NOT survive:
    topo.push(bot())
    topo.push(StreamTuple({"item": 0, "order": -1, "stock": -999}, key=0))
    sys.stdout.write(str(max(s.context.last_cts("shop") for s in smgr.shards)))
    sys.stdout.flush()
    os._exit(42)  # hard kill: no close(), no flush, no atexit


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_recovery_"))
    print(f"workspace: {workdir}")
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--crash-child", str(workdir)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            timeout=120,
        )
        assert proc.returncode == 42, proc.stderr
        pre_crash_cts = int(proc.stdout)
        print(f"child streamed 220 transactions, left one open, then "
              f"os._exit(42); pre-crash LastCTS = {pre_crash_cts}")

        smgr = ShardedTransactionManager.open(workdir)
        report = smgr.last_recovery
        print(f"tail records replayed    : {report.tail_records} "
              f"({report.commits_replayed} commits) across {len(report.shards)} shards")
        print(f"in-doubt prepares        : {report.prepares_rolled_forward} rolled "
              f"forward, {report.prepares_rolled_back} rolled back")
        print(f"restored LastCTS         : {report.last_cts}")
        print(f"rows per state           : {report.rows_loaded}")
        print(f"recovery time            : {report.recovery_s * 1e3:.1f} ms")
        assert report.last_cts["shop"] >= pre_crash_cts

        with smgr.snapshot() as view:
            stock0 = view.get("inventory", 0)
            inventory_rows = sum(1 for _ in view.scan("inventory"))
            order_rows = sum(1 for _ in view.scan("orders"))
        print(f"inventory[0]             : {stock0}")
        print(f"row counts               : inventory={inventory_rows} orders={order_rows}")
        assert stock0 == {"stock": 96}, "the last committed event must be visible"
        assert inventory_rows == 50 and order_rows == 44
        print("uncommitted write is gone, committed data intact ✓")

        # the restarted query keeps committing on the reopened store:
        shop_query(smgr, [{"item": 0, "order": 220, "stock": 42}]).run()
        with smgr.snapshot() as view:
            print(f"post-recovery write: {view.get('inventory', 0)}")
            assert view.get("orders", 220) == {"qty": 1}
        smgr.close()
        print("stream crash recovery ✓")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--crash-child"]:
        crash_child(sys.argv[2])
    else:
        main()
