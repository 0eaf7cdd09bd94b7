#!/usr/bin/env python3
"""Sharding demo: hash-partitioned states with cross-shard group commit.

Walks the sharded transaction manager end to end:

1. one logical table, hash-partitioned over 4 shards;
2. a single-shard transaction committing through the untouched fast path;
3. a cross-shard transfer committing through two-phase commit — and the
   sum invariant it preserves;
4. an injected prepare failure proving the cross-shard commit is
   all-or-nothing;
5. a merged key-ordered scan over every partition.

Run:  python examples/sharding_demo.py [mvcc|s2pl|bocc]
"""

import sys

from repro import ShardedTransactionManager
from repro.errors import TransactionAborted

ACCOUNTS = 16
OPENING_BALANCE = 100


def total_balance(smgr: ShardedTransactionManager) -> int:
    with smgr.snapshot() as view:
        return sum(balance for _key, balance in view.scan("accounts"))


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "mvcc"
    smgr = ShardedTransactionManager(num_shards=4, protocol=protocol)
    smgr.create_table("accounts")
    smgr.register_group("bank", ["accounts"])
    smgr.bulk_load("accounts", [(k, OPENING_BALANCE) for k in range(ACCOUNTS)])
    opening_total = ACCOUNTS * OPENING_BALANCE
    print(f"protocol={protocol}, 4 shards, {ACCOUNTS} accounts")
    print(f"account k lives on shard k % 4; opening total {opening_total}")

    # -- single-shard fast path: accounts 0, 4, 8 all live on shard 0 ------
    with smgr.transaction() as txn:
        for key in (0, 4, 8):
            smgr.write(txn, "accounts", key, smgr.read(txn, "accounts", key) + 10)
    print(f"single-shard commit touched shards {txn.shards()} (fast path)")

    # -- cross-shard transfer: shard 1 -> shard 2, atomically --------------
    with smgr.transaction() as txn:
        smgr.write(txn, "accounts", 1, smgr.read(txn, "accounts", 1) - 25)
        smgr.write(txn, "accounts", 2, smgr.read(txn, "accounts", 2) + 25)
    print(f"cross-shard transfer committed over shards {txn.shards()} (2PC)")
    assert total_balance(smgr) == opening_total + 30
    print(f"sum invariant holds: total = {total_balance(smgr)}")

    # -- injected prepare failure: nothing is applied anywhere -------------
    def fail_second_participant(shard_index: int) -> None:
        if shard_index == 3:
            raise TransactionAborted(
                "injected participant failure", reason="demo-fault"
            )

    smgr.faults.register("prepare", fail_second_participant)
    txn = smgr.begin()
    smgr.write(txn, "accounts", 1, 0)
    smgr.write(txn, "accounts", 3, 0)
    try:
        smgr.commit(txn)
    except TransactionAborted as exc:
        print(f"injected prepare failure -> global abort ({exc.reason})")
    finally:
        smgr.faults.register("prepare", None)
    assert total_balance(smgr) == opening_total + 30
    print("all-or-nothing: balances unchanged after the failed 2PC")

    # -- merged scan across partitions -------------------------------------
    with smgr.snapshot() as view:
        keys = [key for key, _balance in view.scan("accounts")]
    assert keys == sorted(keys)
    print(f"merged scan returned {len(keys)} keys in order")

    stats = smgr.stats()
    print(
        "commits: "
        f"{stats['single_shard_commits']} single-shard, "
        f"{stats['cross_shard_commits']} cross-shard, "
        f"{stats['cross_shard_aborts']} cross-shard aborts"
    )


if __name__ == "__main__":
    main()
