#!/usr/bin/env python
"""Build a deliberately damaged checkpoint directory (fsck CI fixture).

Writes a real session history into ``OUT_DIR`` and then damages it the
way crashes do:

- tears the newest epoch mid-payload (truncated file),
- flips one bit in a middle epoch (CRC-detectable corruption),
- strands a partial ``epoch-*.ckpt.tmp`` (crash between write and
  rename).

The result: ``python -m repro.fsck OUT_DIR`` must report the directory
inconsistent, and ``--repair`` must quarantine exactly the damaged
files and leave a consistent, recoverable prefix.

With ``--replicas N`` the history is committed through a
:class:`~repro.core.replica.ReplicatedStore` into ``OUT_DIR/r0..rN-1``
and the damage is replica-scoped instead:

- one replica holds a *diverged* record — rewritten through its own
  framing, so its CRC is valid and only the end-to-end sha256 (or a
  byte-compare against the quorum copy) can tell;
- one replica is missing an epoch file entirely (a lost write);
- one replica's manifest is stale (rolled back to a mid-run snapshot).

A ``damage.json`` manifest listing every seeded defect is written to
``OUT_DIR`` for the fsck/scrub tests and the CI gate, which require
``python -m repro.fsck r0 r1 ... --scrub`` to detect and repair all of
it — quarantining, never deleting.

Usage::

    PYTHONPATH=src python tools/make_corrupt_fixture.py OUT_DIR [--epochs N]
    PYTHONPATH=src python tools/make_corrupt_fixture.py OUT_DIR --replicas 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.replica import ReplicatedStore  # noqa: E402
from repro.core.storage import FileStore  # noqa: E402
from repro.runtime.session import CheckpointSession  # noqa: E402
from repro.runtime.sink import StoreSink  # noqa: E402
from repro.synthetic.structures import build_structures, element_at  # noqa: E402


def build_fixture(directory: str, epochs: int = 8) -> dict:
    """Create the damaged store; returns what was damaged (for asserts)."""
    roots = build_structures(3, 2, 3, 1)
    session = CheckpointSession(roots=roots, sink=directory)
    session.base()
    for step in range(1, epochs):
        element_at(roots[step % 3], step % 2, step % 3).v0 = step * 100 + 1
        session.commit()

    def epoch_path(index: int) -> str:
        return os.path.join(directory, f"epoch-{index:06d}.ckpt")

    # Torn tail: the newest epoch stops mid-payload.
    torn = epoch_path(epochs - 1)
    with open(torn, "rb+") as handle:
        handle.truncate(os.path.getsize(torn) // 2)

    # Silent corruption: one flipped bit in a middle epoch's payload.
    flipped = epoch_path(epochs // 2)
    with open(flipped, "rb") as handle:
        data = bytearray(handle.read())
    data[-1] ^= 0x10
    with open(flipped, "wb") as handle:
        handle.write(bytes(data))

    # Crash between the tmp write and the atomic rename.
    orphan = epoch_path(epochs) + ".tmp"
    with open(orphan, "wb") as handle:
        handle.write(b"partial frame, never renamed")

    return {
        "directory": directory,
        "epochs": epochs,
        "torn": os.path.basename(torn),
        "corrupt": os.path.basename(flipped),
        "orphan": os.path.basename(orphan),
        # Everything before the flipped epoch survives repair.
        "expected_durable": list(range(epochs // 2)),
    }


def build_replica_fixture(directory: str, replicas: int = 3, epochs: int = 8) -> dict:
    """A replicated history with per-replica damage; writes damage.json."""
    dirs = [os.path.join(directory, f"r{i}") for i in range(replicas)]
    store = ReplicatedStore([FileStore(d) for d in dirs])
    roots = build_structures(3, 2, 3, 1)
    session = CheckpointSession(roots=roots, sink=StoreSink(store))
    session.base()
    manifest_snapshot = None
    snapshot_at = max(1, epochs // 2)
    pin_at = snapshot_at + 1  # named AFTER the snapshot, so the stale
    # manifest forgets the name — divergence only the lineage metadata
    # (not the payload bytes) carries, which the vote key must catch
    for step in range(1, epochs):
        element_at(roots[step % 3], step % 2, step % 3).v0 = step * 100 + 1
        if step == pin_at:
            session.checkpoint("fixture-pin")
        else:
            session.commit()
        if step == snapshot_at:
            # mid-run manifest image, restored below as the "stale" copy
            with open(os.path.join(dirs[0], "manifest.json"), "rb") as handle:
                manifest_snapshot = handle.read()

    def epoch_path(replica: int, index: int) -> str:
        return os.path.join(dirs[replica], f"epoch-{index:06d}.ckpt")

    damage = {
        "directory": directory,
        "replicas": [os.path.basename(d) for d in dirs],
        "epochs": epochs,
        "seeded": [],
    }

    # Diverged record on r1: rewritten through the store's own framing,
    # so the child CRC is recomputed and only sha256/byte-compare sees it.
    victim = FileStore(dirs[1])
    diverged_index = epochs // 2
    epoch = victim.epoch_map()[diverged_index]
    payload = bytearray(epoch.data)
    payload[len(payload) // 2] ^= 0xFF
    victim.put_epoch(epoch._replace(data=bytes(payload)), overwrite=True)
    damage["seeded"].append(
        {
            "replica": "r1",
            "mode": "diverged-record",
            "epoch": diverged_index,
            "file": os.path.basename(epoch_path(1, diverged_index)),
        }
    )

    # Missing epoch file on r2: a write the volume simply lost.
    missing_index = epochs - 2
    os.unlink(epoch_path(2 % replicas, missing_index))
    damage["seeded"].append(
        {
            "replica": f"r{2 % replicas}",
            "mode": "missing-epoch",
            "epoch": missing_index,
            "file": os.path.basename(epoch_path(2 % replicas, missing_index)),
        }
    )

    # Stale manifest on r0: rolled back to the mid-run snapshot, which
    # predates the named checkpoint — r0 now reads epoch ``pin_at``
    # without its name, diverging from the quorum copy in lineage
    # metadata only (the payload bytes are identical).
    if manifest_snapshot is not None:
        with open(os.path.join(dirs[0], "manifest.json"), "wb") as handle:
            handle.write(manifest_snapshot)
        damage["seeded"].append(
            {
                "replica": "r0",
                "mode": "stale-manifest",
                "epoch": pin_at,
                "file": "manifest.json",
            }
        )

    with open(os.path.join(directory, "damage.json"), "w") as handle:
        json.dump(damage, handle, indent=2, sort_keys=True)
    return damage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to create the fixture in")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help=(
            "build a replicated fixture with N replica subdirectories "
            "(r0..rN-1) and replica-scoped damage instead"
        ),
    )
    args = parser.parse_args(argv)
    if os.path.exists(args.out_dir) and os.listdir(args.out_dir):
        parser.error(f"{args.out_dir} exists and is not empty")
    if args.replicas:
        if args.replicas < 3:
            parser.error("--replicas needs at least 3 for a healing quorum")
        damage = build_replica_fixture(
            args.out_dir, replicas=args.replicas, epochs=args.epochs
        )
    else:
        damage = build_fixture(args.out_dir, epochs=args.epochs)
    for key, value in damage.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
