"""The torn-write recovery matrix (satellite of the fault-injection PR).

A crash can leave the newest epoch file truncated at *any* byte. For
every boundary through the 14-byte header and well into the payload,
``epochs()`` must stop cleanly at the hole — no exception, no stale
``_verified`` cache entry — and ``recover()`` must rebuild exactly the
state of the intact prefix. ``fsck`` decodes frames with the same
function, so it must agree on what survived and call the cut file torn.
"""

import os
import shutil

from repro.core.storage import _HEADER, FileStore
from repro.faults.crashsim import table_fingerprint
from repro.fsck.manager import TORN, RecoveryManager
from repro.runtime.session import CheckpointSession
from tests.conftest import build_root

EPOCHS = 4


def build_store(directory):
    """A real session history: one full epoch plus three deltas."""
    root = build_root()
    session = CheckpointSession(roots=root, sink=directory)
    session.base()
    for step in range(1, EPOCHS):
        root.mid.leaf.value = step * 11
        root.kids[step % 2].value = step * 7
        session.commit()
    return session


def last_epoch_path(directory):
    return os.path.join(directory, f"epoch-{EPOCHS - 1:06d}.ckpt")


def reference_fingerprint(directory, tmp_path):
    """Fingerprint of recovery over epochs 0..EPOCHS-2 only."""
    prefix_dir = str(tmp_path / "reference-prefix")
    shutil.copytree(directory, prefix_dir)
    os.remove(last_epoch_path(prefix_dir))
    return table_fingerprint(FileStore(prefix_dir).recover())


def test_truncation_at_every_boundary(tmp_path):
    directory = str(tmp_path / "ckpts")
    build_store(directory)
    expected = reference_fingerprint(directory, tmp_path)

    path = last_epoch_path(directory)
    with open(path, "rb") as handle:
        original = handle.read()
    size = len(original)
    assert size > _HEADER.size + 32

    # Every header boundary, the first payload bytes, and a spread of
    # positions through the rest of the payload (always < size: a cut at
    # the full size is not a torn write).
    cuts = list(range(0, _HEADER.size + 17))
    cuts += list(range(_HEADER.size + 17, size, max(1, (size - 30) // 16)))
    cuts = sorted({cut for cut in cuts if cut < size})
    assert len(cuts) >= 30

    store = FileStore(directory)
    prefix_indices = list(range(EPOCHS - 1))
    for cut in cuts:
        # Warm the cache with the intact file, then tear it.
        assert [e.index for e in store.epochs()] == list(range(EPOCHS))
        assert EPOCHS - 1 in store._verified
        with open(path, "rb+") as handle:
            handle.truncate(cut)

        survivors = store.epochs()
        assert [e.index for e in survivors] == prefix_indices, (
            f"cut at byte {cut} did not stop at the hole"
        )
        # The stale cache entry for the torn epoch must be gone.
        assert EPOCHS - 1 not in store._verified, f"stale cache at cut {cut}"
        report = RecoveryManager(directory).scan()
        assert report.durable_epochs == prefix_indices, f"fsck at cut {cut}"
        status = {entry.name: entry.status for entry in report.files}
        assert status[os.path.basename(path)] == TORN, f"cut {cut}"

        recovered = store.recover()
        assert table_fingerprint(recovered) == expected, (
            f"cut at byte {cut} recovered divergent state"
        )

        # Heal the file for the next round; the cache must re-verify.
        with open(path, "wb") as handle:
            handle.write(original)


def test_truncated_middle_epoch_strands_the_tail(tmp_path):
    directory = str(tmp_path / "ckpts")
    build_store(directory)
    middle = os.path.join(directory, "epoch-000001.ckpt")
    with open(middle, "rb+") as handle:
        handle.truncate(7)
    store = FileStore(directory)
    assert [e.index for e in store.epochs()] == [0]
    # Recovery still works from the surviving base.
    assert store.recover() is not None


def test_empty_epoch_file_is_a_clean_stop(tmp_path):
    directory = str(tmp_path / "ckpts")
    build_store(directory)
    with open(last_epoch_path(directory), "wb"):
        pass  # zero bytes
    store = FileStore(directory)
    assert [e.index for e in store.epochs()] == list(range(EPOCHS - 1))
