"""Exit codes and output of ``python -m repro.fsck``."""

import io
import json
import os

from repro.core.storage import FULL, INCREMENTAL, FileStore
from repro.fsck.cli import main

PAYLOAD = b"y" * 32


def make_dir(tmp_path, epochs=3):
    directory = str(tmp_path / "ckpts")
    store = FileStore(directory)
    for index in range(epochs):
        store.append(FULL if index == 0 else INCREMENTAL, PAYLOAD)
    return directory


def tear(directory, index, keep):
    path = os.path.join(directory, f"epoch-{index:06d}.ckpt")
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:keep])


class TestExitCodes:
    def test_clean_scan_exits_zero(self, tmp_path):
        assert main([make_dir(tmp_path)], out=io.StringIO()) == 0

    def test_damaged_scan_exits_one(self, tmp_path):
        directory = make_dir(tmp_path)
        tear(directory, 2, 10)
        assert main([directory], out=io.StringIO()) == 1

    def test_repair_restores_zero(self, tmp_path):
        directory = make_dir(tmp_path)
        tear(directory, 2, 10)
        assert main([directory, "--repair"], out=io.StringIO()) == 0
        # And a subsequent plain scan agrees.
        assert main([directory], out=io.StringIO()) == 0


class TestOutput:
    def test_json_output_parses(self, tmp_path):
        directory = make_dir(tmp_path)
        tear(directory, 1, 5)
        out = io.StringIO()
        code = main([directory, "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert code == 1
        assert payload["consistent"] is False
        assert payload["counts"]["torn"] == 1

    def test_human_output_lists_files(self, tmp_path):
        directory = make_dir(tmp_path)
        out = io.StringIO()
        main([directory], out=out)
        text = out.getvalue()
        assert "epoch-000000.ckpt: intact" in text
        assert "consistent" in text

    def test_repair_notes_quarantine_actions(self, tmp_path):
        directory = make_dir(tmp_path)
        tear(directory, 2, 10)
        out = io.StringIO()
        main([directory, "--repair"], out=out)
        assert "quarantined" in out.getvalue()


class TestQuarantineFlag:
    def test_custom_quarantine_directory(self, tmp_path):
        directory = make_dir(tmp_path)
        tear(directory, 2, 10)
        qdir = str(tmp_path / "jail")
        assert (
            main(
                [directory, "--repair", "--quarantine", qdir],
                out=io.StringIO(),
            )
            == 0
        )
        assert "epoch-000002.ckpt" in os.listdir(qdir)
