"""Every input file, fed arbitrary bytes through the command line, ends in
exit 0 or the documented error code, and `main` raises nothing."""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.cli import main

TINY = ["--method", "plain", "--max-epochs", "2", "--hidden", "4", "--seed", "1"]
TRAIN = [
    "train", "--nodes", "{r}/data/nodes.tsv", "--edges", "{r}/data/edges.tsv",
    "--target", "target capability", *TINY, "--out", "{r}/trained",
]
BUILD = [
    "build", "--corpus", "{r}/corpus.tsv", "--services", "{r}/services.tsv",
    "--service-edges", "{r}/service-edges.tsv", "--out", "{r}/built",
]
EVAL = ["eval", "--run-dir", "{r}/run"]
PREDICT = ["predict", "--run-dir", "{r}/run", "--name", "maker-00000"]
PREFIXES = {1: "error:", 2: "data error:"}

# (file replaced, the valid file it is mutated from, commands that read it, error codes allowed)
CASES = [
    ("data/nodes.tsv", "data/nodes.tsv", [TRAIN], {2}),
    ("data/edges.tsv", "data/edges.tsv", [TRAIN], {2}),
    ("corpus.tsv", "corpus.tsv", [BUILD], {2}),
    ("services.tsv", "services.tsv", [BUILD], {2}),
    ("service-edges.tsv", "service-edges.tsv", [BUILD], {2}),
    ("run/assignment.tsv", "run/assignment.tsv", [EVAL], {2}),
    ("run/features.bin", "run/features.bin", [EVAL, PREDICT], {2}),
    ("run/checkpoint.bin", "run/checkpoint.bin", [EVAL, PREDICT], {2}),
    ("run/graph.bin", "run/graph.bin", [EVAL, PREDICT], {2}),
    ("run/config.json", "run/config.json", [EVAL, PREDICT], {2}),
    # --config: a bad value is a configuration error (1), a rejected setting a data error (2)
    ("config.json", "run/config.json", [[*TRAIN, "--config", "{r}/config.json"]], {1, 2}),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A 40-manufacturer planted graph, a run directory trained on it, and
    build inputs: every file a case starts from."""
    root = tmp_path_factory.mktemp("inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "gen-planted", "--manufacturers", "40", "--services-per-category", "3", "--clusters", "2",
            "--capable-fraction", "0.25", "--signal", "1.0", "--noise", "0.0", "--seed", "5",
            "--out", str(root / "data"),
        ]) == 0
        assert main([*(a.format(r=root) for a in TRAIN), "--out", str(root / "run")]) == 0
    (root / "corpus.tsv").write_text("acme\tCNC machining\nbolt co\tfasteners and machining\n", encoding="utf-8")
    (root / "services.tsv").write_text("machining\tprocess\nfasteners\tmaterial\n", encoding="utf-8")
    (root / "service-edges.tsv").write_text("machining\tfasteners\n", encoding="utf-8")
    return root


def _fuzzed(data: st.DataObject, valid: bytes) -> bytes:
    """Arbitrary bytes, or the valid file with a run of bytes replaced."""
    if data.draw(st.booleans()):
        return data.draw(st.binary(max_size=200))
    start = data.draw(st.integers(0, len(valid)))
    stop = data.draw(st.integers(start, min(start + 8, len(valid))))
    return valid[:start] + data.draw(st.binary(max_size=8)) + valid[stop:]


@pytest.mark.parametrize("name, source, commands, codes", CASES, ids=[case[0] for case in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reader_fuzz(inputs, name, source, commands, codes, data):
    content = _fuzzed(data, (inputs / source).read_bytes())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "inputs"
        shutil.copytree(inputs, root)
        (root / name).write_bytes(content)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.format(r=root) for a in command])
            assert code == 0 or code in codes, err.getvalue()
            assert code == 0 or err.getvalue().startswith(PREFIXES[code])
