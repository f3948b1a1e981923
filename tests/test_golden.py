"""Golden tests of the CLI's behavioural contract.

Each directory under tests/golden/ holds one CLI invocation: `argv.json`
names the subcommand and its input files (paths relative to the
directory), `expected_stdout.json` is the exact stdout, and every other
`expected_<name>` file is the exact content of the file `<name>` that the
run writes.  A refactor must reproduce them byte for byte; do not
regenerate them to make a behaviour change pass.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from netcode.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv.json").is_file())
EXPECTED = "expected_"


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    src = GOLDEN / case
    for path in src.iterdir():
        if not path.name.startswith(EXPECTED):
            shutil.copy(path, tmp_path / path.name)
    argv = json.loads((src / "argv.json").read_text(encoding="utf-8"))

    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)

    assert rc == 0
    assert out.getvalue() == (src / "expected_stdout.json").read_text(encoding="utf-8")
    for path in src.glob(EXPECTED + "*"):
        name = path.name[len(EXPECTED):]
        if name == "stdout.json":
            continue
        written = tmp_path / name
        assert written.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


def test_transform_goldens_are_tabulated():
    """The transform goldens pin real tables, not a replayable chain."""
    for case in CASES:
        result = GOLDEN / case / "expected_result.json"
        if result.is_file():
            doc = json.loads(result.read_text(encoding="utf-8"))
            assert doc["code"]["kind"] == "table", case
