"""Golden snapshot of the command line: exact stdout, stderr and exit code.

Every subcommand is run in-process through ``cli.main``, in its text, JSON,
``--eval`` and SVG variants, together with the exit-2 input errors;
``verify`` runs at ``--max-n 3``, which takes about half a second.
``--help`` is left out because argparse wording differs between Python
versions.

The expected outputs live in ``data/cli_golden.json``.  After an intended
change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from gmotzkin.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

INVOCATIONS: list[list[str]] = [
    # count
    ["count", "--n", "0"],
    ["count", "--n", "3"],
    ["count", "--n", "3", "--avoid", "uvv"],
    ["count", "--n", "3", "--avoid", "uvu"],
    ["count", "--n", "3", "--avoid", "uvv,uvu"],
    ["count", "--n", "3", "--avoid", "uvv", "--no-h-on-axis"],
    ["count", "--n", "3", "--avoid", "uvv", "--format", "json"],
    ["count", "--n", "2", "--format", "json"],
    ["count", "--n", "4", "--avoid", "uvv", "--eval", "1,1,1"],
    ["count", "--n", "4", "--avoid", "uvv", "--eval=-3,4,16"],
    ["count", "--n", "4", "--avoid", "uvv", "--eval", "1,0,2", "--format", "json"],
    # enumerate
    ["enumerate", "--n", "0"],
    ["enumerate", "--n", "2"],
    ["enumerate", "--n", "3", "--avoid", "uvv"],
    ["enumerate", "--n", "3", "--avoid", "uvu", "--no-h-on-axis"],
    # sigma and sigma-inv
    ["sigma", "--path", ""],
    ["sigma", "--path", "uudv"],
    ["sigma", "--path", "u u d v"],
    ["sigma", "--path", "uvudhuhv"],
    ["sigma-inv", "--path", "uuvd"],
    ["sigma-inv", "--path", "uuudvd"],
    ["sigma-inv", "--path", "h uv h"],
    # fixed-points
    ["fixed-points", "--n", "0"],
    ["fixed-points", "--n", "5"],
    ["fixed-points", "--n", "3", "--list"],
    # series
    *[["series", "--gf", kind, "--order", "4"]
      for kind in ("G", "G_uvu", "G_uvv", "T", "Gbar_uvv", "C", "F", "A")],
    ["series", "--gf", "G_uvv", "--order", "3", "--format", "json"],
    ["series", "--gf", "G_uvv", "--order", "8", "--eval", "1,1,1"],
    ["series", "--gf", "Gbar_uvv", "--order", "6", "--eval=-3,4,16"],
    ["series", "--gf", "F", "--order", "10", "--eval", "0,0,0"],
    ["series", "--gf", "C", "--order", "0"],
    # tables
    ["tables", "--max-n", "0"],
    ["tables", "--max-n", "7"],
    # verify
    ["verify", "--max-n", "3"],
    # render
    ["render", "--path", ""],
    ["render", "--path", "uhvud"],
    ["render", "--path", "uudvhuhv"],
    ["render", "--path", "uhvud", "--format", "svg"],
    # input errors: exit 2 with a message on stderr
    ["sigma", "--path", "uxv"],
    ["sigma", "--path", "uuvv"],
    ["sigma", "--path", "du"],
    ["sigma", "--path", "uu"],
    ["sigma-inv", "--path", "uvuv"],
    ["sigma-inv", "--path", "u?v"],
    ["render", "--path", "uud"],
    ["count", "--n", "2", "--avoid", "uvv,zz"],
    ["count", "--n", "2", "--avoid", ","],
    ["count", "--n", "2", "--eval", "1,2"],
    ["count", "--n", "2", "--eval", "1,x,2"],
    ["count", "--n", "-1"],
    ["enumerate", "--n", "-1"],
    ["fixed-points", "--n", "-1"],
    ["series", "--gf", "G", "--order", "-1"],
    ["series", "--gf", "F", "--order", "3", "--eval", "0,0"],
    ["tables", "--max-n", "-1"],
    ["verify", "--max-n", "-1"],
]


def run(argv: list[str]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> list[dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_snapshot_covers_every_invocation(golden):
    assert [rec["argv"] for rec in golden] == INVOCATIONS


@pytest.mark.parametrize(
    "index", range(len(INVOCATIONS)), ids=[" ".join(argv) for argv in INVOCATIONS]
)
def test_cli_output_matches_snapshot(golden, index):
    assert run(INVOCATIONS[index]) == golden[index]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in INVOCATIONS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
