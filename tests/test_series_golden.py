"""Golden digests of ``gmotzkin series --format json`` at order 30.

For each of the eight kinds, the SHA-256 of the command's exact stdout is
pinned in ``data/series_golden.json``.  The same output, read back as
JSON, also pins the truncations: the term records of ``expand(kind, m)``
must equal its first m+1 lines for m = 0..12.

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_series_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from gmotzkin.cli import main
from gmotzkin.series import KINDS, expand

GOLDEN = Path(__file__).parent / "data" / "series_golden.json"
ORDER = 30
PREFIX_ORDERS = range(13)


def series_json(kind: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["series", "--gf", kind, "--order", str(ORDER), "--format", "json"])
    assert code == 0
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_kind(golden):
    assert sorted(golden) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_series_output_matches_digest(golden, kind):
    text = series_json(kind)
    assert digest(text) == golden[kind]
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == ORDER + 1
    for m in PREFIX_ORDERS:
        got = [c.to_json_obj() for c in expand(kind, m).coeffs]
        assert got == records[: m + 1], f"{kind} at order {m}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {kind: digest(series_json(kind)) for kind in KINDS}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
