"""Byte-level guard on the CLI outputs of every shipped fixture.

``tests/golden/`` holds the analyze text, CSV and SVGs of each
``*.scenario``, a compare of three scenarios (CSV and SVG) and one
sweep CSV.  The test regenerates them into a temporary directory and
compares bytes, so a refactor that moves any printed digit or SVG
coordinate fails here even when every numeric test still passes.

Regenerate the corpus after an intended output change with

    PYTHONPATH=src python3 tests/test_golden.py tests/golden

and name the change in CHANGES.md.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

from roofline_lab.cli import main
from roofline_lab.config_io import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("fig3_ai16", "gemm_2to4", "gemm_dense", "imc256")
COMPARED = ("fig3_ai16", "imc256", "gemm_2to4")
SWEEP_VALUES = "4,8,16,32,64,128,256,512"


def _run(*argv: str) -> str:
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def _scenario(name: str) -> str:
    return str(fixture_path(f"{name}.scenario"))


def write_corpus(out: Path) -> None:
    """Write every golden file into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name in SCENARIOS:
        (out / f"{name}.txt").write_text(_run("analyze", "--scenario", _scenario(name)))
        for fmt in ("csv", "svg"):
            _run("analyze", "--scenario", _scenario(name), "--format", fmt,
                 "--out-dir", str(out))
    compared = [arg for name in COMPARED for arg in ("--scenario", _scenario(name))]
    csv = _run("compare", *compared, "--format", "svg", "--out-dir", str(out))
    (out / "compare.csv").write_text(
        "".join(line for line in csv.splitlines(keepends=True)
                if not line.startswith("wrote "))
    )
    _run("sweep", "--scenario", _scenario("fig3_ai16"), "--param", "B_L2",
         "--values", SWEEP_VALUES, "--format", "csv", "--out-dir", str(out))


def test_outputs_match_the_golden_corpus(tmp_path):
    write_corpus(tmp_path)
    expected = sorted(p.name for p in GOLDEN.iterdir() if p.is_file())  # demos/ is test_demos.py's
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == expected
    differing = [name for name in expected
                 if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert differing == []


if __name__ == "__main__":
    write_corpus(Path(sys.argv[1]))
