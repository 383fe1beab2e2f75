"""Rewrite the golden CLI outputs next to this script.

Run from anywhere: `python tests/golden/regen.py`. It writes the shared inputs
into a temporary directory, runs every case of tests/test_golden.py there and
copies each pinned file here, then writes the printed text of every help and
error case at the pinned terminal width. Only do this when a change moves
output bytes on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden import (  # noqa: E402
    CASES, GOLDEN_DIR, TEXT_CASES, TEXT_COLUMNS, run_case, run_text_case, write_inputs,
)


def main() -> None:
    for stale in GOLDEN_DIR.iterdir():
        if stale.is_file() and stale.suffix != ".py":
            stale.unlink()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(Path(workdir))
        os.chdir(workdir)
        try:
            for name in CASES:
                for fname, blob in run_case(name).items():
                    (GOLDEN_DIR / fname).write_bytes(blob)
        finally:
            os.chdir(here)
    os.environ["COLUMNS"] = TEXT_COLUMNS
    for name in TEXT_CASES:
        _code, out, err = run_text_case(name)
        (GOLDEN_DIR / f"{name}.txt").write_bytes((out + err).encode())
    count = sum(len(CASES[name][1]) + 1 for name in CASES) + len(TEXT_CASES)
    print(f"wrote {count} files to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
