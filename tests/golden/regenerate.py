"""Rewrite the golden CSVs that tests/test_golden.py compares against.

    python tests/golden/regenerate.py

Run from a checkout.  Each config in test_golden.CONFIGS is run through
``chanauth run`` at its own seed, its sweep.csv and calibration.csv replace
the files under tests/golden/<name>/, and every value that changed is
printed as ``name/file row column: old -> new (relative move)``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import CONFIGS, GOLDEN, read_rows, run_config  # noqa: E402

FILES = ("sweep.csv", "calibration.csv")


def relative_move(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "not a number"
    return f"{abs(b - a) / abs(a):.1e}" if a else "from zero"


def main() -> int:
    moved = 0
    for name in sorted(CONFIGS):
        target = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            run_config(name, Path(tmp))
            target.mkdir(exist_ok=True)
            for file in FILES:
                old = read_rows(target / file) if (target / file).exists() else []
                new = read_rows(Path(tmp) / file)
                if len(old) != len(new):
                    print(f"{name}/{file}: {len(old)} -> {len(new)} rows")
                    moved += 1
                for i, (before, after) in enumerate(zip(old, new)):
                    for column, value in after.items():
                        if before.get(column) != value:
                            print(f"{name}/{file} row {i} {column}: {before.get(column)} -> {value} ({relative_move(before.get(column), value)})")
                            moved += 1
                shutil.copyfile(Path(tmp) / file, target / file)
    print(f"{moved} value(s) changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
