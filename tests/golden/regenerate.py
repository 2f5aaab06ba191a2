"""Rewrite the golden CSVs that tests/test_golden.py compares against.

    python tests/golden/regenerate.py

Run from a checkout.  Each config in test_golden.CONFIGS is run through
``chanauth run`` at its own seed, and every value that changed is printed
as ``name/file row column: old -> new (relative move)``.  A golden file is
rewritten only where test_golden would fail against it: calibration.csv
when its bytes differ, sweep.csv when its rows, its columns or a text
column differ, or when a FLOAT_COLUMNS value moved by more than RTOL.
A move within RTOL is marked ``within RTOL, kept`` when its file stays
as it is, so last-ulp noise never rewrites an unrelated golden.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import CONFIGS, FLOAT_COLUMNS, GOLDEN, RTOL, read_rows, run_config  # noqa: E402

FILES = ("sweep.csv", "calibration.csv")


def relative_move(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "not a number"
    return f"{abs(b - a) / abs(a):.1e}" if a else "from zero"


def within_rtol(column: str, old: str | None, new: str) -> bool:
    """Whether test_golden accepts ``new`` in place of the sweep.csv value ``old``."""
    if column not in FLOAT_COLUMNS or old is None:
        return False
    return math.isclose(float(new), float(old), rel_tol=RTOL, abs_tol=0.0)


def main() -> int:
    moved = rewritten = 0
    for name in sorted(CONFIGS):
        target = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            run_config(name, Path(tmp))
            target.mkdir(exist_ok=True)
            for file in FILES:
                fresh, golden = Path(tmp) / file, target / file
                if golden.exists() and golden.read_bytes() == fresh.read_bytes():
                    continue
                old = read_rows(golden) if golden.exists() else []
                new = read_rows(fresh)
                if len(old) != len(new):
                    print(f"{name}/{file}: {len(old)} -> {len(new)} rows")
                moves = [
                    (
                        f"{name}/{file} row {i} {column}: {before.get(column)} -> {value}"
                        f" ({relative_move(before.get(column), value)})",
                        file == "sweep.csv" and within_rtol(column, before.get(column), value),
                    )
                    for i, (before, after) in enumerate(zip(old, new))
                    for column, value in after.items()
                    if before.get(column) != value
                ]
                # test_golden compares calibration.csv byte for byte, sweep.csv value by value.
                rewrite = (
                    file == "calibration.csv"
                    or [list(r) for r in old] != [list(r) for r in new]
                    or not all(within for _, within in moves)
                )
                for line, within in moves:
                    print(line + (" within RTOL, kept" if within and not rewrite else ""))
                moved += len(moves)
                if rewrite:
                    shutil.copyfile(fresh, golden)
                    rewritten += 1
    print(f"{moved} value(s) changed, {rewritten} file(s) rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
