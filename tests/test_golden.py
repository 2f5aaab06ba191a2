"""Golden outputs: each shipped config, and a dense room grid, reproduce checked-in CSVs.

``tests/golden/<name>/`` holds the sweep.csv and calibration.csv that
``chanauth run`` wrote for each config at its own seed.  A change that moves
a miss rate by more than RTOL, or flips one calibration decision, fails
here.  Regenerate on purpose with ``python tests/golden/regenerate.py``,
which prints every value that moved.
"""

import csv
import math
from pathlib import Path

import pytest

from chanauth.cli import EXIT_OK, run

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    **{name: GOLDEN.parent.parent / "configs" / f"{name}.cfg" for name in ("fig3", "fig4", "fig5", "fig7")},
    "room_grid": GOLDEN / "room_grid.cfg",
}
FLOAT_COLUMNS = ("beta_bar", "std_err")
RTOL = 1e-12  # relative; last-ulp moves from a reordered sum stay far below it


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_config(name: str, out: Path) -> None:
    assert run(CONFIGS[name], out) == EXIT_OK


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(tmp_path, name):
    run_config(name, tmp_path)
    want = GOLDEN / name
    assert (tmp_path / "calibration.csv").read_bytes() == (want / "calibration.csv").read_bytes()
    got_rows, want_rows = read_rows(tmp_path / "sweep.csv"), read_rows(want / "sweep.csv")
    assert [list(r) for r in got_rows] == [list(r) for r in want_rows]
    for got, expected in zip(got_rows, want_rows):
        for column, value in expected.items():
            if column in FLOAT_COLUMNS:
                assert math.isclose(float(got[column]), float(value), rel_tol=RTOL, abs_tol=0.0), (column, got, expected)
            else:
                assert got[column] == value, (column, got, expected)
