"""Golden outputs: each shipped config, a dense room grid, and three fig4-derived
configs that pin the high_bc and unknown regimes and the B_c axis reproduce
checked-in CSVs.

``tests/golden/<name>/`` holds the sweep.csv and calibration.csv that
``chanauth run`` wrote for each config at its own seed.  A change that moves
a miss rate by more than RTOL, or flips one calibration decision, fails
here, and so does an alpha_hat more than 4 standard errors from the exact
size in summary.txt.  Regenerate on purpose with
``python tests/golden/regenerate.py``, which prints every value that moved.
Each config is run once per session (the ``config_run`` fixture), and
tests/test_cli.py::test_shipped_config_runs reads the same runs of the
shipped configs.  Every golden config must also
validate and give finite outputs with beta_bar in [0, 1].
"""

import csv
import math
from pathlib import Path

import pytest

from chanauth.cli import EXIT_OK, main, run

GOLDEN = Path(__file__).resolve().parent / "golden"
SHIPPED = ("fig3", "fig4", "fig5", "fig7")
CONFIGS = {
    **{name: GOLDEN.parent.parent / "configs" / f"{name}.cfg" for name in SHIPPED},
    **{name: GOLDEN / f"{name}.cfg" for name in ("room_grid", "high_bc_W", "unknown_Bc", "general_Bc")},
}
FLOAT_COLUMNS = ("beta_bar", "std_err")
RTOL = 1e-12  # relative; last-ulp moves from a reordered sum stay far below it


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_config(name: str, out: Path) -> None:
    assert run(CONFIGS[name], out) == EXIT_OK


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(config_run, name):
    assert main(["validate", str(CONFIGS[name])]) == EXIT_OK
    out = config_run(CONFIGS[name])
    got_rows, (calib,) = read_rows(out / "sweep.csv"), read_rows(out / "calibration.csv")
    assert got_rows and all(math.isfinite(float(r["std_err"])) for r in got_rows)
    assert all(0.0 <= float(r["beta_bar"]) <= 1.0 for r in got_rows)
    alpha_hat, se = float(calib["alpha_hat"]), float(calib["std_err"])
    assert math.isfinite(alpha_hat) and math.isfinite(se)
    # The calibration estimates the test's exact size, which summary.txt records.
    summary = (out / "summary.txt").read_text().splitlines()
    (exact,) = [float(line.removeprefix("exact_alpha: ")) for line in summary if line.startswith("exact_alpha: ")]
    assert abs(alpha_hat - exact) <= 4.0 * se

    want = GOLDEN / name
    assert (out / "calibration.csv").read_bytes() == (want / "calibration.csv").read_bytes()
    want_rows = read_rows(want / "sweep.csv")
    assert [list(r) for r in got_rows] == [list(r) for r in want_rows]
    for got, expected in zip(got_rows, want_rows):
        for column, value in expected.items():
            if column in FLOAT_COLUMNS:
                assert math.isclose(float(got[column]), float(value), rel_tol=RTOL, abs_tol=0.0), (column, got, expected)
            else:
                assert got[column] == value, (column, got, expected)
