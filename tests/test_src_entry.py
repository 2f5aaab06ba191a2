"""Every function in src/ is entered by a run, or is a reference tests compare against.

A profile hook records the code object of every Python frame entered
while ``chanauth validate`` and ``chanauth run`` process the shipped
configs, the golden configs and TestValidateMatchesRun's noncentral
term-cap case, the one config there that reaches a function the others
leave alone (numerics._lugannani_rice).  The functions of src/ are found
by compiling each module and walking its nested code objects, so
methods, properties and decorated functions count by their own code;
code objects are matched on (file, first line, name).  A function that
no run enters fails the test unless REFERENCES names it with a reason.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import chanauth
from chanauth import cli

from test_cli import TERM_CAP, write_cfg

ROOT = Path(__file__).resolve().parent.parent

# Functions no run enters, each with the reason it stays in src/.
REFERENCES = {
    "detect._fixed_gap_energy": "shared by the closed-form miss rates below",
    "detect.miss_rate_low_bc": "closed form at B_c = 0 that the exact evaluator is checked against",
    "detect.miss_rate_time_invariant": "closed form without variation that the exact evaluator is checked against",
    "detect.miss_rate_full_spatial": "closed form for a spoofer sharing the variation, checked against the evaluator",
    "detect.miss_rate_large_variation": "the large-variation limit miss_rate_low_bc is checked to approach",
    "detect.miss_rate_general_numerical": "the dense Monte Carlo miss rate the exact evaluator is checked against",
    "numerics.cholesky": "the dense factor of the dense miss rates and of _oracles.statistic_general",
    "numerics.half_whiten": "the dense whitening solve of the dense miss rates and of _oracles.statistic_general",
    "harness.miss_rate_for_pair": "perfbench/tracer.py counts harness.pair_evals through it",
}


def src_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every named function in src/, mapped to module.qualified.name."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name)

    for info in pkgutil.iter_modules(chanauth.__path__):
        module = importlib.import_module(f"chanauth.{info.name}")
        walk(compile(Path(module.__file__).read_text(), module.__file__, "exec"), info.name)
    return found


def test_every_src_function_is_entered_or_a_reference(tmp_path):
    configs = sorted((ROOT / "configs").glob("*.cfg")) + sorted((ROOT / "tests" / "golden").glob("*.cfg"))
    configs.append(write_cfg(tmp_path, name="term_cap.cfg", **TERM_CAP))
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(["validate", str(path)]) for path in configs]
        codes += [cli.main(["run", str(path), "--out", str(tmp_path / path.stem)]) for path in configs]
    finally:
        sys.setprofile(previous)
    assert codes == [cli.EXIT_OK] * len(codes)

    keys = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    unentered = sorted(name for key, name in src_functions().items() if key not in keys)
    assert [name for name in unentered if name not in REFERENCES] == [], "functions no run enters"
    assert sorted(REFERENCES) == unentered, "REFERENCES names a function that is gone or that a run enters"
