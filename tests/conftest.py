"""Shared fixtures."""

import contextlib
import signal
from pathlib import Path

import pytest

from chanauth.cli import EXIT_OK, run


@pytest.fixture(scope="session")
def config_run(tmp_path_factory):
    """``config_run(path)`` runs a config once per session and returns its output directory.

    The shipped configs are checked by tests/test_cli.py and compared with
    their goldens by tests/test_golden.py; both read the same run.
    """
    outs: dict[Path, Path] = {}

    def out_dir(path: Path) -> Path:
        path = Path(path).resolve()
        if path not in outs:
            out = tmp_path_factory.mktemp(path.stem)
            assert run(path, out) == EXIT_OK
            outs[path] = out
        return outs[path]

    return out_dir


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises TimeoutError in the block after ``seconds``.

    A run catches the error and exits 3, so a hang fails its test instead
    of stalling the suite.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
