import contextlib
import signal

import pytest

from stjac.ffield import make_field

_cache = {}


@pytest.fixture
def field():
    """Memoized PrimeField factory (dlog tables are pure and reusable)."""

    def get(p):
        if p not in _cache:
            _cache[p] = make_field(p)
        return _cache[p]

    return get


@contextlib.contextmanager
def _deadline(seconds=5):
    """Fail the block with TimeoutError once it runs `seconds` (main thread, SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """Context manager that turns a hang into a failure after a few seconds."""
    return _deadline
