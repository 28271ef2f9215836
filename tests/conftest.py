"""A time cap on every test, so that a fault which spins a loop forever
fails its test instead of hanging the suite, and the fixture that
empties route 3's kernel memo."""

import signal

import pytest

from lisenum import pipeline

TIME_CAP_S = 60  # the slowest test, test_out_of_memory_exits_2, takes about 4 s


class TimeCapExceeded(BaseException):
    """A test ran past ``TIME_CAP_S``.  Not an ``Exception``, so neither an
    ``except Exception`` in the code under test nor hypothesis catches it
    or retries the example."""


def _expire(signum, frame):
    raise TimeCapExceeded(f"test ran past its {TIME_CAP_S} s cap")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_CAP_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fresh_kernel_memo():
    """Route 3's kernel memo, empty when the test starts, so that a kernel
    solved before is solved again, and emptied when it ends, so that a
    kernel solved under a patched solver reaches no later test."""
    pipeline._solved_kernel.cache_clear()
    yield
    pipeline._solved_kernel.cache_clear()
