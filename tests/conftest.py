"""A time cap on every test, so that a fault which spins a loop forever
fails its test instead of hanging the suite."""

import signal

import pytest

TIME_CAP_S = 60  # the slowest test, test_out_of_memory_exits_2[argv1], takes about 2-3 s


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
