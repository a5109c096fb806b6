"""A time limit per test and per collected module, so code that stops
terminating fails the run instead of hanging it.

Past ``TIME_LIMIT_S`` the stdlib's ``faulthandler`` writes every thread's
traceback to stderr and ends the process with exit status 1.  The limit
covers each test's setup, call and teardown, so it also covers a
module-scoped fixture built for that test (the acceptance sweep runs the
engine in one; a function-scoped fixture would start only after it), and
each module's collection, which imports it (``test_records`` builds a
certificate at import).

The ``plan_memo`` fixture gives a test the anchored bodies' plan memo cold.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from kneser_minors import baranyai

# The slowest test or fixture takes about 4 s here; the limit leaves room for
# slower machines and stays far below the CI job's limit.
TIME_LIMIT_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    # A copy of the terminal's stderr, taken while output is not captured:
    # the process exits at once, so captured output would be lost.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(config.stash[_STDERR])


def _limited(config: pytest.Config):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem: pytest.Item | None):
    yield from _limited(item.config)


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector: pytest.Collector):
    yield from _limited(collector.config)


@pytest.fixture
def plan_memo():
    """``baranyai._local_plan``, its cache cleared before and after the test, so
    the test starts cold and no solve made under a patched solver outlives it."""
    baranyai._local_plan.cache_clear()
    yield baranyai._local_plan
    baranyai._local_plan.cache_clear()
