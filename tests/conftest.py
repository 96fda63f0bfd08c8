"""Shared pytest configuration: a deterministic Hypothesis profile.

Property tests must give the same verdict on every run and must not fail
on a slow or loaded host, so examples are derandomized, no per-example
deadline applies, the example count is bounded and nothing is written to
an example database.
"""

import warnings

import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a dev extra; its tests skip without it
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("deterministic")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Load Hypothesis's patch writer quietly before its plugin reports a failure.

    On a falsified property the Hypothesis plugin imports its patch writer,
    whose libcst dependency emits a DeprecationWarning at import time; with
    warnings as errors that aborts the whole session instead of reporting
    the one failed test.
    """
    if call.excinfo is not None and getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
