"""Repo-wide pytest configuration.

Point the engine's persistent result cache at a per-session temporary
directory: a plain ``pytest`` run must neither read nor mutate the
user's ``~/.cache/repro``, and the ablation benchmarks must keep
timing real simulations rather than warm-cache JSON loads on reruns.
Tests that want a specific cache location pass ``cache_dir``
explicitly and are unaffected.  The ``closes`` fixture closes the
stores, caches and engines a test opens when it ends.
"""

import contextlib

import pytest

try:
    from hypothesis import settings as _hypothesis_settings

    # The timing-equivalence CI job selects the deterministic profile
    # with ``--hypothesis-profile=ci``; local runs keep the default.
    _hypothesis_settings.register_profile(
        "ci", deadline=None, derandomize=True, max_examples=60,
        print_blob=True)
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    pass


@pytest.fixture(scope="session", autouse=True)
def _isolated_repro_cache(tmp_path_factory):
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR",
                   str(tmp_path_factory.mktemp("repro-cache")))
    yield
    patcher.undo()


@pytest.fixture()
def closes():
    """``closes(thing)`` returns ``thing`` and calls its ``close()``
    when the test ends, however it ends."""
    with contextlib.ExitStack() as stack:
        yield lambda thing: stack.enter_context(contextlib.closing(thing))
