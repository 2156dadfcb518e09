"""Shared test plumbing.

The acceptance tests (tests/test_acceptance.py) record one human-readable
line per criterion; the terminal-summary hook reprints them at the end of
the run so the pass/fail ledger is visible regardless of capture settings.
"""

import importlib.util
import os
import sys

import pytest

from affine_basis import intertwiner

sys.path.insert(0, os.path.dirname(__file__))

ACCEPTANCE_LINES = []


def record_criterion(number, ok, elapsed, budget, description):
    """Record and print one acceptance line, then enforce it."""
    status = "PASS" if ok else "FAIL"
    line = "criterion %d: %s (%.2fs)  %s" % (number, status, elapsed, description)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, "criterion %d took %.2fs (budget %ss)" % (
        number,
        elapsed,
        budget,
    )


def installed_tracer():
    """perfbench's tracer, installed around the package's entry points; the
    caller uninstalls it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    return tracer


def perturb_solve_w(monkeypatch, degree):
    """Wrap intertwiner.solve_w so that each map it returns has 1 added to
    one entry of its first nonempty block of `degree`, if it has one: a w
    the solver would never return, which only the certificate can catch."""
    real = intertwiner.solve_w

    def perturbed(source, target, window):
        wmap = real(source, target, window)
        key = next((k for k in sorted(wmap.blocks) if k[0] == degree and any(wmap.blocks[k])), None)
        if key is not None:
            wmap.blocks[key][0][0] += 1
        return wmap

    monkeypatch.setattr(intertwiner, "solve_w", perturbed)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory):
    """One disk cache shared by the heavyweight tests of a session (cold at
    session start, so timings stay honest)."""
    return str(tmp_path_factory.mktemp("gram-cache"))


@pytest.fixture(autouse=True)
def own_models(monkeypatch):
    """Each test starts from an empty store of truncated models and of the
    maps solved on them, so what it checks does not depend on which tests
    ran before it."""
    monkeypatch.setattr(intertwiner, "_TRUNC_CACHE", {})
