"""Opt-in line trace of the package: a pytest plugin that lists every
statement of src/affine_basis that no test executed.

    PYTHONPATH=src:tests python -m pytest -p linecov tests

Pytest does not collect this file (its name has no test_ prefix).  It runs
on sys.settrace, so the suite takes several times longer.  A statement is
a line on which a code object of the module starts an instruction
(dis.findlinestarts); a function's def line counts as run when it is
called."""

import dis
import os
import sys

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src", "affine_basis"))
_paths = {}  # co_filename: its real path if it lies in SRC, else None
_hits = set()  # (real path, line number)


def _local(frame, event, arg):
    _hits.add((_paths[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _paths:
        path = os.path.realpath(code.co_filename)
        _paths[code.co_filename] = path if os.path.dirname(path) == SRC else None
    if _paths[code.co_filename]:
        _hits.add((_paths[code.co_filename], code.co_firstlineno))
        return _local
    return None


def _statements(code):
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _statements(const)
    return lines


def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_global)  # before the conftests import the package


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    report = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        for n in sorted(_statements(compile(source, path, "exec"))):
            if (path, n) not in _hits:
                report.append("%s:%d: %s" % (name, n, lines[n - 1].strip()))
    terminalreporter.write_sep("=", "statements no test executed: %d" % len(report))
    for entry in report:
        terminalreporter.write_line(entry)
