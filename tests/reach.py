"""Which lines of ``src/kpex`` no Tier-1 test reaches.

Run from anywhere, with nothing installed beyond pytest:

    python3 tests/reach.py

It runs the Tier-1 suite in this process, without the two slow training
criteria (``DESELECTED``), under a ``sys.settrace`` line trace that records
only frames of ``src/kpex`` and is also set on every thread started. A line
counts as executable when ``co_lines()`` gives it for the compiled module
or one of its nested code objects. Each executable line never reached is
printed as ``file:line: source``. Lines that only a subprocess runs, which
this trace cannot see, are listed in ``SUBPROCESS_ONLY`` with the test that
runs them, and printed apart. The exit status is 1 when any other line is
unreached, else 0; the suite's own pass or fail does not change it.

CPython drops a trace function that raises, and one called for a frame made
at the recursion limit does: a finalizer that the garbage collector runs
inside a deep JSON parse, for one. So the trace is set again after any test
that lost it, and that test is named, as the rest of it went untraced.

Only the standard library and pytest are used: ``coverage`` is not needed.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "kpex")

DESELECTED = (
    "tests/test_acceptance.py::test_criterion_05_visual_signal_direction",
    "tests/test_acceptance.py::test_criterion_06_pretraining_direction",
)

# (file name, stripped source line) -> the test that runs it in a subprocess
SUBPROCESS_ONLY = {
    ("cli.py", "sys.exit(main())"): "tests/test_cli.py::TestTopLevel::test_module_entry_point",
}


def executable_lines(path):
    """The line numbers ``co_lines()`` gives for ``path``'s code and every nested code object.

    Line 0, where a module's code starts before its first line, is left out.
    """
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(directory, run):
    """Call ``run()`` under a line trace of the files in ``directory``.

    Returns ``(run's result, {absolute path: set of reached line numbers})``.
    The trace is on for this thread and every thread started meanwhile; the
    tracers set before are restored after.
    """
    prefix = os.path.join(os.path.abspath(directory), "")
    reached = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        reached.setdefault(path, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, reached


def unreached(directory, reached):
    """``[(path, line number, source)]`` of every executable line of ``directory`` not reached."""
    missed = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(os.path.abspath(directory), name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        seen = reached.get(path, set())
        missed.extend((path, line, source[line - 1].strip())
                      for line in sorted(executable_lines(path) - seen))
    return missed


class _Retrace:
    """pytest plugin: sets the trace again after a test that lost it, and lists those tests."""

    def __init__(self):
        self.lost = []

    def pytest_sessionstart(self):
        self.tracer = sys.gettrace()

    def pytest_runtest_teardown(self, item):
        if sys.gettrace() is not self.tracer:
            self.lost.append(item.nodeid)
            sys.settrace(self.tracer)


def main():
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    argv = ["-q", "-p", "no:cacheprovider", "tests"]
    for test in DESELECTED:
        argv += ["--deselect", test]
    retrace = _Retrace()
    status, reached = traced(PACKAGE, lambda: pytest.main(argv, plugins=[retrace]))
    print(f"pytest exit status {int(status)}")
    for test in retrace.lost:
        print(f"trace lost and set again after: {test}")
    missed, subprocess_only = [], []
    for path, line, text in unreached(PACKAGE, reached):
        where = f"{os.path.relpath(path, ROOT)}:{line}: {text}"
        test = SUBPROCESS_ONLY.get((os.path.basename(path), text))
        (subprocess_only if test else missed).append(where + (f"  [{test}]" if test else ""))
    for where in subprocess_only:
        print(f"run only in a subprocess: {where}")
    for where in missed:
        print(where)
    print(f"{len(missed)} unreached lines in src/kpex "
          f"({len(subprocess_only)} more run only in a subprocess)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
