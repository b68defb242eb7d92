"""The line tracer of tests/reach.py, on a small module written for the test.

reach.py runs the whole suite, so it stays out of Tier-1; this keeps its
tracer and its count of executable lines from breaking unnoticed.
"""

import runpy
import threading

import reach

PROBE = """\
def sign(x):
    if x < 0:
        return -1
    if x == 0:
        return 0
    return 1
"""


def test_reports_exactly_the_unrun_line(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(PROBE)

    def run():
        sign = runpy.run_path(str(path))["sign"]
        worker = threading.Thread(target=sign, args=(-3,))  # line 3 runs only here
        worker.start()
        worker.join()
        return sign(5)

    result, reached = reach.traced(str(tmp_path), run)
    assert result == 1
    assert reach.executable_lines(str(path)) == {1, 2, 3, 4, 5, 6}
    assert reach.unreached(str(tmp_path), reached) == [(str(path), 5, "return 0")]
