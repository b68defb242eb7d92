"""README examples run as written and print what the README shows."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _quick_start():
    """The Quick start (Python) code block and the output block after it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Quick start (Python)", 1)[1]
    code, rest = section.split("```python\n", 1)[1].split("```\n", 1)
    output = rest.split("```\n", 1)[1].split("```", 1)[0]
    return code, output


def test_python_quick_start_prints_its_output():
    code, output = _quick_start()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == output
