"""The traced benchmark step of the CI workflow fails a run that answers
wrongly: its `answered` shell function accepts the last JSON line of a
`bench/run.py` run only with "correct": true and "failed": 0."""

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
GOOD = {"correct": True, "attempted": 6, "failed": 0, "metrics": {}}


def _traced_step():
    text = WORKFLOW.read_text()
    start = text.index("- name: Traced benchmark runs")
    return text[start:]


def _answered(lines):
    match = re.search(r"^( *)answered\(\) \{\n.*?^\1\}\n", _traced_step(), re.M | re.S)
    script = match.group(0) + 'printf "%s\\n" "$@" | answered\n'
    return subprocess.run(["bash", "-c", script, "answered", *lines]).returncode


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_answered_accepts_a_good_line_and_refuses_a_doctored_one():
    assert _answered(["summary", json.dumps(GOOD)]) == 0
    for doctored in ({**GOOD, "correct": False}, {**GOOD, "failed": 13}):
        assert _answered([json.dumps(doctored)]) != 0
    # only the last line counts
    assert _answered([json.dumps(GOOD), json.dumps({**GOOD, "correct": False})]) != 0


def test_every_traced_run_is_checked():
    step = _traced_step()
    assert step.count("bench/run.py --workload") == 1
    assert re.search(r'out=\$\(python3 bench/run\.py[^\n]*\)\n.*\| answered\n', step, re.S)
