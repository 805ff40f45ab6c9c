"""The README's quick tour runs as written, so the documented API cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(tour, str(README), "exec"), {"__name__": "readme"})
    # the saddle's three singular points, each classified once
    assert capsys.readouterr().out.splitlines() == [
        "SingularPoint(affine, (0, 0), mu=1) reduced-nondegenerate",
        "SingularPoint(inf1, (0, 0), mu=1) non-reduced",
        "SingularPoint(inf2, (0, 0), mu=1) non-reduced",
    ]
