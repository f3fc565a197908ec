"""The README's Quick tour runs as written, so the documented API cannot
drift from the code without a failing test."""

import pathlib
import re


def test_readme_quick_tour_runs():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```", tour.split("\n## ", 1)[0], re.M | re.S)
    namespace = {}
    exec(compile(block, "README.md (Quick tour)", "exec"), namespace)
    assert namespace["witness"] and namespace["ok"]
    assert namespace["plan"].block_growth == 20
