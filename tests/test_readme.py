"""README.md names what the repository holds: its "Experiment scripts"
block lists exactly the scripts under ``scripts/``."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_names_exactly_the_experiment_scripts():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Experiment scripts\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    named = re.findall(r"\bscripts/(\S+\.py)\b", block)
    assert sorted(named) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))
