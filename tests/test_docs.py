"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first Python block under the README's "Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    code = quick_start()
    assert "make_model(" in code and "band_energy(" in code
    exec(compile(code, f"{README.name} quick start", "exec"),
         {"__name__": "readme_quick_start"})
    # Its prints: energies, the order terms, the ray's end and drifts.
    lines = capsys.readouterr().out.splitlines()
    assert lines and "nan" not in " ".join(lines).lower()
