"""The README's library example runs against the current code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the printed pair EP, at criterion 1b's tolerance
    assert abs(float(capsys.readouterr().out) - 30.0 / 2 ** 0.5) <= 1e-4
