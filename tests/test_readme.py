"""The README's library example runs against the current code, and its
config schema names the keys the code allows."""

import dataclasses
import pathlib
import re

from lioup import cli, model

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the printed pair EP, at criterion 1b's tolerance
    assert abs(float(capsys.readouterr().out) - 30.0 / 2 ** 0.5) <= 1e-4


def test_config_schema_names_every_allowed_key():
    text = README.read_text(encoding="utf-8")
    schema = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    quoted = set(re.findall(r'"(\w+)"\s*:', schema))
    allowed = set(cli.CONFIG_KEYS).union(
        *(keys for keys in cli.CONFIG_KEYS.values() if keys is not None))
    assert allowed - quoted == set()
    # the keys of a find-ep box are the fields it varies
    fields = {f.name for f in dataclasses.fields(model.ModelParams)}
    assert quoted - allowed - fields == set()
