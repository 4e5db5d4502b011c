"""README's examples run as written: every `evjoint ...` command of its `sh`
blocks, in order in one directory, and then its `python` block."""

import re
import shlex
from pathlib import Path

import evjoint.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _commands():
    """The `evjoint` lines of the sh blocks, continuations joined."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("evjoint ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert {argv[1] for argv in commands} == {"synth", "denoise", "eval", "estimate-motion",
                                              "render"}
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
