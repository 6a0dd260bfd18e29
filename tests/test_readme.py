import re
import shlex
from pathlib import Path

import sgwaves
from sgwaves.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys, tmp_path, monkeypatch):
    # the README's first python block is the library quickstart; it must keep
    # running against the public API, and any file it writes lands in tmp_path
    monkeypatch.chdir(tmp_path)
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert max(namespace["report"].deviation) < 1e-2
    assert capsys.readouterr().out.strip()


def test_command_line_block_runs(tmp_path, monkeypatch):
    # every sgwaves line of the README's command-line block must run as shown
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("sgwaves ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_public_names_resolve_once():
    # `from sgwaves import *` fails on a name in __all__ that the package lacks
    namespace = {}
    exec("from sgwaves import *", namespace)
    assert len(sgwaves.__all__) == len(set(sgwaves.__all__))
    assert set(sgwaves.__all__) <= namespace.keys()
