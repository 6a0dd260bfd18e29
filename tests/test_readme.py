import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    # the README's first python block is the library quickstart; it must keep
    # running against the public API
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert max(namespace["report"].deviation) < 1e-2
    assert capsys.readouterr().out.strip()
