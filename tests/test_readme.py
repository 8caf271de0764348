"""README's Python examples run as written, and its quoted refusal is what the CLI prints.

The ```python blocks of README.md run in order, in one namespace, in a
temporary directory. The first one reads ``fig_plos.csv``, so that file is
written first with the ``uavcov sweep-plos`` line that README shows.
"""

import re
import shlex
from pathlib import Path

from uavcov import cli, reporting

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (line,) = [line for line in text.splitlines()
               if line.startswith("uavcov sweep-plos") and "fig_plos.csv" in line]
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0

    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # "identical bytes": the table rebuilt from the CSV's metadata renders the same CSV
    assert reporting.render_csv(namespace["table"]) == Path("fig_plos.csv").read_text()
    assert capsys.readouterr().out


def test_readme_refusal_is_what_the_cli_prints(capsys):
    text = README.read_text(encoding="utf-8")
    ((command, quote),) = re.findall(r"^\$ (uavcov .*)\n(uavcov: error: .*)$", text, flags=re.M)
    assert cli.main(shlex.split(command)[1:]) == 2
    assert capsys.readouterr().err == quote + "\n"
