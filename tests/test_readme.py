"""README's Python examples run as written, its quoted refusal is what the CLI prints, and
its option tables list what the parser gives each command.

The ```python blocks of README.md run in order, in one namespace, in a
temporary directory. The first one reads ``fig_plos.csv``, so that file is
written first with the ``uavcov sweep-plos`` line that README shows.
"""

import argparse
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


def _option_tables(text: str) -> dict:
    """Each "Config files" option table of README, keyed by the commands of its heading:
    a list of (flags, config cell, commands the row is limited to or None) per row."""
    tables = {}
    for heading, body in re.findall(r"^(.+):\n\n\| flag \|.*\n\|---.*\n((?:\|.*\n)+)", text,
                                    flags=re.M):
        commands = (tuple(c for c in cli.COMMANDS if c != "show-envs")
                    if heading.startswith("Every command except") else
                    tuple(re.findall(r"`([\w-]+)`", heading)))
        rows = []
        for line in body.splitlines():
            flag_cell, config_cell, _ = (cell.strip() for cell in line.strip("|").split("|"))
            only = re.search(r"\((.*) only\)", flag_cell)
            rows.append((re.findall(r"`(--[\w-]+)`", flag_cell), config_cell,
                         re.findall(r"`([\w-]+)`", only.group(1)) if only else None))
        tables[commands] = rows
    return tables


def test_readme_option_tables_are_the_parsers_options():
    tables = _option_tables(README.read_text(encoding="utf-8"))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        given = {flag for action in parser._actions for flag in action.option_strings
                 if flag not in ("-h", "--help")}
        rows = [(flags, config) for commands, table in tables.items() if command in commands
                for flags, config, only in table if only is None or command in only]
        assert {flag for flags, _ in rows for flag in flags} == given, command
        for flags, config in rows:
            for flag, cell in zip(flags, config.split(", "), strict=True):
                (option,) = [o for o in cli._OPTIONS if o.flag == flag and command in o.commands]
                if flag == "--env" or option.field in cli._ENV_KEYS:
                    # a config file sets these through its environment objects
                    assert "`environment`" in cell, (command, flag)
                else:
                    assert cell == (f"`{option.config}`" if option.config else "flag only"), (
                        command, flag)
