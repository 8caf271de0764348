"""Count the code lines of each ``src/uavcov`` module: comments, docstrings and blank
lines left out.

A line counts when a token other than a comment, a newline or an indent starts on it or
spans it. A string that is a statement of its own, a docstring or any other bare string,
counts as no line. Standard library only.

Usage: ``python3 tools/code_lines.py [SRC_DIR]``, where SRC_DIR defaults to this
checkout's ``src/uavcov``. Prints one ``<lines> <module>`` line per module, then the
total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE ends a logical line, NL a blank or continued one
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as handle:
        tokens = [token for token in tokenize.tokenize(handle.readline)
                  if token.type != tokenize.COMMENT]
    lines = set()
    depth = 0  # of brackets; a statement starts only outside them
    for previous, token, following in zip(tokens, tokens[1:], tokens[2:]):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.OP:
            depth += (token.string in "([{") - (token.string in ")]}")
        # a string that is its own statement: a docstring, or a bare string
        bare_string = (token.type == tokenize.STRING and not depth
                       and previous.type in _LAYOUT and following.type == tokenize.NEWLINE)
        if not bare_string:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "uavcov"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
