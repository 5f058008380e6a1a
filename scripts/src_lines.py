#!/usr/bin/env python3
"""Count the lines of every module of the package source: physical lines, and
code lines, the lines a token of code touches once comments, blank lines and
docstrings are dropped (a logical line that is one string alone, by the
tokenizer).  One row per module, then the total.

    python3 scripts/src_lines.py [SRC_DIR]
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines a token of code touches, docstrings and comments left out."""
    lines, statement = set(), []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    total_physical = total_code = 0
    print(f"{'module':40s} {'physical':>8s} {'code':>6s}")
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        physical, code = len(text.splitlines()), code_lines(text)
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{path.relative_to(src).as_posix():40s} {physical:8d} {code:6d}")
    print(f"{'total':40s} {total_physical:8d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
