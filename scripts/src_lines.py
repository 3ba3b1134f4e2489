"""Count the source lines of ``src/zjkit``: code lines per module and in total.

A code line holds at least one token that is not a comment or a docstring
(a string that is a statement on its own); a token that spans lines, such
as a multi-line string literal, counts every line it spans. Blank lines do
not count. The last line prints the physical line total, as ``wc -l``.

    python scripts/src_lines.py [SRC_DIR]
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    """The number of lines of ``text`` that hold code."""
    lines = set()
    statement = []  # the current logical line's tokens, comments and NL left out
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "zjkit")
    total_code = total_lines = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, lines = code_lines(text), text.count("\n")
        total_code += code
        total_lines += lines
        print(f"{path.name:<16} {code:>6} code {lines:>6} lines")
    print(f"{'total':<16} {total_code:>6} code {total_lines:>6} lines")


if __name__ == "__main__":
    main(sys.argv)
