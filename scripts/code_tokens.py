"""Count the non-comment code tokens of each module under ``src/``.

A code token is any token of Python's ``tokenize`` other than COMMENT, NL,
NEWLINE, INDENT, DEDENT and ENDMARKER; a docstring is one STRING token.
This is the count that the compile peak of a module follows.

    python scripts/code_tokens.py            # one line per module, then the total
    python scripts/code_tokens.py --defs     # also each top-level def and class
"""
from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def code_lines(path: Path) -> list[int]:
    """The start line of each code token of the file at ``path``."""
    with tokenize.open(path) as f:
        return [tok.start[0] for tok in tokenize.generate_tokens(f.readline)
                if tok.type not in SKIP]


def top_level_defs(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level def and class,
    decorators included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--defs", action="store_true",
                        help="also count each top-level def and class")
    args = parser.parse_args()
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = code_lines(path)
        total += len(lines)
        print(f"{len(lines):8d}  {path.relative_to(SRC)}")
        if args.defs:
            for name, first, last in top_level_defs(path):
                print(f"{sum(first <= n <= last for n in lines):8d}    {name}")
    print(f"{total:8d}  total")


if __name__ == "__main__":
    main()
