"""The README's examples run and print what it says they print.

The Quick start block runs as written, and each line whose trailing comment
starts with a literal (``# 1.5263831609742078``, ``# True``) gives that
literal's text, up to the ``...`` where a comment cuts it off.  Each
``$ extremal-info`` example under "Command line" prints the lines shown
under it, up to a ``...`` line.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from extremal_info import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# a comment that starts with a number or a bool, up to a "..." or a comma
LITERAL = re.compile(r"#\s*(-?\d[\d.e+-]*?|True|False)(\.\.\.|,|$)")


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.DOTALL)


def test_quick_start_values():
    (source,) = _blocks(_section("Quick start"), "python")
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        match = LITERAL.match(comments.get(node.end_lineno, ""))
        if not (isinstance(node, ast.Expr) and match):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        shown = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        literal, end = match.groups()
        assert shown.startswith(literal) if end == "..." else shown == literal, (ast.unparse(node), shown)
        checked.append(literal)
    assert checked == ["1.5263831609742078", "-0.13157894736842105", "True", "1.86582324", "1.86582349", "1.83957474146", "-0.0678"]


def test_command_line_examples():
    (block,) = _blocks(_section("Command line"), "text")
    examples = re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]
    assert len(examples) == 3
    for example in examples:
        command, *shown = example.rstrip("\n").split("\n")
        while shown and shown[-1] == "":
            shown.pop()
        program, *argv = shlex.split(command)
        assert program == "extremal-info"
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 0, err.getvalue()
        printed = out.getvalue().splitlines()
        if shown[-1] == "...":
            shown.pop()
            printed = printed[: len(shown)]
        assert printed == shown, command
