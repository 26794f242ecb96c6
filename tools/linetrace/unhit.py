"""List the statements of each function that never ran, from the hit files
that ``sitecustomize.py`` wrote.

    python tools/linetrace/unhit.py HITS_DIR FILE [FILE ...]

For each function (methods and nested functions included) of each FILE it
prints ``FILE:LINE: QUALNAME: not called`` when none of its statements ran,
and otherwise ``FILE:LINE: QUALNAME: SOURCE`` for each statement that did
not.  Docstrings are not statements here.  A simple statement ran when any
of its lines did; a compound one when a line of its header did (for
``try``, when any statement inside it did).
"""

import ast
import json
import os
import sys
from pathlib import Path

_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def load_hits(directory) -> dict[str, set[int]]:
    """Real path -> every line that ran in it, over all the hit files under
    ``directory``, at any depth."""
    hits: dict[str, set[int]] = {}
    for path in Path(directory).rglob("*.json"):
        for name, lines in json.loads(path.read_text()).items():
            hits.setdefault(name, set()).update(lines)
    return hits


def _children(node) -> list[ast.stmt]:
    """The statements directly inside ``node``; a handler or case block's
    statements count as ``node``'s own."""
    out = []
    for field in _BODIES:
        for child in getattr(node, field, ()):
            out.extend(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                       else [child])
    return out


def _header(node) -> range:
    """The lines that run a statement: all of a simple one, and those before
    the first inner statement of a compound one, decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    inner = _children(node)
    last = inner[0].lineno - 1 if inner else node.end_lineno
    return range(first, max(first, last) + 1)


def _ran(node, lines: set[int]) -> bool:
    if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return any(_ran(child, lines) for child in _children(node))
    return any(line in lines for line in _header(node))


def _statements(body) -> list[ast.stmt]:
    """Every statement under ``body``, not entering nested functions or
    classes."""
    out = []
    for node in body:
        out.append(node)
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            out.extend(_statements(_children(node)))
    return out


def _functions(tree):
    """``(qualname, node)`` of every function in the module, outer first."""
    stack = [("", tree)]
    while stack:
        prefix, node = stack.pop(0)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS + (ast.ClassDef,)):
                name = prefix + child.name
                if isinstance(child, _FUNCTIONS):
                    yield name, child
                stack.append((name + ".", child))
            elif not isinstance(child, (ast.expr, ast.arguments)):
                stack.append((prefix, child))


def report(path, hits: dict[str, set[int]]) -> list[str]:
    source = Path(path).read_text()
    text = source.splitlines()
    lines = hits.get(os.path.realpath(path), set())
    out = []
    for name, fn in _functions(ast.parse(source)):
        body = _statements(fn.body[1:] if ast.get_docstring(fn, clean=False) else fn.body)
        missed = [node for node in body if not _ran(node, lines)]
        if body and len(missed) == len(body):
            out.append(f"{path}:{fn.lineno}: {name}: not called")
            continue
        for node in missed:
            out.append(f"{path}:{node.lineno}: {name}: {text[node.lineno - 1].strip()}")
    return out


def main(argv) -> int:
    if len(argv) < 2:
        sys.exit("usage: python tools/linetrace/unhit.py HITS_DIR FILE [FILE ...]")
    hits = load_hits(argv[0])
    for path in argv[1:]:
        for line in report(path, hits):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
