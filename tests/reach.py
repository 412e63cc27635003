"""Functions of ``src/sobex`` that no certified entry reaches.

Traces every call into the package in one process over its three
entries: every golden CLI run of ``golden_reports.RUNS``, the demo
scripts and the acceptance tests C01-C10.  Then prints each function
that is never called, so that no line of it runs, with its non-blank line
count (decorators, signature and docstring included; a function nested
in one it lists is counted there, not listed again), and the totals:

    PYTHONPATH=src python tests/reach.py

With ``--lines`` it traces line events too and prints, grouped by the
function (or class or module body) that holds them, the simple statements
that never run, each by its first line; docstrings are left out, and so is
a compound statement's header (``if``, ``for``, ``try`` ...), whose body
speaks for it:

    PYTHONPATH=src python tests/reach.py --lines

Either way it ends with the non-blank line count of each ``src/sobex/*.py``
and their total, the size of the package that the ROADMAP tracks.

Only the tests reach what it prints; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import pathlib
import runpy
import shutil
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "sobex"


class CallTrace:
    """``sys.settrace`` hook that records ``(file, first line, name)`` of every code
    object of ``PACKAGE`` that runs; with ``lines`` it also records ``(file, line)``
    of every line event in them, and otherwise asks for none."""

    def __init__(self, lines=False):
        self.prefix = str(PACKAGE) + "/"
        self.called = set()
        self.lines = set() if lines else None

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self.prefix):
            self.called.add((code.co_filename, code.co_firstlineno, code.co_name))
            if self.lines is not None:
                return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def run_entries():
    """Run the golden runs, the demos and C01-C10 (each silenced)."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import golden_reports
    import pytest

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name in golden_reports.RUNS:
            golden_reports.run(name)
        with tempfile.TemporaryDirectory() as tmp:
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(shutil.copy(demo, tmp), run_name="__main__")
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(TESTS / "test_acceptance.py")])
    if code != 0:
        raise SystemExit(f"C01-C10 failed (pytest exit {code}):\n{sink.getvalue()}")


def _functions(tree):
    """``(qualname, node)`` of every outermost function of a module, methods included;
    a nested function comes right after the one that holds it."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(tree, "")
    return out


def unreached(called):
    """``(module.qualname, non-blank lines)`` of every function that was never called."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        skip_to = 0  # end of the last function listed: its nested functions are inside it
        for name, node in _functions(ast.parse("\n".join(source))):
            # a code object's first line is its first decorator's
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if start > skip_to and (str(path), start, node.name) not in called:
                size = sum(1 for text in source[start - 1:node.end_lineno] if text.strip())
                out.append((f"{path.stem}.{name}", size))
                skip_to = node.end_lineno
    return out


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _simple_statements(tree):
    """``(scope, node)`` of every statement of a module that holds no statements,
    docstrings left out; ``scope`` is the qualname of the innermost function or
    class around it ("" at module level)."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                walk(child, scope)
            elif not isinstance(child, ast.stmt):
                continue
            elif isinstance(child, _SCOPES):
                walk(child, f"{scope}{child.name}.")
            elif hasattr(child, "body") or hasattr(child, "cases"):
                walk(child, scope)
            elif not (isinstance(node, _SCOPES) and child is node.body[0]
                      and isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                      and isinstance(child.value.value, str)):
                out.append((scope, child))

    walk(tree, "")
    return out


def unrun(lines):
    """``(module.qualname, [(line, text)])`` of every scope with a simple statement
    none of whose lines had a line event."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = {line for file, line in lines if file == str(path)}
        groups = {}
        for scope, node in _simple_statements(ast.parse("\n".join(source))):
            if ran.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                name = f"{path.stem}.{scope[:-1]}" if scope else path.stem
                groups.setdefault(name, []).append((node.lineno, source[node.lineno - 1]))
        out.extend(groups.items())
    return out


def line_counts():
    """``(file name, non-blank lines)`` of every module of the package."""
    return [(path.name, sum(1 for text in path.read_text().splitlines() if text.strip()))
            for path in sorted(PACKAGE.glob("*.py"))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", action="store_true",
                    help="list the statements that never run, not the functions never called")
    args = ap.parse_args(argv)
    trace = CallTrace(lines=args.lines)
    sys.settrace(trace)
    try:
        run_entries()
    finally:
        sys.settrace(None)
    if args.lines:
        groups = unrun(trace.lines)
        for name, rows in groups:
            print(name)
            for line, text in rows:
                print(f"  {line:5d}  {text.strip()}")
        count = sum(len(rows) for _, rows in groups)
        print(f"{count} statements in {len(groups)} scopes never run")
    else:
        rows = unreached(trace.called)
        for name, size in rows:
            print(f"{name:60s} {size:4d}")
        print(f"{len(rows)} functions, {sum(size for _, size in rows)} non-blank lines unreached")
    counts = line_counts()
    for name, size in counts:
        print(f"{name:60s} {size:4d}")
    print(f"{len(counts)} modules, {sum(size for _, size in counts)} non-blank lines in src/sobex")
    return 0


if __name__ == "__main__":
    sys.exit(main())
