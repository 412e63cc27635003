"""Functions of ``src/sobex`` that no certified entry reaches.

Traces every call into the package in one process over its three
entries: every golden CLI run of ``golden_reports.RUNS``, the demo
scripts and the acceptance tests C01-C10.  Then prints each function
that is never called, so that no line of it runs, with its non-blank line
count (decorators, signature and docstring included; a function nested
in one it lists is counted there, not listed again), and the totals:

    PYTHONPATH=src python tests/reach.py

Only the tests reach what it prints; pytest does not collect this file.
"""

from __future__ import annotations

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
    object of ``PACKAGE`` that runs; it asks for no line events."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.called = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self.prefix):
            self.called.add((code.co_filename, code.co_firstlineno, code.co_name))


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


def main():
    trace = CallTrace()
    sys.settrace(trace)
    try:
        run_entries()
    finally:
        sys.settrace(None)
    rows = unreached(trace.called)
    for name, size in rows:
        print(f"{name:60s} {size:4d}")
    print(f"{len(rows)} functions, {sum(size for _, size in rows)} non-blank lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
