"""Every parameter default of the package is a value some call changes.

A defaulted parameter that no call in ``src/``, ``tests/`` or ``bench/``
passes is a constant in disguise: it is never run at another value, yet
every reader has to ask which values it takes.  This lint reads the
source with ``ast`` and names each such parameter of the functions and
methods defined at module level in ``src/rogcones``.  A call matches by
the function's name, passes a parameter by keyword or by position, and
passes every parameter when it unpacks ``*args`` or ``**kwargs``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _defaulted(tree):
    """(function name, parameter, positional index or None for keyword-only)
    of each defaulted parameter; a method's index does not count self."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            for i in range(len(pos) - len(args.defaults), len(pos)):
                yield fn.name, pos[i].arg, i - is_class
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def _calls_by_name():
    calls = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param, index):
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or (index is not None and len(call.args) > index))


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls_by_name()
    unset = [f"{path.stem}.{fn}({param})"
             for path in sorted((ROOT / "src" / "rogcones").glob("*.py"))
             for fn, param, index in _defaulted(ast.parse(path.read_text()))
             if not any(_passes(c, param, index) for c in calls.get(fn, ()))]
    assert unset == []
