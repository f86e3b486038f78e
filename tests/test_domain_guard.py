"""No library boundary check is a bare comparison that nan passes.

`if x < 0: raise PhysicsDomainError(...)` lets nan (and, for `x <= 0`, inf)
through, because every comparison with nan is false.  The single-argument
domains are stated with errors.check_positive, check_non_negative and
check_integer instead, which test finiteness first.  This guard parses the
library modules and fails on any `if <parameter> <op> <number>`, with op one
of <, <=, >, >=, alone or as an operand of `and`/`or`, that guards a raise of
PhysicsDomainError or one of its subclasses.
"""

import ast
from pathlib import Path

import bhent
from bhent import errors

MODULES = ("geometry", "modes", "channels", "fock_oracle", "estimates", "sweep")
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _raises_domain_error(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call):
            func = stmt.exc.func
            cls = getattr(errors, func.id, None) if isinstance(func, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, errors.PhysicsDomainError):
                return True
    return False


def _bare_comparisons(test: ast.expr, params: set[str]):
    """The comparisons of a parameter with a number in `test`, through and/or only."""
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from _bare_comparisons(value, params)
    elif (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], _ORDERING)
    ):
        left, right = test.left, test.comparators[0]
        if (isinstance(left, ast.Name) and left.id in params and _is_number(right)) or (
            isinstance(right, ast.Name) and right.id in params and _is_number(left)
        ):
            yield test


def bare_domain_checks(source: str, filename: str = "<source>") -> list[str]:
    """`file:line: text` of each bare domain comparison in the source of a module."""
    tree = ast.parse(source, filename)
    sites = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(func):
            if isinstance(node, ast.If) and _raises_domain_error(node.body):
                for cmp in _bare_comparisons(node.test, params):
                    sites.append(f"{filename}:{cmp.lineno}: {ast.unparse(cmp)}")
    return list(dict.fromkeys(sites))  # a nested function is walked twice


def test_guard_finds_the_forms_nan_passes():
    source = (
        "def f(x, n, name):\n"
        "    if x <= 0 or n < 1:\n"
        "        raise PhysicsDomainError('bad')\n"
        "    if -1.5 > x:\n"
        "        raise SuperradiantModeError('bad')\n"
        "    if not (x > 0):\n"  # nan fails x > 0, so `not` refuses it
        "        raise PhysicsDomainError('bad')\n"
        "    if x < n:\n"  # relational: not a single-argument domain
        "        raise PhysicsDomainError('bad')\n"
        "    if x < 0:\n"
        "        raise ValueError('bad')\n"
    )
    assert bare_domain_checks(source) == [
        "<source>:2: x <= 0", "<source>:2: n < 1", "<source>:4: -1.5 > x",
    ]


def test_library_checks_no_domain_with_a_bare_comparison():
    package = Path(bhent.__file__).parent
    sites = []
    for name in MODULES:
        path = package / f"{name}.py"
        sites += bare_domain_checks(path.read_text(encoding="utf-8"), path.name)
    assert sites == []
