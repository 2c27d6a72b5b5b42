"""Checks on the package source itself.

- The README's Library block runs as written and gives the values its
  comments state, so every public name it imports stays importable.
- Every function and method defined in `src/chernmather/` is entered by the
  golden CLI cases or the Library block: code that only the tests reach
  belongs in the tests.  Dunder methods are exempt; the methods that
  `namedtuple` gives the value classes are defined in `collections`, not
  in the source.
- No function in `src/chernmather/` carries a cache (`cache_info`): each
  call does its own work, so a caller that needs a value twice keeps it.
- No `assert` statement in `src/chernmather/`: `python -O` strips them, so
  runtime checks raise typed exceptions instead.
- `import chernmather.cli` loads none of `dataclasses`, `inspect`,
  `typing`, `argparse` and `gettext`: every CLI run pays for what that
  import loads.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import chernmather
from chernmather.classpoly import ClassPoly
from chernmather.cli import main

from test_golden import CASES

SRC = Path(chernmather.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def library_block() -> str:
    """The fenced python block under the README's `## Library` heading."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def run_library_block() -> tuple[dict, dict]:
    """Run the Library block one statement at a time.  Returns the value of
    each expression statement, keyed by its source text, and the namespace
    the block leaves."""
    block = library_block()
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values, namespace


def source_functions() -> dict:
    """(file, first line of the code object) -> qualified name, for every
    non-dunder function defined in the package."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node  # for the qualified names below
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # a decorated function's code object starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            names, up = [node.name], node.parent
            while not isinstance(up, ast.Module):
                if isinstance(up, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(up.name)
                up = up.parent
            found[(str(path), first)] = f"{path.stem}.{'.'.join(reversed(names))}"
    return found


def test_library_block_runs_as_written():
    values, namespace = run_library_block()
    milnor = values.pop("milnor_class(spec)")
    assert milnor.modulus == 5  # mod H^5
    assert values == {
        "table.origin": (0, 1),
        "table.chern_mather_primal": (ClassPoly([0, 2, 4, 2]), ClassPoly([0, 0, 0, 1])),
        "table.chern_mather_dual": (ClassPoly([0, 0, 2, 2]),),
        "cross_validate(spec, build_pair(spec)).primal": ((1, 2), (0, 1)),
        "integrate(lr_multiply(lr_multiply(s1, s1), lr_multiply(s1, s1)))": 2,
        "integrate(lr_multiply(s1, s1, s1, s1))": 2,
        "integrate(s1, 3)": 2,
    }
    assert namespace["q"] == ClassPoly([0, 2, 4, 4])
    q3, pair, table = namespace["q3"], namespace["pair"], namespace["table"]
    assert table.origin == (1, 3, 3)  # eu_table_det(3)
    assert len(q3) == len(pair.primal) == 3 and pair.ambient == 9


def test_every_source_function_is_reached(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the --emit-strata cases write here
    defined = source_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in CASES.values():
            assert main(argv) == 0, argv
        run_library_block()
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = sorted(name for key, name in defined.items() if key not in entered)
    assert not unreached, f"only the tests reach {', '.join(unreached)}"


def test_no_cached_function_in_source():
    # a module-level cache is hidden state: it makes a call's cost depend on
    # the calls before it, and keeps every result for the life of the process
    cached = [
        f"{name}.{attr}"
        for name, module in sorted(sys.modules.items())
        if name.startswith("chernmather.")
        for attr, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    ]
    assert not cached, f"cached functions in src: {', '.join(cached)}"


def test_no_assert_in_source():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {', '.join(found)}"


def test_cli_import_loads_no_heavy_modules():
    # -S: the site module and the .pth files it runs may load these on their
    # own, which would hide what the package itself loads
    heavy = ("dataclasses", "inspect", "typing", "argparse", "gettext")
    script = (
        "import sys, chernmather.cli\n"
        f"print(*[m for m in {heavy!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert not loaded, f"import chernmather.cli loads {', '.join(loaded)}"
