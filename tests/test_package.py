"""Package hygiene: standard-library imports only, a public namespace that resolves,
and a README library example that runs."""

import ast
import re
import sys
from pathlib import Path

import crawlbias

PACKAGE_DIR = Path(crawlbias.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    # numpy and friends may be installed where the tests run, so importing the
    # package proves nothing; read every absolute import instead
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) >= 8
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "crawlbias" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
    assert foreign == []


def test_public_names_resolve():
    missing = [name for name in crawlbias.__all__ if not hasattr(crawlbias, name)]
    assert missing == []
    assert len(set(crawlbias.__all__)) == len(crawlbias.__all__)


def test_cli_uses_only_public_names_of_the_package():
    # the front end goes through each module's public API; a private name it
    # reaches for belongs in that module's API or in the module itself
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("crawlbias")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"line {node.lineno} imports {alias.name}")
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"line {node.lineno} uses {node.value.id}.{node.attr}")
        # nor does it reach for a private attribute of an object the package made
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))):
            private.append(f"line {node.lineno} uses .{node.attr}")
    assert private == []


def test_every_graph_and_law_a_mode_uses_has_one_maker():
    # GraphSource.build makes every graph, _shared_setup and _replica_setup hand it to
    # the modes, and _reference_law makes every law they reference, so no mode can
    # crawl one graph and reference the law of another
    allowed = {"load_edge_list": {"GraphSource.build"},
               "build": {"_shared_setup", "_replica_setup"},
               "degree_distribution": {"_reference_law", "GraphSource.build"},
               "degree_sequence_from_distribution": {"_reference_law", "GraphSource.build"}}
    callers: dict[str, set[str]] = {name: set() for name in allowed}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in callers and (name != "build" or isinstance(func, ast.Attribute)):
                callers[name].add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((PACKAGE_DIR / "experiments.py").read_text(encoding="utf-8")), ())
    for name, where in callers.items():
        assert where and where <= allowed[name], (name, sorted(where))


def test_no_mode_is_compared_with_a_string():
    # a rule that depends on the mode follows from what MODES says the mode reads,
    # so a new mode cannot miss a rule written for one mode by name
    compared = []
    for name in ("experiments.py", "cli.py"):
        tree = ast.parse((PACKAGE_DIR / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if (any(isinstance(op, ast.Attribute) and op.attr == "mode" for op in operands)
                    and any(isinstance(op, ast.Constant) and isinstance(op.value, str)
                            for op in operands)):
                compared.append(f"{name}:{node.lineno}")
    assert compared == []


def test_no_run_of_four_statements_is_restated():
    # a rule written out twice drifts apart; any four consecutive statements inside
    # a function or class body (module level excluded) appear in one place only
    run = 4
    places: dict[str, set[str]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(scope):
                for name in ("body", "orelse", "finalbody"):
                    block = getattr(node, name, None)
                    if not isinstance(block, list):
                        continue  # a lambda's or an if-expression's body is one expression
                    for i in range(len(block) - run + 1):
                        key = "\n".join(ast.dump(stmt) for stmt in block[i:i + run])
                        places.setdefault(key, set()).add(f"{path.name}:{block[i].lineno}")
    restated = sorted(sorted(where) for where in places.values() if len(where) > 1)
    assert restated == []


def test_readme_library_block_runs():
    # the README's one python block runs as written, and its correction lands closer
    # to the graph's mean degree than the naive sample mean does
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    scope: dict[str, object] = {}
    exec(blocks[0], scope)
    seq, naive, fixed = scope["seq"], scope["naive"], scope["fixed"]
    mean = sum(seq) / len(seq)
    assert abs(fixed - mean) < abs(naive - mean)
