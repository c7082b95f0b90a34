"""Source hygiene checks on the package itself."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import genfilter

PACKAGE = Path(genfilter.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _reexports() -> dict[str, set[str]]:
    """Names that ``__init__.py`` imports from each submodule, which count as used there."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_every_import_is_referenced():
    reexports = _reexports()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= reexports.get(path.stem, set())
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, "imports that nothing references:\n" + "\n".join(unused)


def test_every_private_function_and_class_is_referenced():
    """A module-level private function or class that no other statement of the package names."""
    statements = []  # (module, statement, the names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            statements.append((path.name, stmt, names))
    dead = [f"{module}:{stmt.lineno}: {stmt.name}" for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not any(stmt.name in names for _, other, names in statements if other is not stmt)]
    assert not dead, "private functions and classes that nothing references:\n" + "\n".join(dead)


def test_every_module_states_each_message_once():
    """No string fragment of 20 or more characters inside a call or a yield repeats in a module.

    Each module writes each rule once, so each fault message, f-string parts
    included, stands in one place.
    """
    repeated = []
    for path in sorted(PACKAGE.glob("*.py")):
        fragments = {}  # node id -> (line, text), so nested calls count a fragment once
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Call, ast.Yield)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                            and len(sub.value) >= 20:
                        fragments[id(sub)] = (sub.lineno, sub.value)
        lines: dict[str, list[int]] = {}
        for line, text in fragments.values():
            lines.setdefault(text, []).append(line)
        repeated += [f"{path.name}: {text!r} at lines {sorted(at)}"
                     for text, at in lines.items() if len(at) > 1]
    assert not repeated, "fragments stated more than once:\n" + "\n".join(repeated)


def test_one_writer_writes_every_file():
    """One ``.write_text(`` call in the package: the atomic writer every output goes through."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "write_text"]
    assert len(calls) == 1, "write_text( at " + ", ".join(calls)


# Run in a fresh interpreter: the test modules themselves import scipy.
_COLD_START = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import genfilter
    import genfilter.cli
    assert not scipy_modules(), f"import genfilter loads {scipy_modules()}"

    work = Path(sys.argv[1])
    model = {"name": "sir", "params": {"transmission_rate": 0.08, "recovery_rate": 0.7,
                                       "sampling_rate": 0.7, "s0": 27, "i0": 3}}
    config = {"schema_version": 1, "seed": 5, "model": model,
              "inputs": {"trajectory": "sim/trajectory",
                         "genealogy": "pruned/genealogy_visible.json"},
              "simulate": {"horizon": 1.5}, "filter": {"n_particles": 50}}
    (work / "chain.json").write_text(json.dumps(config))
    (work / "prune.json").write_text(json.dumps(
        {**config, "inputs": {"genealogy": "sim/genealogy_full.json"}}))

    def run(command, config, out):
        code = genfilter.cli.main([command, "--config", str(work / config),
                                   "--out", str(work / out)])
        assert code == 0, f"genfilter {command} exited {code}"

    run("simulate", "chain.json", "sim")
    run("prune", "prune.json", "pruned")
    run("exact", "chain.json", "exact")
    run("filter", "chain.json", "filter")
    assert not scipy_modules(), f"simulate to filter load {scipy_modules()}"
    run("oracle", "chain.json", "oracle")
    assert "scipy.sparse" in sys.modules, "oracle did not load scipy.sparse"
""")


def test_import_and_the_non_grid_commands_load_no_scipy(tmp_path):
    """`import genfilter` needs numpy alone; scipy.sparse loads at the first grid call."""
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr


_BOUNDED_SAMPLING = textwrap.dedent("""
    import math, sys
    from dataclasses import replace
    import genfilter as gf

    base = gf.lbdp_spec(gf.LBDPParams(1.2, 0.4, 0.8, 2))
    rates = (*base.rates[:2],
             lambda t, x: 0.8 * (1.0 + 0.5 * math.sin(2 * math.pi * t)) * x[..., 0])
    bounds = (None, None, lambda t0, t1, x: 1.2 * float(x[..., 0]))
    spec = gf.ModelSpec("lbdp-sin-sampling", base.d, base.events, rates, base.init_sample,
                        base.init_pmf, base.focal_dim, rate_bounds=bounds,
                        bookkeeping_dims=base.bookkeeping_dims)
    g = gf.apply_sample(gf.apply_sample(gf.apply_birth(gf.new_genealogy(1), 0, 0.2), 0, 0.4),
                        1, 0.6)
    v = gf.prune(replace(g, time=1.0))
    one = gf.smc_loglik(spec, v, gf.FilterConfig(50, seed=1))
    reps = gf.replicate_loglik(spec, v, gf.FilterConfig(50, seed=2), 3)
    assert math.isfinite(one.loglik) and reps.collapse_count < 3, (one, reps)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"the filter loads {loaded}"
""")


def test_the_filter_loads_no_scipy_on_a_bounded_sampling_channel():
    """A bounded sampling channel is thinned like any other, so no quadrature runs."""
    done = subprocess.run([sys.executable, "-c", _BOUNDED_SAMPLING],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr


def test_the_readme_library_example_runs_as_written(capsys):
    """README's "Library use" block runs unchanged, so the docs keep up with the API."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == code.count("print(")


def test_the_readme_command_line_example_runs_as_written(tmp_path):
    """README's simulate-then-filter config runs through `simulate` and `filter` unchanged."""
    from genfilter.cli import main
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("A config that simulates and then filters the result:", 1)[1]
    config = tmp_path / "run.json"
    config.write_text(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out/run")]) == 0
    assert main(["filter", "--config", str(config), "--out", str(tmp_path / "out/flt")]) == 0
    result = json.loads((tmp_path / "out/flt/result.json").read_text())
    assert len(result["estimates"]) == 4
    assert all(isinstance(x, float) and math.isfinite(x) for x in result["estimates"])


def test_the_line_counter_runs_and_agrees_with_a_plain_line_total():
    """``tools/src_lines.py`` counts every line of the package, codes fewer,
    and splits the code lines by file."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "tools" / "src_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts = {key: int(value) for key, value in map(str.split, done.stdout.splitlines())}
    sources = sorted((root / "src" / "genfilter").glob("*.py"))
    total = sum(len(path.read_text().splitlines()) for path in sources)
    assert counts["total"] == total
    assert 0 < counts["code_only"] < total
    assert list(counts)[2:] == [path.name for path in sources]
    assert sum(counts[path.name] for path in sources) == counts["code_only"]
