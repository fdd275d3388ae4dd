"""What importing the package and running each command loads: the exact
commands never import mpmath, the float layer, dataclasses or inspect; only
verify loads the verify module, and only the commands that need psi load the
basis; and the package resolves its public names on first access."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import neutral_sampler

FLOAT_MODULES = ("mpmath", "neutral_sampler.transient", "neutral_sampler.asymptotics")

#: Standard modules that cost every process that imports them: `dataclasses`
#: imports `inspect`, which imports `ast`, `dis` and `tokenize`.
STARTUP_MODULES = ("dataclasses", "inspect")

#: Every name the package re-exports, with the module that defines it.
EXPORTS = {
    "EMPTY": "combinatorics",
    "IntegerPartition": "combinatorics",
    "enumerate_partitions": "combinatorics",
    "enumerate_set_partitions": "combinatorics",
    "multinomial_constant": "combinatorics",
    "esf_monomial_moment": "moments",
    "mixed_power_sum_moment": "moments",
    "power_sum_moment": "moments",
    "BasisElement": "basis",
    "build_basis": "basis",
    "inner_product": "basis",
    "FrequencyVector": "sampling",
    "consistency_check": "sampling",
    "monomial_sampler_bruteforce": "sampling",
    "monomial_sampler_expansion": "sampling",
    "sampling_probability": "sampling",
    "STATIONARY": "transient",
    "SpectralEvaluator": "transient",
    "TimePoint": "transient",
    "transient_sampling_probability": "transient",
    "RateFunctionResult": "rates",
    "rate_function": "rates",
    "RegimeSpec": "asymptotics",
    "ldp_slope_scan": "asymptotics",
    "lemma41_leading_term": "asymptotics",
    "lemma41_order_scan": "asymptotics",
    "moment_limit_scan": "asymptotics",
}

#: Runs `cli.main` on the arguments and reports, on stderr, its exit code
#: and which of the package's modules, mpmath, dataclasses and inspect it
#: left loaded.
_RUN_MAIN = """
import json, sys
from neutral_sampler import cli
rc = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if m in ("mpmath", "dataclasses", "inspect")
                or m.split(".")[0] == "neutral_sampler")
print(json.dumps({"rc": rc, "loaded": loaded}), file=sys.stderr)
"""


def _fresh(code, *argv):
    src = os.path.dirname(os.path.dirname(neutral_sampler.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def _modules_after(*argv):
    report = _fresh(_RUN_MAIN, *argv)
    assert report["rc"] == 0
    return set(report["loaded"])


@pytest.mark.parametrize("argv", [
    ("sample-prob", "--eta", "2,1", "--x", "1/2,1/3"),
    ("moment", "--eta", "2", "--xi", "2", "--theta", "1/2"),
    ("basis", "--max-size", "3", "--theta", "1"),
    ("rate-function", "--n", "5", "--eta", "2,2,1", "--k", "1/2"),
    ("verify", "--suite", "oracle", "--max-size", "3"),
    ("verify", "--suite", "rate-function", "--max-size", "3"),
    ("verify", "--suite", "transient", "--max-size", "3"),
], ids=lambda argv: " ".join(argv[:3]))
def test_exact_commands_skip_the_float_layer(argv):
    loaded = _modules_after(*argv)
    assert "neutral_sampler.cli" in loaded
    assert loaded.isdisjoint(FLOAT_MODULES)
    assert loaded.isdisjoint(STARTUP_MODULES)


@pytest.mark.parametrize("xi", [(), ("--xi", "2")], ids=["without_xi", "with_xi"])
def test_lemma41_scan_loads_no_float_layer(xi):
    # The scan is exact: asymptotics loads, but neither mpmath nor transient.
    loaded = _modules_after("lemma41-scan", "--eta", "3,3", *xi,
                            "--theta-grid", "1e4:1e6:log")
    assert "neutral_sampler.asymptotics" in loaded
    assert loaded.isdisjoint(("mpmath", "neutral_sampler.transient"))


#: One invocation of every command.
COMMANDS = [
    ("sample-prob", "--eta", "2,1", "--x", "1/2,1/3"),
    ("moment", "--eta", "2", "--xi", "2", "--theta", "1/2"),
    ("basis", "--max-size", "3", "--theta", "1"),
    ("transient", "--eta", "2,1", "--x", "1/2,1/3", "--theta", "1", "--t", "0.5"),
    ("weak-limit-scan", "--omega", "2", "--x", "1/2,1/3", "--regime",
     "proportional:1", "--theta-grid", "1e3"),
    ("lemma41-scan", "--eta", "3", "--xi", "2", "--theta-grid", "1e6"),
    ("rate-function", "--n", "5", "--eta", "2,2,1", "--k", "1/2"),
    ("ldp-scan", "--n", "2", "--eta", "2", "--k", "4", "--theta-grid", "1e5"),
    ("verify", "--suite", "rate-function", "--max-size", "3"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_verify_and_basis_load_only_for_the_commands_that_use_them(argv):
    loaded = _modules_after(*argv)
    assert ("neutral_sampler.verify" in loaded) == (argv[0] == "verify")
    assert ("neutral_sampler.basis" in loaded) == (
        argv[0] in ("basis", "lemma41-scan", "verify"))


def test_transient_command_loads_mpmath():
    loaded = _modules_after("transient", "--eta", "2,1", "--x", "1/2,1/3",
                            "--theta", "1", "--t", "0.5")
    assert {"mpmath", "neutral_sampler.transient"} <= loaded


def test_bare_import_loads_no_submodule():
    report = _fresh("import json, sys, neutral_sampler\n"
                    "print(json.dumps([m for m in sys.modules "
                    "if m.startswith('neutral_sampler.') or m == 'mpmath']), "
                    "file=sys.stderr)")
    assert report == []


def test_all_lists_the_re_exported_names():
    assert sorted(neutral_sampler.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(neutral_sampler))


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_name_resolves_to_the_defining_modules_object(name):
    module = importlib.import_module("neutral_sampler." + EXPORTS[name])
    assert getattr(neutral_sampler, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        neutral_sampler.no_such_name
    assert not hasattr(neutral_sampler, "rate_function_of")


def test_submodules_stay_importable_from_the_package():
    from neutral_sampler import asymptotics, rates
    assert asymptotics.__name__ == "neutral_sampler.asymptotics"
    assert rates.rate_function is neutral_sampler.rate_function


def _unused_imports(path):
    """Names bound by the module's top-level imports that nothing in the
    module reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(neutral_sampler.__file__).parent.glob("*.py")),
    ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path) == []


def _imported_modules(path):
    """Every module that an import statement anywhere in the file names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(neutral_sampler.__file__).parent.glob("*.py")),
    ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path)
