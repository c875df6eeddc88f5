import ast
import glob
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import modlavg


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(modlavg.__path__)))
def test_every_export_resolves(name):
    module = importlib.import_module(f"modlavg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"modlavg.{name}.__all__ names {missing}"


def _stderr_after(code: str, cwd) -> list:
    """The stderr lines of a fresh interpreter that runs ``code``, the last
    one naming what sys.modules then holds."""
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules), file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stderr.strip().splitlines()


def _modules_after(code: str, cwd) -> set:
    """The names in sys.modules after ``code`` runs in a fresh interpreter."""
    return set(_stderr_after(code, cwd)[-1].split())


# the stderr line of the cold-average interpreter that names the package's
# dataclasses, after the run
_DATACLASSES = "dataclasses:"


@pytest.fixture(scope="module")
def average_run(tmp_path_factory):
    """The modules a fresh interpreter holds after what `python -m
    modlavg.cli average --config cfg.json` runs, on the demo config, and the
    classes of the package that hold dataclass fields there."""
    tmp_path = tmp_path_factory.mktemp("average")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "config_example.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = ("import runpy\n"
            "sys.argv = ['modlavg.cli', 'average', '--config', 'cfg.json']\n"
            "try:\n"
            "    runpy.run_module('modlavg.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "found = [f'{name}.{cls.__qualname__}' for name, module in list(sys.modules.items())\n"
            "         if name.split('.')[0] == 'modlavg' for cls in vars(module).values()\n"
            "         if isinstance(cls, type) and cls.__module__ == name\n"
            "         and hasattr(cls, '__dataclass_fields__')]\n"
            f"print({_DATACLASSES!r}, *found, file=sys.stderr)")
    stderr = _stderr_after(code, tmp_path)
    assert (tmp_path / config["output_dir"] / "report.json").is_file()
    found = next(line for line in stderr if line.startswith(_DATACLASSES))
    return set(stderr[-1].split()), set(found.split()[1:])


@pytest.fixture(scope="module")
def average_modules(average_run):
    return average_run[0]


def test_import_leaves_out_the_generator(tmp_path):
    # modlavg.newforms, the generator of the shipped data, which no command uses
    assert "modlavg.newforms" not in _modules_after("import modlavg", tmp_path)


def test_average_leaves_out_the_generator(average_modules):
    assert "modlavg.newforms" not in average_modules


def test_average_generates_three_dataclasses(average_run):
    # the records of numerics, measures, padic_local and lvalues are slotted
    # classes, whose methods are written out, not generated at import; the
    # three that take dataclasses.fields and dataclasses.replace stay
    assert average_run[1] == {"modlavg.harness.ExperimentConfig", "modlavg.arith.Eigenform",
                              "modlavg.harness.AverageReport"}


def test_average_leaves_out_numpy_polynomial(average_modules):
    # the Petersson norm's Gauss-Legendre rule is a table, not a leggauss call
    assert "numpy.polynomial" not in average_modules


# calls into BLAS or LAPACK, or into numpy.polynomial, which the package
# leaves to the tests as an oracle
_LINEAR_ALGEBRA = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg", "polynomial"}


def test_no_linear_algebra_in_the_package():
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(modlavg.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in _LINEAR_ALGEBRA:
                found.append((path, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                found += [(path, node.lineno, n) for n in names
                          if set(n.split(".")) & _LINEAR_ALGEBRA]
    assert not found
