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


def _generator_loaded_after(code: str, cwd) -> bool:
    """Whether modlavg.newforms, the generator of the shipped data, which no
    command uses, is imported after ``code`` runs in a fresh interpreter."""
    probe = f"import sys\n{code}\nprint('modlavg.newforms' in sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stderr.strip().splitlines()[-1] == "True"


def test_import_leaves_out_the_generator(tmp_path):
    assert not _generator_loaded_after("import modlavg", tmp_path)


def test_average_leaves_out_the_generator(tmp_path):
    # what `python -m modlavg.cli average --config cfg.json` runs, on the
    # demo config
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "config_example.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = ("import runpy\n"
            "sys.argv = ['modlavg.cli', 'average', '--config', 'cfg.json']\n"
            "try:\n"
            "    runpy.run_module('modlavg.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")
    assert not _generator_loaded_after(code, tmp_path)
    assert (tmp_path / config["output_dir"] / "report.json").is_file()
