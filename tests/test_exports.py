import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mcpursuit


def test_every_exported_name_exists():
    # a name deleted from a module but left in its __all__ only fails on a
    # star import, so look each one up
    names = ["mcpursuit"] + [
        f"mcpursuit.{info.name}" for info in pkgutil.iter_modules(mcpursuit.__path__)
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            (name, attr)
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert missing == []


def test_cli_and_solver_load_without_scipy():
    # scipy serves only the smooth fits of the mismatch experiment, which
    # import it when they run: a fresh interpreter that imports the CLI and
    # the solver has no scipy module loaded
    src = str(Path(mcpursuit.__file__).resolve().parent.parent)
    code = (
        "import sys, mcpursuit.cli, mcpursuit.solver; "
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
