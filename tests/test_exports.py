import importlib
import pkgutil

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
