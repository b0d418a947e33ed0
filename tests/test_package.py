import importlib
import pkgutil

import nlbranch


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its __all__ too
    names = ["nlbranch"] + [m.name for m in pkgutil.walk_packages(
        nlbranch.__path__, "nlbranch.")]
    assert "nlbranch.simulator" in names and "nlbranch.numerics.rng" in names
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert not stale
