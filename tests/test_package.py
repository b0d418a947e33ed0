import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import nlbranch
from nlbranch.config import _SECTIONS


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


def _readme_settings():
    """README's run-file table as {(section, key): default cell}."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table, section = {}, None
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 4 \
                or not cells[1].startswith("`"):
            continue
        section = cells[0].strip("`[]") or section
        table[(section, cells[1].split("`")[1])] = cells[3]
    return table


def test_readme_settings_table_matches_the_config():
    # every [sim], [mc] and [output] key, and only those, with the default
    # of the field it sets
    table = _readme_settings()
    for section, (cls, keys) in _SECTIONS.items():
        documented = {k: v for (s, k), v in table.items() if s == section}
        assert sorted(documented) == sorted(keys), section
        defaults = {f.name: f.default for f in fields(cls)}
        for key, name in keys.items():
            default, cell = defaults[name], documented[key]
            if default is None:
                assert cell.startswith("none"), key
            elif isinstance(default, (bool, str)):
                assert cell == f"`{str(default).lower()}`", key
            else:
                assert type(default)(cell.strip("`")) == default, key
