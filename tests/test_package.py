"""The package surface: public names resolve lazily from their modules."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divdiff

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"

# names that left __all__: deleted wrappers, a now-private helper, and the
# paper identities that live unexported in divdiff.oracle
REMOVED = ("alternating_zeta", "barycentric_suffix_weights",
           "grid_lincomb_weight_sum", "harmonic_number", "lincomb_weight_sum",
           "quad_central", "quad_even")


def _run(code):
    return subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                          capture_output=True, text=True).stdout


def test_every_public_name_is_its_defining_module_attribute():
    for module, names in divdiff._EXPORTS.items():
        mod = importlib.import_module(f"divdiff.{module}")
        for name in names:
            value = getattr(divdiff, name)
            assert value is getattr(mod, name), name
            home = getattr(value, "__module__", mod.__name__)
            assert home == mod.__name__, name


def test_all_is_the_sorted_export_map():
    names = [n for names in divdiff._EXPORTS.values() for n in names]
    assert len(names) == len(set(names))
    assert divdiff.__all__ == sorted(names)


def test_readme_documents_the_public_surface():
    text = README.read_text()
    assert "\n## Public API\n" in text
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert [n for n in divdiff.__all__ if f"`{n}`" not in section] == []
    assert [n for n in REMOVED if re.search(rf"\b{n}\b", text)] == []
    assert not set(REMOVED) & set(divdiff.__all__)


def test_dir_covers_all():
    assert set(divdiff.__all__) <= set(dir(divdiff))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from divdiff import *", namespace)
    for name in divdiff.__all__:
        assert namespace[name] is getattr(divdiff, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        divdiff.no_such_name
    assert not hasattr(divdiff, "cli_main")


def test_bare_import_loads_no_submodule():
    out = _run("import json, sys, divdiff\n"
               "unknown = hasattr(divdiff, 'no_such_name')\n"
               "loaded = [m for m in sys.modules if m.startswith('divdiff.')]\n"
               "print(json.dumps([divdiff.__version__, unknown, loaded]))\n")
    assert json.loads(out) == ["0.1.0", False, []]


def test_modules_are_unbound_until_imported():
    out = _run("import divdiff\n"
               "try:\n"
               "    divdiff.tables\n"
               "except AttributeError:\n"
               "    print('unbound')\n")
    assert out == "unbound\n"


def test_route_imports_are_listed_by_importtime():
    # no hook imports a module on attribute access, so a route's
    # ``from . import derivatives`` is a plain import that -X importtime lists
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "divdiff.cli", "diff",
         "--grid", "0,0.1,2,2", "--func", "exp", "-t", "2"],
        cwd=SRC, check=True, capture_output=True, text=True)
    listed = {line.rsplit("|", 1)[-1].strip()
              for line in run.stderr.splitlines()}
    assert "divdiff.derivatives" in listed


def test_first_public_name_binds_every_name_and_drops_the_hook():
    out = _run("import json, divdiff\n"
               "divdiff.uniform_step\n"
               "unbound = set(divdiff.__all__) - set(vars(divdiff))\n"
               "print(json.dumps([sorted(unbound), "
               "'__getattr__' in vars(divdiff)]))\n")
    assert json.loads(out) == [[], False]
