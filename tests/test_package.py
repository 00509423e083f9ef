"""The package's exports, each imported from its home module on first
access."""

import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import mdepbounds


def test_every_export_is_its_home_modules_object():
    for name in mdepbounds.__all__:
        home = importlib.import_module(f"mdepbounds.{mdepbounds._HOME[name]}")
        assert getattr(mdepbounds, name) is getattr(home, name), name
    assert set(mdepbounds.__all__) <= set(dir(mdepbounds))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mdepbounds import *", namespace)
    assert {name: namespace[name] for name in mdepbounds.__all__} \
        == {name: getattr(mdepbounds, name) for name in mdepbounds.__all__}


def test_unknown_names_raise_attribute_error():
    assert not hasattr(mdepbounds, "no_such_name")


def test_importing_the_package_loads_no_module_of_it():
    child = textwrap.dedent("""
        import sys
        import mdepbounds
        print(sorted(name for name in sys.modules if name.startswith("mdepbounds")))
    """)
    src = str(Path(mdepbounds.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", child], cwd=src,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "['mdepbounds']\n"), result.stderr
