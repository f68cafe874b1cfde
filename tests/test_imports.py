import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# imports every kellerlab module and prints the top-level names of the
# modules that doing so added to sys.modules
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import kellerlab
for info in pkgutil.iter_modules(kellerlab.__path__):
    importlib.import_module("kellerlab." + info.name)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = proc.stdout.split()
    assert "kellerlab" in added
    assert [m for m in added if m != "kellerlab" and m not in sys.stdlib_module_names] == []
