"""The library must import with the standard library alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hopfalg, hopfalg.cli
tops = {name.split(".")[0] for name in set(sys.modules) - before}
print("\\n".join(sorted(tops - set(sys.stdlib_module_names) - {"hopfalg"})))
"""


def test_import_loads_only_stdlib_modules():
    # -I -S: no environment variables and no site-packages, so importing an
    # installed package fails and a non-stdlib module shows up in the list
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
