"""egoek loads only numpy and the standard library.

scipy is a test oracle, not a dependency: importing it costs more than
numpy itself does, on every command line call.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "analytic", "archive", "cli", "config", "decomposition", "ensemble", "fluctuations",
    "fock", "periodogram", "pipeline", "qhermite", "spectra",
)


def test_no_scipy_on_the_import_path():
    code = (
        "import importlib, sys\n"
        f"for name in ('egoek',) + tuple('egoek.' + m for m in {MODULES!r}):\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
