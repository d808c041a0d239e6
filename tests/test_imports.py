import subprocess
import sys

import pytest


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of start-up and the CLI needs none of it
    code = "import sys, medbounds.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["medbounds", "medbounds.cli"])
def test_import_loads_no_scipy(module):
    # scipy is needed only by the demo structural model, which imports it itself
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
