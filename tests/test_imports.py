import subprocess
import sys


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of start-up and the CLI needs none of it
    code = "import sys, medbounds.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
