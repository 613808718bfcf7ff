"""Every ``repro`` command pays for what ``import repro.cli`` loads.

The CLI stays stdlib-only and leaves the HTTP server stack to the one
flag that serves it (``--prom-port``).  The import runs in a fresh
interpreter, since this test process has loaded far more.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_cli_import_leaves_out_numpy_and_http_server():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('numpy', 'http.server') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
