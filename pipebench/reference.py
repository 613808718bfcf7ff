"""The machine-speed reference task the benchmark scales its times by.

The box this benchmark was built on is a shared virtual machine whose
speed drifts by a third within minutes, and every wall time of a run
moves with it.  The task — start an isolated interpreter, import a fixed
set of stdlib modules — is the kind of work the program's own commands
do, and it tracked their drift where a tight arithmetic loop did not.
It never touches the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

import subprocess
import sys
import time

#: The modules the reference task imports.
IMPORTS = (
    "argparse", "ast", "asyncio", "csv", "dataclasses", "decimal", "difflib",
    "email.parser", "fractions", "http.client", "inspect", "json", "logging",
    "pickle", "statistics", "tarfile", "tokenize", "typing", "unittest",
    "urllib.request", "xml.dom.minidom", "zipfile",
)
#: The task's time on the reference machine (a quiet minute on the 2-CPU
#: container the benchmark was built on, Python 3.11).
REFERENCE_S = 0.16


def seconds() -> float:
    """Wall time of one run of the reference task."""
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-I", "-c", "import " + ", ".join(IMPORTS)],
        check=True,
        timeout=60,
    )
    return time.monotonic() - start


def slowdown(before: float, after: float) -> float:
    """Slowdown of work timed between two samples, against the reference."""
    return (before + after) / 2 / REFERENCE_S
