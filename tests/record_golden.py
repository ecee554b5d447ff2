"""Print the ``GOLDEN`` and ``FILE_GOLDEN`` tables of ``test_golden.py``
for the code as it is now.

Run from the root of the repository::

    PYTHONPATH=src python3 tests/record_golden.py

and paste the output over the two tables, updating the versions named in
the module docstring if they changed.
"""

import platform
import tempfile
from pathlib import Path

import numpy

from test_golden import CLI_CASES, CONFIGS, cli_digest, digest


def main() -> None:
    print(f"# CPython {platform.python_version()}, numpy {numpy.__version__}")
    print("GOLDEN = {")
    for name in CONFIGS:
        print(f'    "{name}": "{digest(name)}",')
    print("}")
    print("FILE_GOLDEN = {")
    for name in CLI_CASES:
        with tempfile.TemporaryDirectory() as workdir:
            print(f'    "{name}": "{cli_digest(name, Path(workdir))}",')
    print("}")


if __name__ == "__main__":
    main()
