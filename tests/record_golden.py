"""Print the ``GOLDEN`` table of ``test_golden.py`` for the code as it is now.

Run from the root of the repository::

    PYTHONPATH=src python3 tests/record_golden.py

and paste the output over ``GOLDEN``, updating the versions named in the
module docstring if they changed.
"""

import platform

import numpy

from test_golden import CONFIGS, digest


def main() -> None:
    print(f"# CPython {platform.python_version()}, numpy {numpy.__version__}")
    print("GOLDEN = {")
    for name in CONFIGS:
        print(f'    "{name}": "{digest(name)}",')
    print("}")


if __name__ == "__main__":
    main()
