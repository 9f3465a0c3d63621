"""Layered benchmark for survix.

Run from the repository root:

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The library is imported from ./src of the checkout and nowhere else; without
it the benchmark exits with status 2 and prints no result.
"""

import os

# BLAS threads are pinned before numpy is first imported, so one op never
# uses more than one core and the count is the same on every machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "survix" / "__init__.py").is_file():
        print(f"error: no survix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import survix

    if Path(survix.__file__).resolve().parent != (SRC / "survix").resolve():
        print(f"error: survix was imported from {survix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
