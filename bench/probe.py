"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 probe.py SRC_DIR MATRIX_FILE...

Prints the seconds spent importing coxlab from SRC_DIR, parsing each
matrix file and constructing its ``CoxeterGroup`` (field set-up included).
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import coxlab
    for path in sys.argv[2:]:
        with open(path, encoding="utf-8") as fh:
            coxlab.CoxeterGroup(coxlab.parse_matrix(fh.read()))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
