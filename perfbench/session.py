"""The library session: one Python process that imports qspecht, computes
`decomposition_matrix(d, (charge,))` and digests its `to_json()`.

Usage: python3 perfbench/session.py [D CHARGE]

Prints one JSON object: ``import_end`` (the `time.perf_counter()` reading
right after the import, comparable with the parent's clock on Linux), and,
when D and CHARGE are given, ``digest`` and ``columns``.  With no arguments
it only imports, which is the set-up probe.
"""

import hashlib
import json
import sys
import time


def matrix_digest(matrix) -> str:
    return hashlib.sha256(json.dumps(matrix.to_json(), sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> None:
    import qspecht

    report: dict[str, object] = {"import_end": time.perf_counter()}
    if argv:
        d, charge = int(argv[0]), tuple(int(c) for c in argv[1].split(","))
        matrix = qspecht.decomposition_matrix(d, charge)
        report.update(digest=matrix_digest(matrix), columns=len(matrix.cols))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
