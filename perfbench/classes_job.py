"""The ``classes`` workload: pair classifications through the public API.

Runs each classification builder in table order, then ``check_srg`` on
every class graph, and prints one JSON payload to stdout.  The order is
fixed: the jobs share one process, and its peak memory depends on it.

    PYTHONPATH=src python3 perfbench/classes_job.py

Names are looked up on the ``srgkit`` modules at call time, so a traced run
that wraps them after import still sees every call.
"""

from __future__ import annotations

import json
import sys

import srgkit
import srgkit.families
import srgkit.schemes

JOBS = {
    "unitary:n=4,q=3": lambda: srgkit.build_unitary_orbitals(4, 3),
    "orthogonal:m=2,q=5,eps=+": lambda: srgkit.build_orthogonal_orbitals(2, 5, "+"),
    "orthogonal:m=2,q=5,eps=-": lambda: srgkit.build_orthogonal_orbitals(2, 5, "-"),
    "orthogonal:m=2,q=7,eps=+": lambda: srgkit.build_orthogonal_orbitals(2, 7, "+"),
    "flags:q=7": lambda: srgkit.build_flag_orbitals(7),
    "hamming:d=8": lambda: srgkit.families.hamming_classification(8),
}


def _srg_json(result) -> list | str:
    if isinstance(result, srgkit.SrgParams):
        return list(result.as_tuple())
    return str(result)


def run() -> dict:
    payload = {}
    for name, job in JOBS.items():
        cls = job()
        payload[name] = {
            "v": len(cls.points),
            "suborbit_lengths": {str(lab): n for lab, n in cls.suborbit_lengths.items()},
            "srg": {
                str(lab): _srg_json(srgkit.check_srg(graph))
                for lab, graph in cls.graphs.items()
            },
            "tensor": srgkit.schemes.tensor_to_json(cls.tensor),
        }
    return payload


def main() -> int:
    json.dump(run(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
