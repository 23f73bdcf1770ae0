"""Freeze the reference digests that every timed operation is checked against.

Run once on the commit whose outputs are the reference, and again only in a
change that alters seeded outputs on purpose (say so in CHANGES.md):

    python3 perfbench/freeze.py

Writes perfbench/reference/<workload>.npz with cases 0..CASES-1 for every
decoder workload.
"""

from __future__ import annotations

import os
import sys

from run import PINNED_ENV

os.environ.update(PINNED_ENV)  # before numpy loads BLAS

from workloads import CASES, WORKLOADS, build_inputs, digest, run_op, save_reference  # noqa: E402


def main() -> int:
    for name, w in WORKLOADS.items():
        if not w.is_decoder:
            continue
        digests = {case: digest(w, run_op(w, build_inputs(w, case))) for case in range(CASES)}
        path = save_reference(w, digests)
        print(f"{name}: {CASES} cases -> {path.name} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
