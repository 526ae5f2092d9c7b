"""One benchmark operation in a fresh interpreter.

    child.py SIDECAR TRACE cli ARGS...             kickflow's CLI, as the console script runs it
    child.py SIDECAR TRACE stationary INPUTS RESULT the distance layer through the public API

The process notes the monotonic time at which ``kickflow`` finished
importing, optionally wraps the public functions (TRACE = 1), runs the
operation and writes both to the JSON file SIDECAR.  ``run.py`` reads the
sidecar after the process has exited.
"""

from __future__ import annotations

import json
import sys
import time


def stationary(inputs_path: str, result_path: str) -> int:
    """Krylov averages of two histories, their distance and split-half floors."""
    import numpy as np

    from kickflow import EmpiricalEnsemble, TestDictionary, dual_lipschitz_lower, krylov_average

    data = np.load(inputs_path)
    burn_in = int(data["burn_in"])
    dic = TestDictionary(data["directions"], float(data["clamp_radius"]))

    def history(snaps):
        n = snaps.shape[1]
        return [EmpiricalEnsemble(s, np.full(n, 1.0 / n), k, 0, np.arange(n))
                for k, s in enumerate(snaps)]

    def halves(ens):
        h = ens.n_particles // 2
        return [EmpiricalEnsemble(part, np.full(h, 1.0 / h), 0, 0, np.arange(h))
                for part in (ens.particles[:h], ens.particles[h:2 * h])]

    avg_a = krylov_average(history(data["hist_a"]), burn_in=burn_in)
    avg_b = krylov_average(history(data["hist_b"]), burn_in=burn_in)
    result = {
        "dist": dual_lipschitz_lower(avg_a, avg_b, dic),
        "floors": [dual_lipschitz_lower(*halves(avg), dic) for avg in (avg_a, avg_b)],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    sidecar, trace, mode, *rest = argv
    import kickflow.cli

    imported = time.monotonic()
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return kickflow.cli.main(rest)
        return stationary(*rest)
    finally:
        with open(sidecar, "w") as fh:
            json.dump({"imported": imported, "spans": tracer.spans if tracer else []}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
