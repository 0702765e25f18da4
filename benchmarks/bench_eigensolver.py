#!/usr/bin/env python3
"""Time the Jacobi eigensolver backends against each other.

The numba path is what the library dispatches to when numba imports; the
numpy path runs otherwise. Matrix sizes cover the 8x8
working size and the 64x64 Choi operators, plus a batch shaped like the
acceptance suite's random-state sweeps.

Run: python benchmarks/bench_eigensolver.py [--repeats N]
"""

import argparse
import time

import numpy as np

from spapt import kernels


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def time_solver(solver, mats, repeats):
    solver(mats[0])  # warm-up (JIT compile and caches)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for m in mats:
            solver(m)
        best = min(best, time.perf_counter() - start)
    return best / len(mats)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    solvers = [("numpy", kernels.jacobi_eigvalsh_numpy)]
    if kernels.jacobi_eigvalsh_jit is not None:
        solvers.insert(0, ("numba", kernels.jacobi_eigvalsh_jit))
    else:
        print("numba not installed; timing numpy only")

    rng = np.random.default_rng(0)
    cases = [
        ("8x8 x 200", [random_hermitian(rng, 8) for _ in range(200)]),
        ("16x16 x 50", [random_hermitian(rng, 16) for _ in range(50)]),
        ("64x64 x 5", [random_hermitian(rng, 64) for _ in range(5)]),
    ]

    print(f"{'case':<12}" + "".join(f"{name + ' [s/solve]':>20}" for name, _ in solvers)
          + (f"{'speedup':>10}" if len(solvers) == 2 else ""))
    for label, mats in cases:
        times = [time_solver(fn, mats, args.repeats) for _, fn in solvers]
        row = f"{label:<12}" + "".join(f"{t:>20.3e}" for t in times)
        if len(times) == 2:
            row += f"{times[1] / times[0]:>9.1f}x"
        print(row)

    # cross-check that both paths produce the same spectra
    if len(solvers) == 2:
        worst = 0.0
        for _, mats in cases:
            for m in mats[:5]:
                a = solvers[0][1](m)
                b = solvers[1][1](m)
                worst = max(worst, float(np.max(np.abs(a - b))))
        print(f"max cross-backend eigenvalue difference: {worst:.3e}")


if __name__ == "__main__":
    main()
