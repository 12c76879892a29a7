"""Per-layer dimension sweep, run as a child process of ``run.py``.

    python3 bench/sweep.py small   # everything but the D=4096 generators
    python3 bench/sweep.py large   # D=4096 global_generators and qfim_pure

Prints one JSON object of ``sweep.<function>.D<n>_s`` timings. ``large``
builds twelve dense 4096 x 4096 generators (about 3.2 GB) and also reports
its own peak RSS as ``sweep.global_generators.D4096_rss_mb``, so it runs
in a process of its own. ``small`` needs ``QSN_MAX_DIM`` raised to
512 * 512: purifying a D=512 density doubles it onto D^2.
"""

import json
import resource
import statistics
import sys
import time

import numpy as np
from qsnet.fisher import qfim_mixed, qfim_pure
from qsnet.hilbert import SIGMA_Z, DensityOperator, PureState, embed_local, partial_trace
from qsnet.network import encode, global_generators, resource_count
from qsnet.states import local_purification_probe, purify, separable_surrogate

from workloads import ginibre_density, haar_vector, qubit_network

PURE_DIMS = (256, 4096)
LARGE_DIM = PURE_DIMS[-1]
MIXED_DIMS = (64, 512)
MIN_TIMED_S = 0.2
MAX_REPS = 5


def timed(fn, *args) -> float:
    """Median seconds per call over repeats totalling MIN_TIMED_S."""
    times = []
    while len(times) < MAX_REPS and sum(times) < MIN_TIMED_S:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _setup(dim: int, mixed: bool):
    n = dim.bit_length() - 1
    net = qubit_network(n, (SIGMA_Z / 2,))
    rng = np.random.default_rng(dim)
    if mixed:
        return net, DensityOperator(ginibre_density(dim, rng), net.dims)
    return net, PureState(haar_vector(dim, rng), net.dims)


def small() -> dict[str, float]:
    out = {}
    for dim in PURE_DIMS:
        net, psi = _setup(dim, mixed=False)
        out[f"sweep.embed_local.D{dim}_s"] = timed(embed_local, SIGMA_Z / 2, 0, net.dims)
        out[f"sweep.resource_count.D{dim}_s"] = timed(resource_count, net, psi)
        out[f"sweep.encode.D{dim}_s"] = timed(encode, net, psi, np.full(net.n_params, 0.1))
        out[f"sweep.separable_surrogate.D{dim}_s"] = timed(separable_surrogate, psi, net)
        if dim != LARGE_DIM:
            out.update(_generators(net, psi))
    for dim in MIXED_DIMS:
        net, rho = _setup(dim, mixed=True)
        half = range(len(net.dims) // 2)
        out[f"sweep.partial_trace.D{dim}_s"] = timed(partial_trace, rho, half)
        out[f"sweep.qfim_mixed.D{dim}_s"] = timed(qfim_mixed, rho, global_generators(net), net.partition)
        out[f"sweep.purify.D{dim}_s"] = timed(purify, rho)
        out[f"sweep.local_purification_probe.D{dim}_s"] = timed(local_purification_probe, rho, net)
    return out


def _generators(net, psi) -> dict[str, float]:
    dim = net.total_dim
    start = time.perf_counter()
    gens = global_generators(net)
    built = time.perf_counter() - start
    return {
        f"sweep.global_generators.D{dim}_s": built,
        f"sweep.qfim_pure.D{dim}_s": timed(qfim_pure, psi, gens, net.partition),
    }


def large() -> dict[str, float]:
    out = _generators(*_setup(LARGE_DIM, mixed=False))
    out[f"sweep.global_generators.D{LARGE_DIM}_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def metric_names() -> list[str]:
    pure = ("embed_local", "global_generators", "qfim_pure", "resource_count", "encode", "separable_surrogate")
    mixed = ("partial_trace", "qfim_mixed", "purify", "local_purification_probe")
    names = [f"sweep.{f}.D{d}_s" for d in PURE_DIMS for f in pure]
    names += [f"sweep.{f}.D{d}_s" for d in MIXED_DIMS for f in mixed]
    return names + [f"sweep.global_generators.D{LARGE_DIM}_rss_mb"]


if __name__ == "__main__":
    part = {"small": small, "large": large}[sys.argv[1]]
    print(json.dumps(part()))
