"""Print what ``CycloScalar.invert``, one product and the ``identity`` path
cost, per conductor.

One line per value set: the conductor m, phi(m), how many values, and the
best of 3 in-process times, per value, of ``invert`` and of one product
z * z; a literal set also gets the time per value of ``z ** -1`` for its
powers z = zeta^k, which take the same path as every other inverse.  The
sets are the terms 2 - zeta^k - zeta^-k (k = 1 .. m/2 - 1) of
the literal half-angle sums at m = 60, 120, 180 and 240; dense values
with integer coefficients in [-9, 9] at m = 240 and 480, where inversion
descends through Q(zeta_(m/2)); and dense values at the odd conductor
105, where it is one Euclid; every ``invert`` ends in one check product.  The tables each set needs are built before
it is timed.  The cache of subfield inverses is emptied before each timed
run, so every time is the cold cost; each literal set gets one
more line with the hits and misses of that cache over one cold pass.

A second table times the orbit sum S(d) every ``identity`` command
reads, at mid-size orders where a median field-identities request
computes (97, 210 and 997) and at the largest conductors that benchmark
reaches (1980, 1999, 3960 and 3990): ``cyclotomic_polynomial(d)``, then
``pair_inverse_trace(d)``, the route S(d) takes, with Phi_d warm; beside
it the row route it replaced, ``CycloScalar.pair_inverse(d)`` with Phi_d
warm and ``cyclo_trace`` of that inverse, best of 3 each.  Before each of
the 3 runs the caches of ``cyclotomic_polynomial`` and of the
number-theory helpers it and the traces read (``_factorization``,
``divisors``, ``euler_phi`` and ``moebius``) are emptied, so each run is
as cold as a fresh process.
Print only: the exit status is 0 whenever the script runs.

Run from anywhere: ``python3 tools/field_cost.py``.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbichern.scalars import (  # noqa: E402
    CycloScalar,
    _factorization,
    _subfield_inverse,
    cyclo_trace,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    moebius,
    pair_inverse_trace,
)

RUNS = 3
DENSE = 3  # dense values per conductor
IDENTITY_CONDUCTORS = (97, 210, 997, 1980, 1999, 3960, 3990)
COLD = (cyclotomic_polynomial, _factorization, divisors, euler_phi, moebius)


def literal_terms(m: int) -> list[CycloScalar]:
    """2 - zeta^k - zeta^-k in Q(zeta_m) for k = 1 .. m/2 - 1."""
    terms = []
    for k in range(1, m // 2):
        z = CycloScalar.zeta_pow(m, k)
        terms.append(2 - z - z ** -1)
    return terms


def dense_values(m: int) -> list[CycloScalar]:
    rng = random.Random(m)
    return [
        CycloScalar(m, tuple(Fraction(rng.randint(-9, 9)) for _ in range(euler_phi(m))))
        for _ in range(DENSE)
    ]


def best_ms_per_value(step, values) -> float:
    """Best of RUNS timings of step over every value, in ms per value, each
    run from an empty cache of subfield inverses."""
    best = float("inf")
    for _ in range(RUNS):
        _subfield_inverse.cache_clear()
        start = time.perf_counter()
        for z in values:
            step(z)
        best = min(best, time.perf_counter() - start)
    return best * 1000 / len(values)


def identity_path_ms(d: int) -> list[float]:
    """Best of RUNS cold times, in ms, of Phi_d, S(d) by ``pair_inverse_trace``,
    the pair inverse and that inverse's trace, each run from emptied caches
    (``COLD``)."""
    best = [float("inf")] * 4
    for _ in range(RUNS):
        for cached in COLD:
            cached.cache_clear()
        times = [time.perf_counter()]
        cyclotomic_polynomial(d)
        times.append(time.perf_counter())
        pair_inverse_trace(d)
        times.append(time.perf_counter())
        inverse = CycloScalar.pair_inverse(d)
        times.append(time.perf_counter())
        cyclo_trace(inverse)
        times.append(time.perf_counter())
        best = [min(b, (t1 - t0) * 1000) for b, t0, t1 in zip(best, times, times[1:])]
    return best


def main() -> int:
    sets = [(m, "literal-sum terms", literal_terms(m)) for m in (60, 120, 180, 240)]
    sets += [(m, "dense", dense_values(m)) for m in (240, 480, 105)]
    head = f"{'m':>5} {'phi':>5}  {'values':<24} {'invert ms':>10} {'product ms':>11}"
    print(f"{head} {'z**-1 ms':>9}")
    for m, kind, values in sets:
        values[0] * values[0]  # the remainder table of Phi_m, outside the timing
        invert = best_ms_per_value(CycloScalar.invert, values)
        product = best_ms_per_value(lambda z: z * z, values)
        power = "-"
        if kind.startswith("literal"):
            powers = [CycloScalar.zeta_pow(m, k) for k in range(1, m // 2)]
            power = f"{best_ms_per_value(lambda z: z ** -1, powers):.3f}"
        label = f"{len(values)} {kind}"
        print(f"{m:>5} {euler_phi(m):>5}  {label:<24} {invert:>10.3f} {product:>11.3f} {power:>9}")
        if kind.startswith("literal"):
            _subfield_inverse.cache_clear()
            for z in values:
                z.invert()
            info = _subfield_inverse.cache_info()
            print(f"{'':>13}one cold pass: {info.hits} subfield-inverse hits, {info.misses} misses")
    print()
    print(f"{'d':>5} {'phi':>5}  {'Phi_d ms':>9} {'S(d) ms':>8} {'pair_inverse ms':>16} {'trace ms':>9}")
    for d in IDENTITY_CONDUCTORS:
        phi, orbit_sum, inverse, trace = identity_path_ms(d)
        print(f"{d:>5} {euler_phi(d):>5}  {phi:>9.3f} {orbit_sum:>8.3f} {inverse:>16.3f} {trace:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
