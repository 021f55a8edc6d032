"""Hardening checks: scrambled coordinates and the n = 8 envelope."""

import random

import pytest

from torsionlab.algebras import conjugate
from torsionlab.builders import build_gl_H, build_so, build_sp, build_u, catalog
from torsionlab.engine import first_prolongation, obstruction_space
from torsionlab.linalg import Mat, Subspace
from torsionlab.profiles import crosscheck


def rand_invertible(rng, n):
    while True:
        t = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if t.rank() == n:
            return t


def test_crosscheck_survives_random_conjugation():
    # structures transport along conjugation, so every rule should keep
    # matching the engine in fully scrambled coordinates
    rng = random.Random(2026)
    fired = 0
    for h in catalog():
        hc = conjugate(h, rand_invertible(rng, h.n))
        rep = crosscheck(hc)
        fired += len(rep["rules"])
        assert rep["all_equal"], (h.name, [(r["rule"], r["dim"], r["equal"]) for r in rep["rules"]])
    assert fired >= 10


@pytest.mark.parametrize(
    "build,expected_f_dim",
    [
        (lambda: build_so(8), 49),          # End(R^7)
        (lambda: build_u(4), 10),           # u(3) + the distinguished line
        (lambda: build_sp(4), 28),          # sp(6,R) block + w + a
        (lambda: build_gl_H(2), 9),         # quaternionic block + column + scalar
    ],
)
def test_envelope_n8(build, expected_f_dim):
    h = build()
    assert h.n == 8
    assert obstruction_space(h).dim == expected_f_dim


def test_envelope_n8_prolongations():
    assert first_prolongation(build_gl_H(2)).dim == 0
    assert first_prolongation(build_so(8)).dim == 28  # S^2(R^7)* along the normal


def test_u4_obstruction_is_char_plus_line():
    h = build_u(4)
    from torsionlab.engine import characteristic_subalgebra

    kc = characteristic_subalgebra(h)
    fs = obstruction_space(h)
    assert fs.contains_space(kc)
    assert fs.dim == kc.dim + 1
