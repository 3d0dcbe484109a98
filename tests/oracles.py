"""Closed forms that the tests compare the package against.

Each oracle is built from the mathematics it states, not from the code it
checks: the chain states come from chi's derivative stack by the bump
family's scaling law, and the prefactors R_i from a power series that
shares no polynomial arithmetic with `funcspace._p_polynomial`.
"""

from fractions import Fraction
from math import factorial

import numpy as np

import gnlab.funcspace as fs


def chain_states(sweep) -> np.ndarray:
    """Every state of a `control._rk4_blocks` sweep, (4, steps+1, batch),
    which the package never stores: each block is copied before the next
    overwrites it, and only the first keeps its row 0 (the origin; every
    later row 0 repeats the block before's last)."""
    return np.concatenate([block[:, (1 if lo else 0):].copy()
                           for lo, block in sweep], axis=1)


def scaled_triple_reference(law, times) -> np.ndarray:
    """Exact (x1, x2, x3) chain states for the bump family.

    Integrating w = eps chi'''(t eps^{-a}) through the chain gives
    x1 = eps^{1+a} chi''(s), x2 = eps^{1+2a} chi'(s), x3 = eps^{1+3a} chi(s).
    """
    s = np.asarray(times, dtype=float) * law.epsilon ** (-law.a)
    ch = fs.chi_stack(s, 2)
    e = law.epsilon
    return np.stack([e ** (1 + law.a) * ch[2],
                     e ** (1 + 2 * law.a) * ch[1],
                     e ** (1 + 3 * law.a) * ch[0]])


def chi_prefactors(t: Fraction, top: int) -> list:
    """R_0..R_top at a rational t in (0, 1), exactly: D^i chi = R_i chi.

    chi(t + h) / chi(t) = exp(g(t + h) - g(t)) with g = -1/t - 1/(1 - t),
    so R_i = i! [h^i] exp(a(h)), where a_k = -((-1)^k / t^(k+1)
    + 1 / (1 - t)^(k+1)) for k >= 1 and a_0 = 0.  The exponential's
    coefficients follow from e' = a' e: n e_n = sum_k k a_k e_(n-k).
    """
    a = [Fraction(0)] + [-(Fraction((-1) ** k) / t ** (k + 1)
                           + 1 / (1 - t) ** (k + 1))
                         for k in range(1, top + 1)]
    e = [Fraction(1)]
    for n in range(1, top + 1):
        e.append(sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n)
    return [factorial(i) * e[i] for i in range(top + 1)]
