"""Classical type data for the orthogonal and symplectic series.

Conventions (1-based index i runs over 1..N, involution i' = N+1-i):

* type B_n: N = 2n+1, orthogonal;
* type C_n: N = 2n, symplectic;
* type D_n: N = 2n, orthogonal, n >= 2 (D_1 is abelian and rejected).

bar is the weight N-tuple, eps the sign tuple, kappa the crossing shift and
xi = q^{xi_exponent} the special point of the R-matrix; e^{-kappa*h} equals
xi under q = e^{h/2}, i.e. kappa = -xi_exponent/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["LieTypeData", "lie_type_data"]


@dataclass(frozen=True)
class LieTypeData:
    family: str
    n: int
    N: int
    bar: tuple          # Fractions, length N
    eps: tuple          # +1/-1, length N
    kappa: Fraction
    xi_exponent: int

    def iprime(self, i: int) -> int:
        """Index involution on 0-based indices."""
        return self.N - 1 - i

    def __post_init__(self):
        for i in range(self.N):
            j = self.iprime(i)
            if self.bar[j] != -self.bar[i]:
                raise ValueError(f"bar is not odd under i -> i' at i={i}")
            expected = -1 if self.family == "C" else 1
            if self.eps[i] * self.eps[j] != expected:
                raise ValueError(f"eps_i eps_i' is not {expected} at i={i}")
        if self.kappa != -Fraction(self.xi_exponent, 2):
            raise ValueError("kappa is not -xi_exponent/2")


def lie_type_data(family: str, n: int) -> LieTypeData:
    if family not in ("B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    if family == "D" and n < 2:
        raise ValueError("type D requires rank at least 2")

    if family == "B":
        N = 2 * n + 1
        half = [Fraction(2 * k - 1, 2) for k in range(n, 0, -1)]
        bar = tuple(half + [Fraction(0)] + [-x for x in reversed(half)])
        eps = (1,) * N
        kappa = Fraction(N, 2) - 1
    elif family == "C":
        N = 2 * n
        bar = tuple([Fraction(k) for k in range(n, 0, -1)]
                    + [Fraction(-k) for k in range(1, n + 1)])
        eps = (1,) * n + (-1,) * n
        kappa = Fraction(N, 2) + 1
    else:
        N = 2 * n
        half = [Fraction(k) for k in range(n - 1, 0, -1)]
        bar = tuple(half + [Fraction(0), Fraction(0)] + [-x for x in reversed(half)])
        eps = (1,) * N
        kappa = Fraction(N, 2) - 1

    xi_exponent = (2 - N) if family in ("B", "D") else (-2 - N)
    return LieTypeData(family, n, N, bar, eps, kappa, xi_exponent)
