"""Deterministic instance generator for the benchmark.

Everything here is a pure function of an integer seed and uses only the
standard library: the program under test receives the generated JSON or argv
and nothing else. Presentations are sampled the way the fuzz harness samples
them (symmetric surgery matrix with entries in [-bound, bound] and nonzero
determinant, random linking data). Determinants and the admissibility
certificate are computed here with their own exact arithmetic, so the inputs
and the expected invariants do not depend on ``idelink.linalg``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def knot_classes_generate(surgery: list[list[int]], lk_ws: list[list[int]], det: int) -> bool:
    """Certify that the knot classes generate H1 = Z^s / (surgery matrix).

    They do exactly when the maximal minors of [Lambda | W^T] have gcd 1. The
    gcd of |det Lambda| and the minors that swap one column of Lambda for one
    knot's linking vector is a multiple of that gcd, so reaching 1 on this
    subset is a certificate. False means "not certified", not "not admissible".
    """
    g = abs(det)
    s = len(surgery)
    for w in lk_ws:
        for j in range(s):
            if g == 1:
                return True
            swapped = [row[:j] + [w[i]] + row[j + 1:] for i, row in enumerate(surgery)]
            g = gcd(g, determinant(swapped))
    return g == 1


class Instance:
    """A sampled presentation with the invariants the generator knows exactly."""

    def __init__(self, surgery, lk_ws, lk_mut, det):
        self.surgery = surgery
        self.lk_ws = lk_ws
        self.lk_mut = lk_mut
        self.det = det

    @property
    def s(self) -> int:
        return len(self.surgery)

    @property
    def knots(self) -> list[str]:
        return [f"K{i + 1}" for i in range(len(self.lk_ws))]

    def to_dict(self) -> dict:
        return {
            "surgery": {"components": [f"L{i + 1}" for i in range(self.s)], "matrix": self.surgery},
            "link": {"components": self.knots, "lk_with_surgery": self.lk_ws, "lk_mutual": self.lk_mut},
        }


def sample_instance(seed: int, s: int, r: int, bound: int = 5, need_admissible: bool = False) -> Instance:
    """Random presentation with s surgery components and r marked knots.

    Draws are repeated from the same RNG until the surgery matrix is
    nonsingular and, when asked, until the knot classes are certified to
    generate H1 (the precondition of Kummer covers on the whole link).
    """
    rng = random.Random(seed)
    while True:
        surgery = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i, s):
                v = rng.randint(-bound, bound)
                surgery[i][j] = surgery[j][i] = v
        lk_ws = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(r)]
        lk_mut = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                v = rng.randint(-bound, bound)
                lk_mut[i][j] = lk_mut[j][i] = v
        det = determinant(surgery)
        if det == 0:
            continue
        if need_admissible and not knot_classes_generate(surgery, lk_ws, det):
            continue
        return Instance(surgery, lk_ws, lk_mut, det)


def solve_columns(a: list[list[int]], rhs: list[list[int]]) -> list[list[Fraction]]:
    """Exact solutions x of a @ x = b for each column b in ``rhs``.

    Fraction-free Bareiss elimination on the augmented matrix, then
    back-substitution on det * x, which is integral by Cramer's rule, so
    every division below is exact. ``a`` must be square and nonsingular.
    """
    n = len(a)
    m = [list(a[i]) + [b[i] for b in rhs] for i in range(n)]
    width = n + len(rhs)
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next(i for i in range(k + 1, n) if m[i][k])
            m[k], m[swap] = m[swap], m[k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    last = m[n - 1][n - 1]
    out = []
    for c in range(len(rhs)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            acc = last * m[i][n + c] - sum(m[i][j] * y[j] for j in range(i + 1, n))
            y[i] = acc // m[i][i]
        out.append([Fraction(v, last) for v in y])
    return out


class Oracle:
    """Expected answers for an instance, from the generator's own arithmetic.

    With x_K = Lambda^-1 w_K for the linking vector w_K of each knot:
    the order of K in H1 is the lcm of the denominators of x_K; the rational
    linking number is lk(J, K) - w_J . x_K; the preferred longitude is
    n_K (w_K . x_K) meridians plus n_K longitudes. A divisor d on a sublink is
    principal when t = sum_K d_K x_K is integral, and its idele has
    longitude d_K and meridian w_K . t - sum_{J != K} lk(J, K) d_J at K.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.index = {k: i for i, k in enumerate(inst.knots)}
        self.x = solve_columns(inst.surgery, inst.lk_ws) if inst.s else [[] for _ in inst.knots]

    def _w(self, k: str) -> list[int]:
        return self.inst.lk_ws[self.index[k]]

    def _mut(self, a: str, b: str) -> int:
        return self.inst.lk_mut[self.index[a]][self.index[b]]

    def knot_order(self, k: str) -> int:
        n = 1
        for v in self.x[self.index[k]]:
            n = n * v.denominator // gcd(n, v.denominator)
        return n

    def linking_number(self, a: str, b: str) -> Fraction:
        xb = self.x[self.index[b]]
        return self._mut(a, b) - sum((w * v for w, v in zip(self._w(a), xb)), Fraction(0))

    def longitude(self, k: str) -> tuple[int, int]:
        """(meridian, longitude) coefficients of the preferred longitude."""
        n = self.knot_order(k)
        q = sum((w * v for w, v in zip(self._w(k), self.x[self.index[k]])), Fraction(0))
        return int(n * q), n

    def info_ok(self, payload: dict) -> bool:
        """Whether an ``info`` payload has the H1 order |det| and every knot's data."""
        order = 1
        for f in payload["h1"]:
            order *= int(f)
        knots = {}
        for k in self.inst.knots:
            x, y = self.longitude(k)
            knots[k] = {"order": self.knot_order(k), "lambda": [x, y], "basis": y == 1}
        return order == abs(self.inst.det) and payload["knots"] == knots

    def chain(self, divisor: dict) -> list[Fraction]:
        """t = Lambda^-1 W^T d, integral exactly when the divisor is principal."""
        t = [Fraction(0)] * self.inst.s
        for k, c in divisor.items():
            for j, v in enumerate(self.x[self.index[k]]):
                t[j] += c * v
        return t

    def _meridian_part(self, link, t, longitudes: dict, k: str) -> Fraction:
        wt = sum((w * tj for w, tj in zip(self._w(k), t)), Fraction(0))
        return wt - sum(self._mut(k, j) * longitudes.get(j, 0) for j in link if j != k)

    def delta(self, link, divisor: dict) -> dict:
        """The principal idele of a principal divisor, as the CLI prints it."""
        t = self.chain(divisor)
        out = {}
        for k in link:
            x, y = self._meridian_part(link, t, divisor, k), divisor.get(k, 0)
            if x or y:
                out[k] = [int(x), y]
        return out

    def is_principal(self, link, idele: dict) -> bool:
        longitudes = {k: v[1] for k, v in idele.items()}
        t = self.chain(longitudes)
        if any(tj.denominator != 1 for tj in t):
            return False
        return all(
            self._meridian_part(link, t, longitudes, k) == idele.get(k, [0, 0])[0] for k in link
        )

    def kummer(self, link, divisor: dict, n: int) -> dict:
        """The CLI's ``kummer`` payload for a principal divisor."""
        t = self.chain(divisor)
        phi = [[int(-tj) % n] for tj in t] + [[divisor.get(k, 0) % n] for k in link]
        return {
            "cover": {"branch_link": list(link), "target": [n], "phi": phi},
            "branch_locus": [k for k in link if divisor.get(k, 0) % n],
        }

    @staticmethod
    def pairing(a: dict, b: dict) -> int:
        return sum(
            a[k][0] * b[k][1] - b[k][0] * a[k][1] for k in a if k in b
        )

    @staticmethod
    def decomposition(n: int, meridian_image: int, longitude_image: int) -> tuple[int, int, int]:
        """(e, f, g) of a knot in a cyclic Z/n cover from its boundary images."""
        e = n // gcd(n, meridian_image)
        boundary = n // gcd(n, gcd(meridian_image, longitude_image))
        return e, boundary // e, n // boundary
