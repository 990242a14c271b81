"""Hand-rolled lattice oracles for the tests.

The library answers lattice questions through ``linalg.preimage_lattice``
and ``linalg.smith_diagonal_mod``; these plain integer eliminations are
kept here as independent references for them: a Hermite row basis by
repeated extended-gcd row moves, and reduction of a vector against such a
basis.
"""



def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def hermite_row_basis(rows: list) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice spanned by ``rows``.

    Row echelon over the integers: pivots positive, entries above each pivot
    reduced into [0, pivot). The output depends only on the spanned lattice.
    """
    work = [list(int(x) for x in r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        found = None
        for i in range(r, len(work)):
            if work[i][c]:
                found = i
                break
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        for i in range(r + 1, len(work)):
            while work[i][c]:
                a, b = work[r][c], work[i][c]
                if b % a == 0:
                    q = b // a
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q2 = a // g, b // g
                    new_r = [x * s + y * t for s, t in zip(work[r], work[i])]
                    new_i = [-q2 * s + p * t for s, t in zip(work[r], work[i])]
                    work[r], work[i] = new_r, new_i
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        pivot = work[r][c]
        for k in range(r):
            q = work[k][c] // pivot
            if q:
                work[k] = [x - q * y for x, y in zip(work[k], work[r])]
        r += 1
    return work[:r]


def lattice_reduce(vec, basis_rows: list) -> list[int]:
    """Canonical representative of ``vec`` modulo the Hermite row basis."""
    x = [int(t) for t in vec]
    for b in basis_rows:
        c = next(i for i, t in enumerate(b) if t)
        q = x[c] // b[c]
        if q:
            x = [s - q * t for s, t in zip(x, b)]
    return x
