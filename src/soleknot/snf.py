"""Exact integer Smith normal form with transform tracking.

Everything works on plain Python integers (arbitrary precision); matrices
here come from relator exponent sums and are tiny, so the classic
pivot-and-clear algorithm is plenty.
"""

from __future__ import annotations

__all__ = ["smith_normal_form", "diagonal"]

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: list[list[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*mat*V = D diagonal, d_i | d_{i+1}, d_i >= 0,
    and U, V unimodular."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(r) for r in mat]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):  # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):  # col dst += c * col src
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    while k < min(rows, cols):
        # pick a pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear row and column k by euclidean steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    add_row(k, i, -q)
                    if a[i][k]:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    add_col(k, j, -q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
        # divisibility: fold any non-multiple into column k and redo
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, k, 1)
            continue
        if a[k][k] < 0:
            negate_row(k)
        k += 1
    return u, a, v


def diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
