"""Exact-rational linear programming.

A two-phase simplex with Bland's rule, which guarantees termination and,
together with exact arithmetic, makes every feasibility answer and
optimum exact.  All variables are implicitly non-negative; constraints
are equalities or <= inequalities (slacks are added internally).

The tableau is fraction-free: a row is a list of Python ints ending in
its positive denominator, built straight from the sparse constraint
rows, so a pivot is integer arithmetic under either rational backend on
the rows nonzero in its column.  Signs and ratios read numerators alone,
so the pivots and every returned point are those of the rational
tableau.  Solves are memoized by content (integer rows, columns, cost).
"""

from __future__ import annotations

import functools
from math import gcd, lcm

from .rat import ZERO, ONE, rat


class LP:
    """Incremental builder for feasibility and optimization queries."""

    def __init__(self):
        self._index: dict = {}
        self._names: list = []
        self._rows: list = []  # (coeffs dict idx->Rat, rel, rhs)

    def var(self, name):
        """Register (idempotently) a non-negative variable."""
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return name

    def add_eq(self, coeffs: dict, rhs):
        self._rows.append((self._materialize(coeffs), "==", rhs))

    def add_le(self, coeffs: dict, rhs):
        self._rows.append((self._materialize(coeffs), "<=", rhs))

    def _materialize(self, coeffs: dict) -> dict:
        return {self._index[name]: c for name, c in coeffs.items()
                if c != ZERO}

    def _standard_form(self):
        """The rows as int tuples (a_1, ..., a_n, rhs, d) meaning a_j/d with
        rhs >= 0, and n: the variables, then one slack per <= row."""
        n = len(self._names)
        total = n + sum(1 for _, rel, _ in self._rows if rel == "<=")
        rows = []
        slack_at = n
        for coeffs, rel, b in self._rows:
            entries = dict(coeffs)
            if rel == "<=":
                entries[slack_at] = ONE
                slack_at += 1
            entries[total] = b
            row = _integer_row(entries, total + 1)
            rows.append(tuple(-x for x in row[:-1]) + row[-1:]
                        if b < ZERO else row)
        return tuple(rows), total

    def feasible(self):
        """A feasible assignment as {name: Rat}, or None."""
        return self.minimize({})

    def minimize(self, objective: dict):
        """Minimize a linear objective; returns {name: Rat} or None.

        The returned assignment includes the special key ``"__value__"``
        holding the optimum.
        """
        rows, total = self._standard_form()
        cost = _integer_row({self._index[name]: c
                             for name, c in objective.items()}, total)
        solution = _simplex(rows, total, cost)
        if solution is None:
            return None
        out = {name: solution[0][j] for name, j in self._index.items()}
        out["__value__"] = solution[1]
        return out

    def maximize(self, objective: dict):
        res = self.minimize({k: -v for k, v in objective.items()})
        if res is not None:
            res["__value__"] = -res["__value__"]
        return res


def _integer_row(entries: dict, size: int) -> tuple:
    """{column: Rat} as `size` ints over their lcm denominator, which is
    appended.  `int()` turns gmpy2 numbers into plain ints."""
    den = lcm(*(int(q.denominator) for q in entries.values()))
    row = [0] * size + [den]
    for j, q in entries.items():
        row[j] = int(q.numerator) * (den // int(q.denominator))
    return tuple(row)


@functools.lru_cache(maxsize=512)
def _simplex(rows, n, cost):
    """Solve min cost.x st rows.x = rhs, x >= 0 over integer rows.

    Returns (x, value) as a tuple of Rats and a Rat, or None when
    infeasible: immutable, as the memo hands them to every caller.
    Unboundedness cannot occur for the bounded mass/flow polytopes built
    in this package but is reported as a ValueError defensively.
    """
    m = len(rows)
    if m == 0:
        return (ZERO,) * n, ZERO
    # Phase 1 tableau with one artificial variable per row.
    width = n + m
    tab = [list(row[:n]) + [0] * m + list(row[n:]) for row in rows]
    for i, row in enumerate(rows):
        tab[i][n + i] = row[-1]
    basis = [n + i for i in range(m)]
    # Reduced-cost row z_j - c_j for min sum(artificials); the b-cell
    # holds the current objective value (the artificial mass left).
    den = lcm(*(row[-1] for row in rows))
    sums = [sum(col) for col in zip(*(
        [x * (den // row[-1]) for x in row[:-1]] for row in rows))]
    zrow = sums[:n] + [0] * m + [sums[n], den]
    _pivot_to_optimum(tab, basis, zrow, width)
    if zrow[width]:
        return None  # min sum of artificials > 0: infeasible

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tab[i][j]), None)
            if pivot_col is None:
                continue  # redundant row
            _pivot(tab, basis, zrow, i, pivot_col, width)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 with the real objective (artificial columns masked off):
    # -c, with every basic column eliminated.
    for row in tab:
        row[n:width] = [0] * m
    zrow = [-c for c in cost[:n]] + [0] * (m + 1) + [cost[-1]]
    for row, b in zip(tab, basis):
        if zrow[b]:
            zrow = _eliminate(zrow, row, range(width + 1), b)
    zrow[n:width] = [-zrow[-1]] * m  # forbid artificials from re-entering
    _pivot_to_optimum(tab, basis, zrow, width)

    x = [ZERO] * n
    for row, b in zip(tab, basis):
        x[b] = rat(row[width], row[-1])
    return tuple(x), rat(zrow[width], zrow[-1])


def _pivot_to_optimum(tab, basis, zrow, width):
    # Maintain zrow[j] = z_j - c_j; optimal when all entries <= 0.
    while True:
        enter = next((j for j in range(width) if zrow[j] > 0), None)
        if enter is None:  # Bland: the smallest index enters
            return
        # Ratio test, ties to the smallest basic index.  With a > 0 the
        # row denominators cancel in b/a: cross-multiply the numerators.
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0 and (leave is None or (
                    (row[width] * tab[leave][enter], basis[i])
                    < (tab[leave][width] * a, basis[leave]))):
                leave = i
        if leave is None:
            raise ValueError("LP unbounded; malformed constraint system")
        _pivot(tab, basis, zrow, leave, enter, width)


def _pivot(tab, basis, zrow, row, col, width):
    # Dividing by the pivot entry makes it the row's denominator.
    pivot_row = tab[row][:-1] + [tab[row][col]]
    if pivot_row[-1] < 0:
        pivot_row = [-x for x in pivot_row]
    tab[row] = pivot_row = _reduced(pivot_row)
    support = [j for j in range(width + 1) if pivot_row[j]]
    for i, other in enumerate(tab):
        if i != row and other[col]:
            tab[i] = _eliminate(other, pivot_row, support, col)
    if zrow[col]:
        zrow[:] = _eliminate(zrow, pivot_row, support, col)
    basis[row] = col


def _eliminate(row, pivot_row, support, col) -> list:
    """Zero `row` in column `col` with the pivot row, whose entry there
    equals its denominator p: (row*p - row[col]*pivot_row) / (d*p)."""
    f, p = row[col], pivot_row[-1]
    out = [x * p for x in row] if p != 1 else list(row)
    for j in support:
        out[j] -= f * pivot_row[j]
    return _reduced(out)


def _reduced(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row
