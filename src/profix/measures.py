"""Discretized carriers for the distributional objects used everywhere else.

Distributions enter the computations as finite collections of weighted
atoms, nondecreasing step functions, or masses on a finite support.  All
types freeze their arrays after construction, so instances can be shared
read-only across threads and Monte Carlo replications.  Both model
families keep their sample in a :class:`RecordTable` and read it from CSV
with :func:`read_csv`.
"""

from __future__ import annotations

import csv
from functools import cached_property

import numpy as np

from .errors import InvalidConfig, InvalidInput


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _canonical_order(points):
    """Stable ascending order of points (lexicographic for row vectors).

    Rows are sorted by their first entry alone, and only the runs of rows
    tied there are lexsorted on every column, in index order, so exact
    ties keep their insertion order: the order is np.lexsort's.
    """
    if points.ndim == 1:
        return np.argsort(points, kind="stable")
    first = points[:, 0]
    order = np.argsort(first)
    first = first[order]
    tied = first[1:] == first[:-1]
    runs = np.zeros(len(order), dtype=bool)
    runs[1:] = tied
    runs[:-1] |= tied
    # lexsort keys run last-to-first, so feed columns in reverse; it is
    # stable, which breaks exact ties by insertion index.
    if runs.all():
        return np.lexsort(points[:, ::-1].T)
    rows = np.sort(order[runs])
    order[runs] = rows[np.lexsort(np.take(points, rows, axis=0)[:, ::-1].T)]
    return order


def _merge_duplicates(points, weights):
    """Sum weights of exactly equal, already sorted points."""
    if len(points) == 0:
        return points, weights
    # compared a column at a time: a row-wise any over a few columns costs
    # several times as much
    columns = points.reshape(len(points), -1).T
    repeat = columns[0, 1:] == columns[0, :-1]
    for column in columns[1:]:
        repeat &= column[1:] == column[:-1]
    new_group = np.concatenate(([True], ~repeat))
    merged = np.add.reduceat(weights, np.flatnonzero(new_group))
    return np.compress(new_group, points, axis=0), merged


class EmpiricalMeasure:
    """Finite nonnegative atomic measure.

    Atoms are kept canonically ordered (ascending by point, lexicographic
    for vector-valued points) and exactly duplicated points are merged with
    summed weight, so two measures representing the same distribution
    have the same atoms, bit for bit.

    Parameters
    ----------
    points : array-like, shape (n,) or (n, k)
        Atom locations.  Rows are sample-space elements.
    weights : array-like, shape (n,)
        Nonnegative atom masses, not normalized here.
    """

    def __init__(self, points, weights):
        # adding 0.0 canonicalizes -0.0, keeping bit patterns comparable
        points = np.asarray(points, dtype=float) + 0.0
        weights = np.asarray(weights, dtype=float)
        if points.ndim not in (1, 2):
            raise InvalidInput("points must be a 1-d or 2-d array")
        if weights.ndim != 1 or len(weights) != len(points):
            raise InvalidInput("weights must be 1-d and match points")
        if not np.all(np.isfinite(points)):
            raise InvalidInput("non-finite point")
        if not np.all(np.isfinite(weights)):
            raise InvalidInput("non-finite weight")
        if np.any(weights < 0):
            raise InvalidInput("negative atom weight")
        order = _canonical_order(points)
        # take gathers rows several times faster than points[order]
        points, weights = _merge_duplicates(np.take(points, order, axis=0),
                                            weights[order])
        self.points = points
        self.weights = weights
        _freeze(self.points, self.weights)


class StepFunction:
    """Nondecreasing cadlag step function on [0, tau] starting at zero.

    Evaluation at u returns the sum of the jumps at times <= u.
    """

    def __init__(self, jump_times, jump_sizes, tau):
        jump_times = np.array(jump_times, dtype=float)
        jump_sizes = np.array(jump_sizes, dtype=float)
        if not np.isfinite(tau) or tau <= 0:
            raise InvalidInput("tau must be a positive real")
        if jump_times.ndim != 1 or jump_sizes.shape != jump_times.shape:
            raise InvalidInput("jump times and sizes must be matching 1-d arrays")
        if len(jump_times) > 0:
            if np.any(np.diff(jump_times) <= 0):
                raise InvalidInput("jump times must be strictly increasing")
            if jump_times[0] <= 0 or jump_times[-1] > tau:
                raise InvalidInput("jump times must lie in (0, tau]")
        if not np.all(np.isfinite(jump_sizes)) or np.any(jump_sizes < 0):
            raise InvalidInput("jump sizes must be finite and nonnegative")
        self.jump_times = jump_times
        self.jump_sizes = jump_sizes
        self.tau = float(tau)
        # the value after each jump, led by the zero before the first
        self._values = np.concatenate(([0.0], np.cumsum(jump_sizes)))
        _freeze(self.jump_times, self.jump_sizes, self._values)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > self.tau):
            raise InvalidInput("evaluation point outside [0, tau]")
        out = self._values[np.searchsorted(self.jump_times, u, side="right")]
        return float(out) if out.ndim == 0 else out


def _finite_norm(norm):
    """An induced norm as a float.  A NaN or infinite entry of the map makes
    the norm non-finite, so checking the one number refuses such a map."""
    if not np.isfinite(norm):
        raise InvalidInput(f"the map has a non-finite entry (norm {norm})")
    return float(norm)


class LinearMap:
    """Dense matrix realizing a linear operator between coefficient spaces."""

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidInput("linear map needs a 2-d matrix")
        self.matrix = matrix
        _freeze(self.matrix)

    def apply(self, vec):
        return self.matrix @ np.asarray(vec, dtype=float)

    def sup_norm(self):
        """Induced sup norm: the largest absolute row sum."""
        return _finite_norm(np.abs(self.matrix).sum(axis=1).max())

    def l1_norm(self):
        """Induced L1 norm: the largest absolute column sum."""
        return _finite_norm(np.abs(self.matrix).sum(axis=0).max())

    def resolvent_solve(self, rhs):
        """Solve (I - M) x = rhs by a dense LU factorization; rhs may hold
        stacked columns."""
        return np.linalg.solve(np.eye(self.matrix.shape[0]) - self.matrix, rhs)


def suffix_increments(s):
    """The t whose suffix sums are s: t_i = s_i - s_{i+1}, with s_{m+1} = 0."""
    return s - np.append(s[1:], 0.0)


class MaxIndexMap:
    """The map diag(a) K(s), K(s)[i, j] = s[max(i, j)].

    The survival family's nuisance derivative has this form, so it applies
    in O(m) without an m x m matrix.  With U the upper-triangular ones
    matrix and t = suffix_increments(s), K(s) = U diag(t) U', so for a > 0,
    I - diag(a) K(s) = diag(a) U M U' with
    M = U^{-1} diag(1/a) U^{-T} - diag(t) symmetric tridiagonal:
    M_ii = 1/a_i + 1/a_{i+1} - t_i (1/a_{m+1} = 0), M_{i,i+1} = -1/a_{i+1}.
    M is congruent to diag(1/a) - K(s), hence to
    I - diag(a)^{1/2} K(s) diag(a)^{1/2}, whose eigenvalues are one minus
    those of diag(a) K(s).  For t >= 0 these are real and nonnegative, so M
    is positive definite exactly when diag(a) K(s) has spectral radius
    below one.  M's odd-even reduction (:class:`_Reduction`) is an LDL'
    factorization of M with its rows reordered, whose pivots are all
    positive exactly when M is positive definite: the one factorization
    both tests the contraction and solves the resolvent.
    """

    def __init__(self, a, s):
        self.a = np.asarray(a, dtype=float)
        self.s = np.asarray(s, dtype=float)
        if self.a.shape != self.s.shape or self.a.ndim != 1:
            raise InvalidInput("max-index map needs a and s of one common length")
        self.dim = len(self.a)

    def apply(self, vec):
        """Image of a vector, or of stacked columns of shape (m, k).

        Row i of K(s) v is s_i times the sum of v up to i plus the sum of
        s v beyond i.
        """
        vec = np.asarray(vec, dtype=float)
        if vec.shape[:1] != (self.dim,):
            raise InvalidInput("direction dimension mismatch")
        column = (-1,) + (1,) * (vec.ndim - 1)
        s = self.s.reshape(column)
        image = s * np.cumsum(vec, axis=0)
        image[:-1] += np.cumsum((s * vec)[::-1], axis=0)[-2::-1]
        return self.a.reshape(column) * image

    def sup_norm(self):
        """Sup norm of the map on values at the grid points, the norm the
        contraction requirement refers to.

        The cumulative operator C = U' conjugates diag(a) U diag(t) U' to
        the value map C diag(a) U diag(t), whose entry (i, j) is
        t_j cumsum(a)_min(i, j); its absolute row sums come from cumulative
        sums in O(m).
        """
        t = np.abs(suffix_increments(self.s))
        cc = np.abs(np.cumsum(self.a))
        before = np.concatenate([[0.0], np.cumsum(t * cc)[:-1]])
        rows = before + cc * np.cumsum(t[::-1])[::-1]
        return _finite_norm(rows.max(initial=0.0))

    @cached_property
    def _fixed_rows(self):
        """The rows with a_i = 0 and the map restricted to the others, or
        None when there are none."""
        a = self.a
        low = a.min(initial=np.inf)
        if not (low >= 0.0 and a.max(initial=0.0) < np.inf):
            raise InvalidInput("the resolvent needs finite nonnegative coefficients")
        if low > 0.0:
            return None
        fixed = a == 0.0
        return fixed, MaxIndexMap(a[~fixed], self.s[~fixed])

    @cached_property
    def _reduction(self):
        """The odd-even reduction of M on a map whose coefficients are all
        positive, computed once and shared by every solve; raises
        LinAlgError when M is not positive definite."""
        return _Reduction(self.a, self.s)

    def contracts(self):
        """Whether the map has spectral radius below one: whether M on the
        free rows has the factorization that the resolvent solves then
        reuse."""
        if self._fixed_rows is not None:
            return self._fixed_rows[1].contracts()
        if self.dim == 0:
            return True
        try:
            self._reduction  # computed here, cached for the solves
        except np.linalg.LinAlgError:
            return False
        return True

    def resolvent_solve(self, rhs):
        """Solve (I - diag(a) K(s)) x = rhs in O(m).

        Rows with a_i = 0 read x_i = rhs_i.  The free rows F = {a > 0} form
        the same system on the subsequence, K(s)_FF = K(s_F), with rhs_F +
        a_F (K(s) r)_F as right-hand side, r being rhs with the free rows
        zeroed.  There x = U^{-T} M^{-1} U^{-1} (rhs / a).  rhs may hold
        stacked columns.  An M that is not positive definite (spectral
        radius one or more) raises LinAlgError.
        """
        m = self.dim
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != (m,):
            raise InvalidInput("right-hand side dimension mismatch")
        if self._fixed_rows is not None:
            fixed, free_map = self._fixed_rows
            out = rhs.copy()
            pinned = np.where(fixed.reshape((-1,) + (1,) * (rhs.ndim - 1)), rhs, 0.0)
            out[~fixed] = free_map.resolvent_solve((rhs + self.apply(pinned))[~fixed])
            return out
        if m == 0:
            return rhs.copy()
        reduction = self._reduction
        x = reduction.solve(rhs)
        if reduction.refine:
            x += reduction.solve(rhs - x + self.apply(x))
        return x


#: Largest fall a_i / a_j (i < j) the resolvent solves without refinement;
#: survival coefficients rise as the risk set shrinks.
_STEEP_FALL = 16.0

#: Most rows the odd-even reduction leaves to the sequential recurrence,
#: which runs on Python floats.
_TAIL = 64


class _Reduction:
    """The resolvent of a :class:`MaxIndexMap` whose coefficients a are all
    positive, I - diag(a) K(s) = diag(a) U M U', by odd-even reduction of
    the tridiagonal M.

    M is padded with identity rows to size = 2^L (c - 1) + 1 rows,
    c <= _TAIL, so that every level has an odd number of rows.  The level
    at stride S = 2^l eliminates the rows at odd multiples of S, which
    couple only to rows at even multiples, so their pivots are their
    diagonal entries; what is left on the even multiples is a Schur
    complement, tridiagonal again, written in place.  The sequential
    recurrence factors the c rows left at stride 2^L.  Together this is an
    LDL' factorization of M with its rows reordered, so M is positive
    definite exactly when every pivot is positive; otherwise LinAlgError
    names the leading minor of the reordered M that the first nonpositive
    pivot ends.

    Forming M adds 1/a_i - t_i to 1/a_{i+1} and so loses digits where a
    falls steeply, past _STEEP_FALL; the solves then refine once against
    apply (``refine``).  A nondecreasing a has no fall.
    """

    def __init__(self, a, s):
        m = len(a)
        stride = 1
        while (m - 2) // stride + 2 > _TAIL:
            stride *= 2
        self.size = n = stride * ((m - 2) // stride + 1) + 1
        inv_a = np.zeros(n + 1)
        np.divide(1.0, a, out=inv_a[:m])
        d = inv_a[:-1] + inv_a[1:]
        d[:m] -= suffix_increments(s)
        d[m:] = 1.0
        f = inv_a[1:-1]  # minus the off-diagonal
        levels, S = [], 1
        with np.errstate(divide="ignore", invalid="ignore"):  # pivots checked below
            while S < stride:
                pivots, even = d[S::2 * S], d[::2 * S]
                left, right = f[0::2], f[1::2]
                lo, ro = left / pivots, right / pivots
                even[:-1] -= left * lo
                even[1:] -= right * ro
                f = lo * right  # couples consecutive even rows
                levels.append((S, lo, ro))
                S *= 2
        tail = d[::stride]
        p, g, pivots = float(tail[0]), [], []
        for f_i, d_i in zip(f.tolist(), tail[1:].tolist()):
            if not p > 0.0:
                break
            pivots.append(p)
            g.append(f_i / p)
            p = d_i - f_i * g[-1]
        pivots.append(p)
        tail[:len(pivots)] = pivots
        if not d.min() > 0.0:
            order = np.concatenate([np.arange(S, m, 2 * S) for S, _, _ in levels]
                                   + [np.arange(0, m, stride)])
            raise np.linalg.LinAlgError(
                "I - d_eta Psi is not positive definite: the nuisance derivative "
                "has spectral radius >= 1 and does not contract (leading minor "
                f"{1 + np.flatnonzero(~(d[order] > 0.0))[0]})"
            )
        inv = 1.0 / d
        self.levels = [(S, lo, ro, inv[S::2 * S]) for S, lo, ro in levels]
        self.stride, self.g, self.inv_tail = stride, g, inv[::stride].tolist()
        self.inv_a = inv_a[:m]
        self.refine = not (a[:-1] <= a[1:]).all() and bool(
            np.any(np.maximum.accumulate(a)[:-1] > _STEEP_FALL * a[1:]))

    def solve(self, rhs):
        """x = U^{-T} M^{-1} U^{-1} (rhs / a), each column of rhs solved as
        one row: eliminate down the levels, solve the tail in floats, and
        substitute back up."""
        m = len(self.inv_a)
        cols = rhs.reshape(m, -1).T
        cols = cols[0] if len(cols) == 1 else cols
        y = np.zeros(cols.shape[:-1] + (self.size,))
        np.multiply(cols, self.inv_a, out=y[..., :m])
        y[..., :-1] -= y[..., 1:]  # U^{-1}
        for S, lo, ro, _ in self.levels:
            odd, even = y[..., S::2 * S], y[..., ::2 * S]
            even[..., :-1] += lo * odd
            even[..., 1:] += ro * odd
        tail = y[..., ::self.stride]
        rows = tail.reshape(-1, tail.shape[-1]).tolist()
        g, inv_d = self.g, self.inv_tail
        last = len(g)
        for z in rows:
            v = z[0]
            for i, g_i in enumerate(g, 1):
                v = z[i] = z[i] + g_i * v
            v = z[last] = v * inv_d[last]
            for i in range(last - 1, -1, -1):
                v = z[i] = z[i] * inv_d[i] + g[i] * v
        tail[...] = rows if y.ndim > 1 else rows[0]
        for S, lo, ro, inv_p in reversed(self.levels):
            odd, even = y[..., S::2 * S], y[..., ::2 * S]
            odd *= inv_p
            odd += lo * even[..., :-1]
            odd += ro * even[..., 1:]
        x = y[..., :m]
        x[..., 1:] -= x[..., :-1]  # U^{-T}
        return x.T.reshape(rhs.shape)


def check_covariate_law(values, probs):
    """Refuse a design's discrete covariate law that a generator cannot draw
    from, or one with fewer than two points of positive probability, under
    which the covariate's coefficient is not identified."""
    values, probs = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    if values.ndim != 1 or probs.shape != values.shape:
        raise InvalidConfig("covariate values and probabilities must be matching 1-d arrays")
    if not (np.all(np.isfinite(values)) and np.all(probs >= 0)):
        raise InvalidConfig("covariate values must be finite and probabilities nonnegative")
    if abs(sum(probs.tolist()) - 1.0) > 1e-12:
        raise InvalidConfig("covariate probabilities must sum to one")
    if np.ptp(values[probs > 0]) == 0:  # not np.unique, which imports numpy.ma
        raise InvalidConfig("the covariate law needs two points of positive probability")


def gauss_legendre_grid(lo, hi, n):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    if hi <= lo:
        raise InvalidInput("empty quadrature interval")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def composite_gauss_grid(lo, hi, cells, order=5):
    """Per-cell Gauss-Legendre rule on a uniform partition of [lo, hi].

    Returns nodes, weights and the cell boundaries.  Nodes are interior to
    their cells, so sums of whole cells reproduce integrals up to the
    composite rule's error.
    """
    boundaries = np.linspace(lo, hi, cells + 1)
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (boundaries[1] - boundaries[0])
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    nodes = (mids[:, None] + half * base_nodes[None, :]).ravel()
    weights = np.tile(half * base_weights, cells)
    return nodes, weights, boundaries


def run_starts(sorted_values):
    """Where each run of equal values in a sorted vector begins."""
    new = np.empty(len(sorted_values), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new[1:])
    return new


class RecordTable:
    """A sample's fixed atom table, the base of both model families.

    Its rows are the measure's atoms in their canonical order.  Other
    distributions over the sample, mixture paths and perturbation
    directions are weight vectors over this one table, which keeps them and
    their derivatives on one common grid.
    """

    def __init__(self, measure, n_obs):
        self.points = measure.points
        self.weights = measure.weights
        self.n_obs = int(n_obs) if n_obs is not None else len(measure.points)

    @staticmethod
    def sample_measure(points, weights):
        """Probability measure over the rows of points: equally weighted when
        weights is None, else the given weights divided by their sum."""
        if len(points) == 0:
            raise InvalidInput("empty sample")
        if weights is None:
            weights = np.full(len(points), 1.0 / len(points))
        else:
            weights = np.asarray(weights, dtype=float)
            with np.errstate(over="ignore"):  # an infinite sum is refused below
                total = weights.sum()
            if not 0.0 < total < np.inf:
                raise InvalidInput(
                    f"sample weights must have a positive finite sum, got {total}")
            weights = weights / total
        return EmpiricalMeasure(points, weights)

    @property
    def n_records(self):
        return len(self.points)

    def resolve_weights(self, F):
        """F, a weight vector over the record table (None = own weights)."""
        if F is None:
            return self.weights
        F = np.asarray(F, dtype=float)
        if F.shape != (self.n_records,):
            raise InvalidInput("weight vector does not match the record count")
        if not np.all(np.isfinite(F)):
            raise InvalidInput("weight vector has a non-finite entry")
        return F

    def resolve_direction(self, h):
        """A perturbation as a signed weight vector over the record table."""
        h = np.asarray(h, dtype=float)
        if h.shape != (self.n_records,):
            raise InvalidInput("direction does not match the record count")
        if not np.all(np.isfinite(h)):
            raise InvalidInput("direction has a non-finite entry")
        return h


def read_csv(path, header, accept, parse_row):
    """Numeric rows of a CSV file whose first line names the columns.

    accept(names) tells whether the stripped column names are the expected
    header, which the error spells out otherwise; parse_row(row, where)
    turns one row's fields into numbers.  Blank lines are skipped, and
    every error names the file, the line and, where there is one, the
    column; so does a file that cannot be opened or is not text.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read data file {path}: {exc}") from exc
    reader = csv.reader(lines)
    names = next(reader, None)
    if names is None:
        raise InvalidInput(f"{path}: line 1: empty file")
    names = [c.strip() for c in names]
    if not accept(names):
        raise InvalidInput(
            f"{path}: line 1: expected header '{header}', got {names}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        where = f"{path}: line {lineno}"
        if len(row) != len(names):
            raise InvalidInput(
                f"{where}: expected {len(names)} fields, got {len(row)}"
            )
        rows.append(parse_row(row, where))
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def parse_number(convert, text, where, column):
    """convert(text) for int or float, or an error naming line and column."""
    try:
        return convert(text)
    except ValueError:
        noun = "an integer" if convert is int else "a number"
        raise InvalidInput(
            f"{where}, column {column}: could not parse {text!r} as {noun}"
        ) from None
