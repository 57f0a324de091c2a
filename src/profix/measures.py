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

import numpy as np

from .errors import InvalidInput


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _canonical_order(points):
    """Stable ascending order of points (lexicographic for row vectors)."""
    if points.ndim == 1:
        return np.argsort(points, kind="stable")
    # lexsort keys run last-to-first, so feed columns in reverse; it is
    # stable, which breaks exact ties by insertion index.
    return np.lexsort(points[:, ::-1].T)


def _merge_duplicates(points, weights):
    """Sum weights of exactly equal, already sorted points."""
    if len(points) == 0:
        return points, weights
    if points.ndim == 1:
        new_group = np.concatenate(([True], points[1:] != points[:-1]))
    else:
        new_group = np.concatenate(
            ([True], np.any(points[1:] != points[:-1], axis=1))
        )
    idx = np.flatnonzero(new_group)
    merged = np.add.reduceat(weights, idx)
    return points[new_group], merged


class EmpiricalMeasure:
    """Finite nonnegative atomic measure.

    Atoms are kept canonically ordered (ascending by point, lexicographic
    for vector-valued points) and exactly duplicated points are merged with
    summed weight, so two measures representing the same distribution
    compare equal atom by atom.

    Parameters
    ----------
    points : array-like, shape (n,) or (n, k)
        Atom locations.  Rows are sample-space elements.
    weights : array-like, shape (n,)
        Nonnegative atom masses.  Not normalized here; use
        :func:`empirical_from_sample` for a probability measure.
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
        points, weights = _merge_duplicates(points[order], weights[order])
        self.points = points
        self.weights = weights
        _freeze(self.points, self.weights)

    def __len__(self):
        return len(self.weights)

    def __eq__(self, other):
        if not isinstance(other, EmpiricalMeasure):
            return NotImplemented
        return (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def __repr__(self):
        return (
            f"EmpiricalMeasure(n={len(self)}, total_mass={self.total_mass:.6g})"
        )


def empirical_from_sample(points, weights=None):
    """Probability measure with one atom per observation.

    Omitted weights mean equal weights 1/n; explicit weights are
    normalized to total mass one.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise InvalidInput("empty sample")
    if weights is None:
        weights = np.full(len(points), 1.0 / len(points))
    else:
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise InvalidInput("negative weight")
        total = weights.sum()
        if total <= 0:
            raise InvalidInput("weights must have positive total")
        weights = weights / total
    return EmpiricalMeasure(points, weights)


def _cumulative_at(jump_times, cumulative, u):
    idx = np.searchsorted(jump_times, u, side="right")
    padded = np.concatenate(([0.0], cumulative))
    return padded[idx]


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
        self._cumulative = np.cumsum(jump_sizes)
        _freeze(self.jump_times, self.jump_sizes, self._cumulative)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > self.tau):
            raise InvalidInput("evaluation point outside [0, tau]")
        out = _cumulative_at(self.jump_times, self._cumulative, u)
        return float(out) if out.ndim == 0 else out

    @property
    def total(self):
        return float(self._cumulative[-1]) if len(self._cumulative) else 0.0

    def __repr__(self):
        return (
            f"StepFunction(jumps={len(self.jump_times)}, tau={self.tau:.6g}, "
            f"total={self.total:.6g})"
        )


class GridDensity:
    """Probability masses on a finite support, stored in support order."""

    def __init__(self, support, masses):
        support = np.array(support, dtype=float)
        masses = np.array(masses, dtype=float)
        if support.ndim != 1 or masses.shape != support.shape:
            raise InvalidInput("support and masses must be matching 1-d arrays")
        if len(support) == 0:
            raise InvalidInput("empty support")
        if len(np.unique(support)) != len(support):
            raise InvalidInput("support points must be distinct")
        if not np.all(np.isfinite(masses)) or np.any(masses < 0):
            raise InvalidInput("masses must be finite and nonnegative")
        order = np.argsort(support)
        self.support = support[order]
        self.masses = masses[order]
        _freeze(self.support, self.masses)

    def __repr__(self):
        return f"GridDensity(n={len(self.support)}, total_mass={self.masses.sum():.6g})"


class PerturbationDirection:
    """Signed atom weights over a fixed atom table: a direction in which to
    perturb a measure, with its total variation as norm."""

    def __init__(self, grid, coeffs):
        grid = np.array(grid, dtype=float)
        coeffs = np.array(coeffs, dtype=float)
        if len(coeffs) != len(grid):
            raise InvalidInput("coefficients must match the base grid")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInput("non-finite direction coefficient")
        self.grid = grid
        self.coeffs = coeffs
        self.norm = float(np.abs(coeffs).sum())
        _freeze(self.grid, self.coeffs)


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

    __call__ = apply


def suffix_increments(s):
    """The t whose suffix sums are s: t_i = s_i - s_{i+1}, with s_{m+1} = 0."""
    return s - np.append(s[1:], 0.0)


class MaxIndexMap:
    """Sum of diag(a_r) K(s_r) over terms (a_r, s_r), K(s)[i, j] = s[max(i, j)].

    The survival family's nuisance derivatives have this form, so they
    apply in O(m) without an m x m matrix.  With U the upper-triangular
    ones matrix and t = suffix_increments(s), K(s) = U diag(t) U', so for
    one term with a > 0, I - diag(a) K(s) = diag(a) U M U' with
    M = U^{-1} diag(1/a) U^{-T} - diag(t) symmetric tridiagonal:
    M_ii = 1/a_i + 1/a_{i+1} - t_i (1/a_{m+1} = 0), M_{i,i+1} = -1/a_{i+1}.
    M is congruent to diag(1/a) - K(s), hence to
    I - diag(a)^{1/2} K(s) diag(a)^{1/2}, whose eigenvalues are one minus
    those of diag(a) K(s).  For t >= 0 these are real and nonnegative, so M
    is positive definite exactly when diag(a) K(s) has spectral radius
    below one: M's Cholesky factor both solves the resolvent and tests the
    contraction.
    """

    def __init__(self, terms):
        self.terms = tuple(
            (np.asarray(a, dtype=float), np.asarray(s, dtype=float))
            for a, s in terms
        )
        dims = {len(x) for term in self.terms for x in term}
        if len(dims) != 1:
            raise InvalidInput("max-index map needs terms of one common length")
        (self.dim,) = dims

    def apply(self, vec):
        """Image of a vector, or of stacked columns of shape (m, k).

        Row i of K(s) v is s_i times the sum of v up to i plus the sum of
        s v beyond i.
        """
        vec = np.asarray(vec, dtype=float)
        if vec.shape[:1] != (self.dim,):
            raise InvalidInput("direction dimension mismatch")
        column = (-1,) + (1,) * (vec.ndim - 1)
        out = np.zeros(vec.shape)
        for a, s in self.terms:
            s = s.reshape(column)
            image = s * np.cumsum(vec, axis=0)
            image[:-1] += np.cumsum((s * vec)[::-1], axis=0)[-2::-1]
            out += a.reshape(column) * image
        return out

    @property
    def matrix(self):
        """The dense m x m form, for cross-checks only."""
        idx = np.arange(self.dim)
        pair = np.maximum(idx[:, None], idx[None, :])
        return sum(a[:, None] * s[pair] for a, s in self.terms)

    def resolvent_solve(self, rhs):
        """Solve (I - diag(a) K(s)) x = rhs for a single term in O(m).

        Rows with a_i = 0 read x_i = rhs_i.  The free rows F = {a > 0} form
        the same system on the subsequence, K(s)_FF = K(s_F), with rhs_F +
        a_F (K(s) r)_F as right-hand side, r being rhs with the free rows
        zeroed.  There x = U^{-T} M^{-1} U^{-1} (rhs / a).  Forming M adds
        1/a_i - t_i to 1/a_{i+1} and so loses digits where a falls steeply;
        past _STEEP_FALL one refinement step against apply restores them.
        rhs may hold stacked columns.  An M that is not positive definite
        (spectral radius one or more) raises LinAlgError.
        """
        if len(self.terms) != 1:
            raise InvalidInput("the tridiagonal resolvent needs a single term")
        (a, s), m = self.terms[0], self.dim
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != (m,):
            raise InvalidInput("right-hand side dimension mismatch")
        if not np.all((a >= 0) & np.isfinite(a)):
            raise InvalidInput("the resolvent needs finite nonnegative coefficients")
        if m == 0:
            return rhs.copy()
        column = (-1,) + (1,) * (rhs.ndim - 1)
        free = a > 0
        if not free.all():
            out = rhs.copy()
            fixed = np.where(free.reshape(column), 0.0, rhs)
            free_map = MaxIndexMap([(a[free], s[free])])
            out[free] = free_map.resolvent_solve((rhs + self.apply(fixed))[free])
            return out
        import scipy.linalg  # here: a mixture process never needs it

        inv_a = 1.0 / a
        inv_next = np.append(inv_a[1:], 0.0)
        bands = np.stack([inv_a + inv_next - suffix_increments(s), -inv_next])
        # ptsv refuses a single row (no off-diagonal); pbsv takes its 1 x 1 band
        bands = bands[: 1 + (m > 1)]

        def solve(r):
            y = r * inv_a.reshape(column)
            y[:-1] -= y[1:].copy()  # U^{-1}
            try:
                w = scipy.linalg.solveh_banded(
                    bands, y, lower=True, overwrite_b=True, check_finite=False
                )
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    "I - d_eta Psi is not positive definite: the nuisance derivative "
                    f"has spectral radius >= 1 and does not contract ({exc})"
                ) from exc
            return np.diff(w, axis=0, prepend=np.zeros((1,) + r.shape[1:]))  # U^{-T}

        x = solve(rhs)
        if np.any(np.maximum.accumulate(a)[:-1] > _STEEP_FALL * a[1:]):
            x += solve(rhs - x + self.apply(x))
        return x


#: Largest fall a_i / a_j (i < j) the resolvent solves without refinement;
#: survival coefficients rise as the risk set shrinks.
_STEEP_FALL = 16.0


class BilinearMap:
    """Vector-valued bilinear form given by its batched evaluation: pairs_fn
    maps directions H of shape (d, input_dim) to the (d, d, ...) array of
    the form at every pair (H[j], H[k])."""

    def __init__(self, pairs_fn, input_dim):
        self._pairs_fn = pairs_fn
        self.input_dim = input_dim

    def apply(self, h1, h2):
        if np.shape(h1) != np.shape(h2):
            raise InvalidInput("direction dimension mismatch")
        return self.pairs(np.stack([h1, h2]))[0, 1]

    __call__ = apply

    def pairs(self, H):
        """The form at every pair of rows of H."""
        H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[1] != self.input_dim:
            raise InvalidInput("direction dimension mismatch")
        return self._pairs_fn(H)


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


class RecordTable:
    """A sample's fixed atom table, the base of both model families.

    Empirical measures over the sample, and mixture paths and perturbation
    directions from it, are weight vectors over this one table, which keeps
    them and their derivatives on one common grid.
    """

    def __init__(self, measure, n_obs):
        self.measure = measure
        self.points = measure.points
        self.weights = measure.weights
        self.n_obs = int(n_obs) if n_obs is not None else len(measure.points)

    @staticmethod
    def sample_measure(points, weights, normalize):
        """Measure over the rows of points, equally weighted when weights is None."""
        if weights is None:
            weights = np.full(len(points), 1.0 / len(points))
        elif normalize:
            weights = np.asarray(weights, dtype=float)
            weights = weights / weights.sum()
        return EmpiricalMeasure(points, weights)

    @property
    def n_records(self):
        return len(self.points)

    def resolve_weights(self, F):
        """Weight vector over the record table for F (None = own weights)."""
        if F is None:
            return self.weights
        if isinstance(F, EmpiricalMeasure):
            if not np.array_equal(F.points, self.points):
                raise InvalidInput("measure atoms do not match the model records")
            return F.weights
        F = np.asarray(F, dtype=float)
        if F.shape != (self.n_records,):
            raise InvalidInput("weight vector does not match the record count")
        return F

    def resolve_direction(self, h):
        """Signed weight vector over the record table for a perturbation."""
        if isinstance(h, PerturbationDirection):
            if not np.array_equal(h.grid, self.points):
                raise InvalidInput("direction atoms do not match the model records")
            return h.coeffs
        h = np.asarray(h, dtype=float)
        if h.shape != (self.n_records,):
            raise InvalidInput("direction does not match the record count")
        return h


def read_csv(path, header, accept, parse_row):
    """Numeric rows of a CSV file whose first line names the columns.

    accept(names) tells whether the stripped column names are the expected
    header, which the error spells out otherwise; parse_row(row, where)
    turns one row's fields into numbers.  Blank lines are skipped, and
    every error names the file, the line and, where there is one, the
    column.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise InvalidInput(f"{path}: line 1: empty file")
        names = [c.strip() for c in names]
        if not accept(names):
            raise InvalidInput(
                f"{path}: line 1: expected header '{header}', got {names}"
            )
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
