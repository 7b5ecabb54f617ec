"""Problem container for small dense conic programs.

A :class:`ConicProblem` has Hermitian PSD matrix variables, nonnegative
scalar variables, a linear objective over trace terms and scalars with
optional nonnegative diagonal quadratic terms on the scalars, and linear
trace-form constraints with relation <=, >= or ==.

A complex Hermitian variable stays one d x d Hermitian cone block through
compilation and the solve (see :mod:`.cones`).  The tests rewrite
problems into equivalent all-real ones through the real 2d x 2d
embedding ``[[Re, -Im], [Im, Re]]``, an independent check of the
Hermitian blocks; the solver does not use it.
"""

import copy
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .cones import ConeLayout, svec

HERMITIAN_TOL = 1e-10
# the least orthant of a compiled problem with an objective; a smaller
# one gets inert pad entries up to it, so that problems a few slacks
# apart, such as PD's subproblems and ADMM's local problems, share one
# lockstep run (:class:`CompiledProblem`)
ORTHANT_FLOOR = 8
# per relation, the sign that a row's gap b - a'x and a Farkas weight carry
SENSE = {">=": 1.0, "<=": -1.0, "==": 0.0}


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITER = "max_iter"


def _check_finite(values, what):
    """Raise ValueError naming ``what`` unless every number of the
    sequence ``values`` is finite.  On the few numbers of a row family's
    right-hand sides or a cost, ``math.isfinite`` in a loop takes a
    tenth of numpy's call."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what}: non-finite entry")


def _as_hermitian(mats, dim=None, what="matrix"):
    """The Hermitian parts of a stack (..., d, d), or of one matrix, each
    checked to be finite and Hermitian within ``HERMITIAN_TOL`` times its
    largest entry (at least 1); ``dim`` checks d.  An exactly Hermitian
    stack, such as the channel outer products, is its own Hermitian part
    and comes back as it is."""
    mats = np.asarray(mats)
    if dim is not None and mats.shape[-2:] != (dim, dim):
        raise ValueError(
            f"{what}: expected shape {(dim, dim)}, got {mats.shape[-2:]}")
    if not np.isfinite(mats).all():
        raise ValueError(f"{what}: non-finite entry")
    adjoint = mats.conj().swapaxes(-1, -2)
    if (mats == adjoint).all():
        return mats
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    if (np.abs(mats - adjoint).max(axis=(-2, -1))
            > HERMITIAN_TOL * scale).any():
        raise ValueError(f"{what}: matrix is not Hermitian")
    return 0.5 * (mats + adjoint)


@dataclass
class MatrixVar:
    dim: int
    complex: bool = True
    name: str = ""


@dataclass(frozen=True)
class RowFamily:
    """The rows of one :meth:`ConicProblem.add_constraints` call, the
    problem's rows ``start`` on: their relation, right-hand sides and
    labels, and per variable the (rows, coefficients) of the rows that
    read it, rows an index array counted from ``start``: a (len(rows),
    d, d) stack F per matrix variable in ``matrix``, a list of floats
    per scalar in ``scalars``.  No row appears twice in one stack.  The
    stacks are read whole (:meth:`ConicProblem.row_terms`)."""
    start: int
    relation: str
    rhs: tuple
    labels: tuple
    matrix: dict
    scalars: dict


@dataclass
class ConicProblem:
    """Builder for one conic program instance.  Its rows are kept as
    :class:`RowFamily` stacks, one per :meth:`add_constraints` call, in
    row order; :meth:`row_terms` evaluates them a family at a time."""

    matrix_vars: list = field(default_factory=list)
    num_scalars: int = 0
    scalar_names: list = field(default_factory=list)
    obj_matrix: dict = field(default_factory=dict)
    obj_scalar: dict = field(default_factory=dict)
    obj_scalar_quad: dict = field(default_factory=dict)
    families: list = field(default_factory=list)
    # an :class:`Iterate` of an earlier solve to start from, or None for
    # the cold start
    start: object = None
    # a :class:`CompiledProblem` of a problem with these coefficients
    # (``conic.compile_once``), from which a solve derives this one's at
    # its own right-hand sides and linear costs; None, also in a copy by
    # ``dataclasses.replace``, compiles it anew
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)
    # per matrix variable, a basis Q (n, dim) with orthonormal columns
    # when the variable X stands for Q X Q^H of a larger space, else None
    # (``power_min.covariances`` lifts); a solve never reads it
    bases: list = field(default=None, repr=False, compare=False)

    def add_psd_var(self, dim, complex=True, name=""):
        if dim < 1:
            raise ValueError("PSD variable dimension must be >= 1")
        self.matrix_vars.append(MatrixVar(int(dim), bool(complex), name))
        return len(self.matrix_vars) - 1

    def add_scalar_var(self, name=""):
        self.num_scalars += 1
        self.scalar_names.append(name)
        return self.num_scalars - 1

    def _coeffs(self, i, mats, what):
        """Matrix variable i's validated coefficients from a stack."""
        if not 0 <= i < len(self.matrix_vars):
            raise ValueError(f"no matrix variable {i}")
        var = self.matrix_vars[i]
        herm = _as_hermitian(mats, var.dim, what)
        if not var.complex and np.abs(np.imag(herm)).max(initial=0.0) > 0:
            raise ValueError(f"{what}: complex coefficient for a real "
                             "matrix variable")
        return np.real(herm) if not var.complex else herm

    def set_objective(self, matrix=None, scalar=None, scalar_quad=None):
        """Minimize sum_i Tr(C_i X_i) + sum_j (c_j y_j + q_j y_j^2)."""
        if matrix:
            for i, C in matrix.items():
                self.obj_matrix[i] = self._coeffs(
                    i, [C], f"objective[{i}]")[0]
        if scalar:
            for j, v in scalar.items():
                self._check_scalar(j)
                _check_finite((v,), f"objective scalar[{j}]")
                self.obj_scalar[j] = float(v)
        if scalar_quad:
            for j, v in scalar_quad.items():
                self._check_scalar(j)
                _check_finite((v,), f"objective scalar_quad[{j}]")
                if v < 0:
                    raise ValueError("quadratic coefficients must be >= 0")
                self.obj_scalar_quad[j] = float(v)

    def add_constraint(self, matrix=None, scalars=None, rel=">=", rhs=0.0,
                       label=None):
        """Add the row sum_i Tr(F_i X_i) + sum_j a_j y_j ``rel`` ``rhs``
        from ``matrix`` {i: F_i} and ``scalars`` {j: a_j}; returns its
        index.  The one-row case of :meth:`add_constraints`."""
        return self.add_constraints(
            matrix={i: ([0], [F]) for i, F in (matrix or {}).items()},
            scalars={j: ([0], [a]) for j, a in (scalars or {}).items()},
            rel=rel, rhs=[rhs], labels=[label])

    def add_constraints(self, matrix=None, scalars=None, rel=">=", rhs=(),
                        labels=None):
        """Add one row family (:class:`RowFamily`), a row per entry of
        ``rhs``, all of relation ``rel``, from stacked coefficients:
        ``matrix`` maps a matrix variable i to (rows, F), the positions
        among the new rows of those that read X_i and their (len(rows),
        d, d) stack of coefficients, and ``scalars`` maps a scalar
        variable j to (rows, a) in the same way.  Each stack is validated
        once and kept whole.  ``labels`` gives the rows' labels in order
        (default None).  Returns the index of the first row."""
        if rel not in SENSE:
            raise ValueError(f"unknown relation {rel!r}")
        rhs = tuple(float(v) for v in rhs)
        _check_finite(rhs, "rhs")
        labels = (None,) * len(rhs) if labels is None else tuple(labels)
        if len(labels) != len(rhs):
            raise ValueError(f"{len(labels)} labels for {len(rhs)} rows")
        first = sum(len(fam.rhs) for fam in self.families)
        self.families.append(RowFamily(first, rel, rhs, labels, *self._stacks(
            matrix, scalars, len(rhs))))
        return first

    def _stacks(self, matrix, scalars, m):
        """The validated (rows, coefficients) per variable of a family of
        m rows, from :meth:`add_constraints`' ``matrix`` and
        ``scalars``."""
        mats, scals = {}, {}
        for i, (rows, F) in (matrix or {}).items():
            F = self._coeffs(i, F, f"constraint coeff[{i}]")
            mats[i] = (self._positions(rows, m, F), F)
        for j, (rows, a) in (scalars or {}).items():
            self._check_scalar(j)
            a = np.asarray(a, dtype=float).tolist()
            scals[j] = (self._positions(rows, m, a), a)
            _check_finite(a, f"constraint scalar coeff[{j}]")
        return mats, scals

    def updated(self, rhs=(), scalar=None, coeffs=None):
        """A copy at new right-hand sides ``rhs`` of the first
        ``len(rhs)`` rows, new linear scalar costs ``scalar`` ({j: c_j})
        and new coefficients ``coeffs`` {f: (matrix, scalars)} of family
        f, in the form of :meth:`add_constraints`.  It shares every other
        family's coefficients, and ``compiled`` unless ``coeffs`` are
        given.  More right-hand sides than rows raise ValueError."""
        rhs, coeffs, families = [float(v) for v in rhs], coeffs or {}, []
        _check_finite(rhs, "rhs")
        m = sum(len(fam.rhs) for fam in self.families)
        if len(rhs) > m:
            raise ValueError(f"{len(rhs)} right-hand sides for {m} rows")
        for f, fam in enumerate(self.families):
            changes = dict(zip(("matrix", "scalars"), self._stacks(
                *coeffs[f], len(fam.rhs)))) if f in coeffs else {}
            head = rhs[fam.start:fam.start + len(fam.rhs)]
            if head:
                changes["rhs"] = tuple(head) + fam.rhs[len(head):]
            families.append(replace(fam, **changes) if changes else fam)
        new = object.__new__(ConicProblem)
        new.__dict__.update(self.__dict__, obj_scalar=dict(self.obj_scalar),
                            families=families,
                            compiled=None if coeffs else self.compiled)
        new.set_objective(scalar=scalar)
        return new

    @staticmethod
    def _positions(rows, m, coeffs):
        """Row positions as an index array, checked to lie in 0..m-1, to
        differ and to pair off with ``coeffs``."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and not 0 <= rows.min() <= rows.max() < m:
            raise ValueError(f"row positions {rows} outside 0..{m - 1}")
        if len(set(rows.tolist())) < len(rows):
            raise ValueError(f"repeated row positions {rows}")
        if len(rows) != len(coeffs):
            raise ValueError(f"{len(rows)} row positions for "
                             f"{len(coeffs)} coefficients")
        return rows

    def _check_scalar(self, j):
        if not 0 <= j < self.num_scalars:
            raise ValueError(f"no scalar variable {j}")

    def constraint_index(self, label):
        for fam in self.families:
            if label in fam.labels:
                return fam.start + fam.labels.index(label)
        raise KeyError(f"no constraint labeled {label!r}")

    def num_vars(self):
        return len(self.matrix_vars) + self.num_scalars

    def sense(self):
        """Each row's :data:`SENSE`, in row order."""
        return np.array([SENSE[fam.relation] for fam in self.families
                         for _ in fam.rhs])

    def rhs(self):
        """Each row's right-hand side, in row order."""
        return np.array([b for fam in self.families for b in fam.rhs])

    def row_terms(self, matrix_values, scalar_values=None):
        """The rows' terms at a stack of points, (..., m, n + 1) for m
        rows and n matrix variables: column i holds Tr(F_i X_i), 0 where
        a row does not read X_i, and the last the scalar terms sum_j a_j
        y_j.  ``matrix_values`` holds one (..., d, d) stack per matrix
        variable, ``scalar_values`` is (..., num_scalars), or None when
        no row reads a scalar.  One contraction per family and variable."""
        lead = np.shape(matrix_values[0])[:-2] if matrix_values \
            else np.shape(scalar_values)[:-1]
        m = sum(len(fam.rhs) for fam in self.families)
        out = np.zeros(lead + (m, len(self.matrix_vars) + 1))
        for fam in self.families:
            part = out[..., fam.start:fam.start + len(fam.rhs), :]
            for i, (rows, F) in fam.matrix.items():
                part[..., rows, i] = np.einsum(
                    "rjk,...kj->...r", F, matrix_values[i]).real
            for j, (rows, a) in fam.scalars.items():
                part[..., rows, -1] += np.multiply.outer(
                    scalar_values[..., j], a)
        return out

    def evaluate_objective(self, matrix_values, scalar_values):
        val = 0.0
        for i, C in self.obj_matrix.items():
            val += float(np.real(np.trace(C @ matrix_values[i])))
        for j, c in self.obj_scalar.items():
            val += c * float(scalar_values[j])
        for j, q in self.obj_scalar_quad.items():
            val += q * float(scalar_values[j]) ** 2
        return val


@dataclass
class Iterate:
    """A solve's final interior-point iterate (x, y, z)/tau in source
    units, which a later problem of the same ``shape`` may start from.

    The compiled rows carry data-dependent scales (``row_scale``), so
    the entries they touch are stored without them: ``y`` holds the
    signed user multipliers and the slack entries of ``x`` and ``z``
    have the row scale divided out
    (:meth:`CompiledProblem.source_iterate`).
    """
    shape: tuple
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class ConicSolution:
    status: SolveStatus
    matrix_values: list = None
    scalar_values: np.ndarray = None
    duals: np.ndarray = None
    objective: float = None
    kkt: dict = field(default_factory=dict)
    certificate: dict = None
    iterations: int = 0
    # how often each silent numerical fallback fired during the solve:
    # chol_jitter (cone blocks factored with jitter), schur_ridge and
    # schur_pinv (Schur complements factored with a ridge / pseudo-inverse);
    # a solve with an identically zero objective also reports point_stop
    # and farkas_stop, 1 when a verified feasible point or Farkas
    # certificate ended it early; warm_start is 1 when the solve started
    # from its problem's ``start``
    stats: dict = field(default_factory=dict)
    # the final :class:`Iterate`, a start for a later solve
    iterate: Iterate = None
    # wall seconds: this solution's share, by problem count, of the
    # solve_batch call that returned it
    time_s: float = 0.0


class CompiledProblem:
    """Standard form min c'x + x'Qx/2 s.t. Ax = b, x in K (real packed
    data).

    Each complex variable is one Hermitian block carrying its
    coefficients halved, so that packed inner products (twice the real
    trace) keep objective and constraint values.  Inequalities get one
    orthant slack each; rows are scaled by the inverse max-abs
    coefficient of the row as it reads under the real 2d x 2d embedding
    of its Hermitian blocks, so a problem and its embedding take the
    same path.
    ``row_scale`` maps internal equality multipliers back to user-space
    duals.  ``A_blocks`` holds the PSD part of the scaled rows as one
    (m, k, d, d) stack per run of the layout; the PSD columns of ``A``
    are its packing.  ``shape`` is the layout and row count, which the
    problems of one lockstep batch share.
    Each row family's stacks go into the rows whole.  The unscaled rows
    and their max-abs values are built once, and :meth:`updated` shares
    them with a problem that differs only in its right-hand sides and
    linear scalar costs.

    A problem with a nonzero objective and an orthant of fewer than
    :data:`ORTHANT_FLOOR` entries gets ``n_pad`` pad entries after its
    slacks, up to the floor: zero cost, zero columns, held at x = z = 1
    with no direction.  The solver leaves them out of x'z, the barrier
    ``degree``, the dual residual, the complementarity right-hand sides
    and the exits, so they change its path by rounding only.  The first
    ``size`` entries are the problem's own; points, duals and iterates
    carry no pad, and an iterate's ``shape`` is ``own_shape``, the shape
    without pads, which a problem and its start share.
    """

    def __init__(self, problem):
        self.source = problem
        self.sense = problem.sense()
        # the rows with a slack, in the order of their slack columns
        self.slacked = np.flatnonzero(self.sense)
        self.n_slack = len(self.slacked)
        own = problem.num_scalars + self.n_slack
        objective = any(np.any(C) for C in problem.obj_matrix.values()) \
            or any(problem.obj_scalar.values()) \
            or any(problem.obj_scalar_quad.values())
        self.n_pad = max(0, ORTHANT_FLOOR - own) if objective else 0
        self.layout = ConeLayout.of(
            tuple(v.dim for v in problem.matrix_vars), own + self.n_pad,
            tuple(v.complex for v in problem.matrix_vars))
        lay = self.layout
        self.scalar_off = lay.nn_offset
        self.slack_off = lay.nn_offset + problem.num_scalars
        self.size = lay.size - self.n_pad
        self.degree = lay.degree - self.n_pad

        # its scalar costs are set with the right-hand sides (_scale)
        self.c = self._pack(1, [(0, {i: (np.array([0]), C[None]) for i, C in
                                     problem.obj_matrix.items()}, {})])[0][0]
        self.qdiag = np.zeros(lay.nonneg)
        for j, q in problem.obj_scalar_quad.items():
            self.qdiag[j] = 2.0 * q  # objective carries q*y^2 = (1/2) x'Qx

        m = len(self.sense)
        self.rows, self.blocks = self._pack(m, [
            (fam.start, fam.matrix, fam.scalars) for fam in problem.families])
        # a Hermitian block's packed entries are sqrt(2) times those of
        # its embedding
        embedded = np.ones(lay.size)
        for run in lay.runs:
            if run.complex:
                embedded[run.span] = 1.0 / np.sqrt(2.0)
        self.row_max = (np.abs(self.rows) * embedded).max(axis=1)
        self.shape = (lay.psd_dims, lay.psd_complex, lay.nonneg, m)
        self.own_shape = (lay.psd_dims, lay.psd_complex, own, m)
        self._scale()

    def updated(self, source):
        """This compiled form of ``source``, a problem with this one's
        coefficients at other right-hand sides or linear scalar costs
        (:meth:`ConicProblem.updated`).  It shares this compile's rows
        and scales them anew; the arrays this compile holds are never
        written, so several updates of it can be solved at once."""
        new = copy.copy(self)
        new.source, new.c = source, self.c.copy()
        new._scale()
        return new

    def _scale(self):
        """Scaled rows, ``b`` and ``c`` at the source's right-hand sides
        and linear scalar costs."""
        for j, a in self.source.obj_scalar.items():
            self.c[self.scalar_off + j] = a
        rhs = self.source.rhs()
        norm = np.maximum(self.row_max, np.abs(rhs))
        scale = np.where(norm > 1.0, 1.0 / norm, 1.0)
        self.A = self.rows * scale[:, None]
        self.A_blocks = [blk * scale[:, None, None, None]
                         for blk in self.blocks]
        self.b = rhs * scale
        self.row_scale = scale
        self.A[self.slacked, self.slack_off + np.arange(self.n_slack)] = \
            -self.sense[self.slacked]
        # the row scale of each slack column, which multiplies its slack
        self.slack_scale = scale[self.slacked]

    def _pack(self, m, parts):
        """Real standard-form rows (no slacks) of m rows from ``parts``,
        (start, matrix, scalars) triples of :class:`RowFamily` data, and
        their PSD part as one (m, k, d, d) stack per run."""
        lay = self.layout
        rows = np.zeros((m, lay.size))
        stacks = [np.zeros((m, run.count, run.dim, run.dim), run.dtype)
                  for run in lay.runs]
        # each matrix variable's run, by its stack, and place in the run
        place = {run.first + j: (stack, j, run.complex)
                 for run, stack in zip(lay.runs, stacks)
                 for j in range(run.count)}
        for start, matrix, scalars in parts:
            for i, (at, F) in matrix.items():
                stack, j, complex_ = place[i]
                stack[start + at, j] = 0.5 * F if complex_ else np.real(F)
            for j, (at, a) in scalars.items():
                rows[start + at, self.scalar_off + j] = a
        for run, stack in zip(lay.runs, stacks):
            rows[:, run.span] = svec(stack).reshape(
                m, run.span.stop - run.span.start)
        return rows, stacks

    def user_duals(self, y_internal):
        """Map internal equality multipliers to per-constraint duals.

        Convention: >= and == rows report d(optimum)/d(rhs); <= rows
        report the nonnegative multiplier whose sensitivity is
        -d(optimum)/d(rhs).
        """
        v = y_internal * self.row_scale
        return np.where(self.sense < 0, -v, v)

    def user_duals_signed(self, y_internal):
        """Raw signed multipliers (no <= flip), for Farkas combinations."""
        return y_internal * self.row_scale

    def source_iterate(self, x, y, z):
        """The :class:`Iterate` of internal (x, y, z), in source units
        and without pads."""
        x, z = x[:self.size].copy(), z[:self.size].copy()
        x[self.slack_off:] /= self.slack_scale
        z[self.slack_off:] *= self.slack_scale
        return Iterate(self.own_shape, x, self.user_duals_signed(y), z)

    def start_point(self):
        """The source problem's ``start`` in internal units as (x, y, z),
        pads at 1, or None without one; raises ValueError when the start
        has another shape."""
        start = self.source.start
        if start is None:
            return None
        if start.shape != self.own_shape:
            raise ValueError(f"start of shape {start.shape} for a problem "
                             f"of shape {self.own_shape}")
        x, z = (np.concatenate([v, np.ones(self.n_pad)])
                for v in (start.x, start.z))
        x[self.slack_off:self.size] *= self.slack_scale
        z[self.slack_off:self.size] /= self.slack_scale
        return x, start.y / self.row_scale, z

    def extract_point(self, x):
        """Split an internal point into user matrix/scalar values."""
        mats = [self.layout.psd_block(x, i)
                for i in range(len(self.source.matrix_vars))]
        scalars = x[self.scalar_off:self.scalar_off +
                    self.source.num_scalars].copy()
        return mats, scalars


def dump_problem(problem):
    """Self-describing text dump for offline cross-checking."""
    lines = ["conic-problem"]
    for i, var in enumerate(problem.matrix_vars):
        kind = "hermitian" if var.complex else "symmetric"
        lines.append(f"psd-var {i} dim {var.dim} {kind} {var.name}")
    lines.append(f"scalar-vars {problem.num_scalars}")

    def mat_entries(tag, i, M):
        out = []
        for r in range(M.shape[0]):
            for ccol in range(r, M.shape[1]):
                v = M[r, ccol]
                if v != 0:
                    out.append(f"  {tag} {i} [{r},{ccol}] "
                               f"{np.real(v):.17g} {np.imag(v):.17g}")
        return out

    lines.append("objective minimize")
    for i, C in sorted(problem.obj_matrix.items()):
        lines.extend(mat_entries("trace", i, C))
    for j, v in sorted(problem.obj_scalar.items()):
        lines.append(f"  scalar {j} {v:.17g}")
    for j, v in sorted(problem.obj_scalar_quad.items()):
        lines.append(f"  scalar-quad {j} {v:.17g}")
    for fam in problem.families:
        for r, (rhs, label) in enumerate(zip(fam.rhs, fam.labels)):
            lines.append(f"constraint {fam.start + r} rel {fam.relation} "
                         f"rhs {rhs:.17g} label {label!r}")
            for i, (rows, F) in sorted(fam.matrix.items()):
                for k in np.flatnonzero(rows == r):
                    lines.extend(mat_entries("trace", i, F[k]))
            for j, (rows, a) in sorted(fam.scalars.items()):
                for k in np.flatnonzero(rows == r):
                    lines.append(f"  scalar {j} {a[k]:.17g}")
    return "\n".join(lines) + "\n"
