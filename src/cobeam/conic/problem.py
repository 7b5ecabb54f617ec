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
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .cones import ConeLayout, svec

HERMITIAN_TOL = 1e-10


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITER = "max_iter"


def _as_hermitian(mat, dim, what):
    mat = np.asarray(mat)
    if mat.shape != (dim, dim):
        raise ValueError(
            f"{what}: expected shape {(dim, dim)}, got {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() > HERMITIAN_TOL * scale:
        raise ValueError(f"{what}: matrix is not Hermitian")
    return 0.5 * (mat + mat.conj().T)


@dataclass
class MatrixVar:
    dim: int
    complex: bool = True
    name: str = ""


@dataclass
class Constraint:
    matrix_coeffs: dict
    scalar_coeffs: dict
    relation: str          # one of "<=", ">=", "=="
    rhs: float
    label: object = None


@dataclass
class ConicProblem:
    """Builder for one conic program instance."""

    matrix_vars: list = field(default_factory=list)
    num_scalars: int = 0
    scalar_names: list = field(default_factory=list)
    obj_matrix: dict = field(default_factory=dict)
    obj_scalar: dict = field(default_factory=dict)
    obj_scalar_quad: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)
    # an :class:`Iterate` of an earlier solve to start from, or None for
    # the cold start
    start: object = None
    # a :class:`CompiledProblem` of a problem with these coefficients
    # (``conic.compile_once``), from which a solve derives this one's at
    # its own right-hand sides and linear costs; None, also in a copy by
    # ``dataclasses.replace``, compiles it anew
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)

    def add_psd_var(self, dim, complex=True, name=""):
        if dim < 1:
            raise ValueError("PSD variable dimension must be >= 1")
        self.matrix_vars.append(MatrixVar(int(dim), bool(complex), name))
        return len(self.matrix_vars) - 1

    def add_scalar_var(self, name=""):
        self.num_scalars += 1
        self.scalar_names.append(name)
        return self.num_scalars - 1

    def _coeff(self, i, mat, what):
        var = self.matrix_vars[i]
        herm = _as_hermitian(mat, var.dim, what)
        if not var.complex and np.abs(np.imag(herm)).max() > 0:
            raise ValueError(f"{what}: complex coefficient for a real "
                             "matrix variable")
        return np.real(herm) if not var.complex else herm

    def set_objective(self, matrix=None, scalar=None, scalar_quad=None):
        """Minimize sum_i Tr(C_i X_i) + sum_j (c_j y_j + q_j y_j^2)."""
        if matrix:
            for i, C in matrix.items():
                self.obj_matrix[i] = self._coeff(i, C, f"objective[{i}]")
        if scalar:
            for j, v in scalar.items():
                self._check_scalar(j)
                self.obj_scalar[j] = float(v)
        if scalar_quad:
            for j, v in scalar_quad.items():
                self._check_scalar(j)
                if v < 0:
                    raise ValueError("quadratic coefficients must be >= 0")
                self.obj_scalar_quad[j] = float(v)

    def add_constraint(self, matrix=None, scalars=None, rel=">=", rhs=0.0,
                       label=None):
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        mcoef = {}
        if matrix:
            for i, F in matrix.items():
                if not 0 <= i < len(self.matrix_vars):
                    raise ValueError(f"no matrix variable {i}")
                mcoef[i] = self._coeff(i, F, f"constraint coeff[{i}]")
        scoef = {}
        if scalars:
            for j, a in scalars.items():
                self._check_scalar(j)
                scoef[j] = float(a)
        self.constraints.append(
            Constraint(mcoef, scoef, rel, float(rhs), label))
        return len(self.constraints) - 1

    def updated(self, rhs=(), scalar=None):
        """A copy at new right-hand sides ``rhs`` of the first
        ``len(rhs)`` constraints and new linear scalar costs ``scalar``
        ({j: c_j}), sharing every coefficient and ``compiled``."""
        new = replace(self, obj_scalar=dict(self.obj_scalar), constraints=[
            replace(con, rhs=float(value))
            for con, value in zip(self.constraints, rhs)]
            + self.constraints[len(rhs):])
        new.set_objective(scalar=scalar)
        new.compiled = self.compiled
        return new

    def _check_scalar(self, j):
        if not 0 <= j < self.num_scalars:
            raise ValueError(f"no scalar variable {j}")

    def constraint_index(self, label):
        for k, con in enumerate(self.constraints):
            if con.label == label:
                return k
        raise KeyError(f"no constraint labeled {label!r}")

    def num_vars(self):
        return len(self.matrix_vars) + self.num_scalars

    def evaluate_constraint(self, k, matrix_values, scalar_values):
        """Left-hand-side value of constraint k at the given point."""
        con = self.constraints[k]
        val = 0.0
        for i, F in con.matrix_coeffs.items():
            val += float(np.real(np.trace(F @ matrix_values[i])))
        for j, a in con.scalar_coeffs.items():
            val += a * float(scalar_values[j])
        return val

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
    problems of one lockstep batch share, and a problem and its start.
    The unscaled rows and their max-abs values are built once, and
    :meth:`updated` shares them with a problem that differs only in its
    right-hand sides and linear scalar costs.
    """

    def __init__(self, problem):
        self.source = problem
        cons = problem.constraints
        # the rows with a slack, in the order of their slack columns
        self.slacked = [k for k, con in enumerate(cons)
                        if con.relation != "=="]
        self.n_slack = len(self.slacked)
        self.layout = ConeLayout.of(
            tuple(v.dim for v in problem.matrix_vars),
            problem.num_scalars + self.n_slack,
            tuple(v.complex for v in problem.matrix_vars))
        lay = self.layout
        self.scalar_off = lay.nn_offset
        self.slack_off = lay.nn_offset + problem.num_scalars

        c_rows, _ = self._rows([problem.obj_matrix], [problem.obj_scalar])
        self.c = c_rows[0]
        self.qdiag = np.zeros(problem.num_scalars + self.n_slack)
        for j, q in problem.obj_scalar_quad.items():
            self.qdiag[j] = 2.0 * q  # objective carries q*y^2 = (1/2) x'Qx

        self.rows, self.blocks = self._rows(
            [con.matrix_coeffs for con in cons],
            [con.scalar_coeffs for con in cons])
        # a Hermitian block's packed entries are sqrt(2) times those of
        # its embedding
        embedded = np.ones(lay.size)
        for run in lay.runs:
            if run.complex:
                embedded[run.span] = 1.0 / np.sqrt(2.0)
        self.row_max = (np.abs(self.rows) * embedded).max(axis=1)
        self.shape = (lay.psd_dims, lay.psd_complex, lay.nonneg, len(cons))
        self._scale()

    def updated(self, source):
        """This compiled form of ``source``, a problem with the same
        coefficients bar its right-hand sides and linear scalar costs."""
        new = copy.copy(self)
        new.source, new.c = source, self.c.copy()
        new._scale()
        return new

    def _scale(self):
        """Scaled rows, ``b`` and ``c`` at the source's right-hand sides
        and linear scalar costs."""
        cons = self.source.constraints
        for j, a in self.source.obj_scalar.items():
            self.c[self.scalar_off + j] = a
        rhs = np.array([con.rhs for con in cons], dtype=float)
        norm = np.maximum(self.row_max, np.abs(rhs))
        scale = np.where(norm > 1.0, 1.0 / norm, 1.0)
        self.A = self.rows * scale[:, None]
        self.A_blocks = [blk * scale[:, None, None, None]
                         for blk in self.blocks]
        self.b = rhs * scale
        self.row_scale = scale
        for col, k in enumerate(self.slacked, self.slack_off):
            self.A[k, col] = -1.0 if cons[k].relation == ">=" else 1.0
        # the row scale of each slack column, which multiplies its slack
        self.slack_scale = scale[self.slacked]

    def _rows(self, matrix_coeffs, scalar_coeffs):
        """Real standard-form rows of the given coefficient dicts (no
        slacks), and their PSD part as one (m, k, d, d) stack per run."""
        lay = self.layout
        m = len(matrix_coeffs)
        rows = np.zeros((m, lay.size))
        stacks = []
        for run in lay.runs:
            stack = np.zeros((m, run.count, run.dim, run.dim), run.dtype)
            for j in range(run.count):
                i = run.first + j
                have = [k for k, coeffs in enumerate(matrix_coeffs)
                        if i in coeffs]
                if have:
                    coeffs = np.array([matrix_coeffs[k][i] for k in have])
                    stack[have, j] = 0.5 * coeffs if run.complex \
                        else np.real(coeffs)
            rows[:, run.span] = svec(stack).reshape(
                m, run.span.stop - run.span.start)
            stacks.append(stack)
        for k, coeffs in enumerate(scalar_coeffs):
            for j, a in coeffs.items():
                rows[k, self.scalar_off + j] = a
        return rows, stacks

    def user_duals(self, y_internal):
        """Map internal equality multipliers to per-constraint duals.

        Convention: >= and == rows report d(optimum)/d(rhs); <= rows
        report the nonnegative multiplier whose sensitivity is
        -d(optimum)/d(rhs).
        """
        duals = np.empty(len(self.source.constraints))
        for k, con in enumerate(self.source.constraints):
            v = y_internal[k] * self.row_scale[k]
            duals[k] = -v if con.relation == "<=" else v
        return duals

    def user_duals_signed(self, y_internal):
        """Raw signed multipliers (no <= flip), for Farkas combinations."""
        return y_internal * self.row_scale

    def source_iterate(self, x, y, z):
        """The :class:`Iterate` of internal (x, y, z), in source units."""
        x, z = x.copy(), z.copy()
        x[self.slack_off:] /= self.slack_scale
        z[self.slack_off:] *= self.slack_scale
        return Iterate(self.shape, x, self.user_duals_signed(y), z)

    def start_point(self):
        """The source problem's ``start`` in internal units as (x, y, z),
        or None without one; raises ValueError when the start has
        another shape."""
        start = self.source.start
        if start is None:
            return None
        if start.shape != self.shape:
            raise ValueError(f"start of shape {start.shape} for a problem "
                             f"of shape {self.shape}")
        x, z = start.x.copy(), start.z.copy()
        x[self.slack_off:] *= self.slack_scale
        z[self.slack_off:] /= self.slack_scale
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
    for k, con in enumerate(problem.constraints):
        lines.append(f"constraint {k} rel {con.relation} "
                     f"rhs {con.rhs:.17g} label {con.label!r}")
        for i, F in sorted(con.matrix_coeffs.items()):
            lines.extend(mat_entries("trace", i, F))
        for j, a in sorted(con.scalar_coeffs.items()):
            lines.append(f"  scalar {j} {a:.17g}")
    return "\n".join(lines) + "\n"
