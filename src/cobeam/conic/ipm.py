"""Dense primal-dual interior-point solver.

One Nesterov-Todd path-following loop on a homogeneous self-dual
embedding solves every problem.  It produces Farkas certificates for
infeasible instances and rays for unbounded ones.  Diagonal quadratic
objective terms on scalars ride in the embedding itself, as in Clarabel
(Goulart & Chen, arXiv:2405.12762): the tau row carries x'Qx/tau, and
the quadratic augments the diagonal of the Newton system.

The loop runs Mehrotra predictor-corrector steps.  The reduced Newton
system goes through a dense Schur complement, with no refinement of its
own.  The affine predictor only picks the centering weight and the
second-order term, so it is one unrefined pass left in scaled
coordinates.  It and the corrector's first pass take the scaled dual
residual W'r2 as the scaling's own terms form it
(:func:`_scaled_dual_residual`), with no congruence.  The predictor's
direction has dzs = -lam - dxs on every PSD block, so one eigensolve
per block bounds its step on both sides: the least
and largest eigenvalues of lam^-1/2 dxs lam^-1/2 give the primal and
the dual bound (``NTScaling.max_step``).  The corrector, the direction
the step takes, is polished by iterative refinement at the full KKT
level, where residuals only need matrix-vector products and single
scaling applications, so it stays accurate far below the current
duality gap.  As in Clarabel, a
problem refines only while its residual is at least ``DEFAULT_TOL``
times its right-hand side's norm.

A problem whose objective is identically zero only asks whether its
constraints are feasible, so the loop stops at an iterate's first
feasible point (:func:`_feasible_point`: a cheap compiled pre-check,
then :func:`point_violation`) or Farkas certificate (:func:`_certified`:
y clipped to its signs, then :func:`verify_infeasibility_certificate`).
Both read the right-hand sides and senses each compile holds, per
problem, and the rows' per-variable gathers (``ConicProblem.gathers``).
A problem's ``updated`` copies share its gathers and the compile of the
first solve among them, which each later solve rescales.

Every solution carries its final iterate, and a problem may start from
an earlier one (``ConicProblem.start``), as in Skajaa, Andersen & Ye
(Math. Prog. Comp. 2013): x and z at the convex combination
``WARM_WEIGHT`` of the earlier iterate with the cold start, y at
``WARM_WEIGHT`` times the earlier y, tau = 1 and kappa centred against
x'z.  A problem without a start starts cold.

The iterations' floating-point operations, their operands and their
order are fixed.  The loop runs a lockstep batch of problems of one
shape (:func:`solve_batch`; a lone :func:`solve` is a batch of one):
every iterate and every datum carries a leading problem axis, also for
a lone problem, and per-problem scalars are lists.  The loop stacks
only operations that give every problem the bits of its own call, as
``tools/solve_digest.py``, ``tests/test_conic.py`` and the frozen
kernel in ``tests/test_cones.py`` check.  A batch may mix problems with
and without quadratic terms: one without has a zero quadratic, whose
terms add zero and whose inverse Newton diagonal is 1.

A problem with an objective and fewer than ``problem.ORTHANT_FLOOR``
= 8 orthant entries compiles with inert pads up to the floor
(:class:`CompiledProblem`), so that a round's PD subproblems share the
shape of its ADMM local problems.  A pad has zero cost and no row.  The
loop holds it at x = z = 1 with no direction and leaves it out of x'z,
mu, sigma and the barrier degree, which stays each problem's own.  The
dual residual, both complementarity right-hand sides and the
infeasibility and ray exits leave it out too.
"""

import copy
import math
import operator
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from ..errors import IndeterminateError
from .cones import NTScaling
from .problem import CompiledProblem, ConicSolution, SolveStatus

DEFAULT_TOL = 1e-8
ACCEPT_TOL = 1e-7
FARKAS_MARGIN = 1e-8
CERTIFICATE_SIGN_TOL = 1e-6
# a Farkas aggregate counts as nonpositive on the cone when its top
# eigenvalue (or scalar value) is at most this multiple of
# sum_k |w_k| ||F_k||_F, the rounding error of forming and factoring it:
# an exactly semidefinite, rank-deficient aggregate computes to +1e-17
# as often as to -1e-17
AGGREGATE_ROUNDOFF = 100 * np.finfo(float).eps
MAX_ITER = 200
STEP_FRACTION = 0.99
# the most refinement passes of a corrector; the predictor takes none
REFINE_STEPS = 2
# the weight of the earlier iterate in a warm start
WARM_WEIGHT = 0.99

# LAPACK Cholesky pair for the Schur complement, looked up once: scipy's
# cho_factor/cho_solve wrappers re-check finiteness on every call
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"),
                                      (np.empty(0),))


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


# Dot products and matrix-vector products per problem along any leading
# axes (np.vecdot, np.matvec): each problem gets the BLAS call (dot,
# gemv) of its own 1-D ``u @ v``, all in one C call.


def _dot(u, v):
    """Per-problem dot products of (P, n) rows as a list of floats."""
    return np.vecdot(u, v).tolist()


def _col(values):
    """Per-problem scalars as a column that scales (P, n) rows."""
    return np.array(values)[:, None]


def _where(mask, new, old):
    """Per problem: ``new`` where ``mask``, else ``old``, over sequences
    of (P, n) arrays and of per-problem lists."""
    rows = np.array(mask)[:, None]
    return [[a if go else b for go, a, b in zip(mask, n, o)]
            if isinstance(n, list) else np.where(rows, n, o)
            for n, o in zip(new, old)]


class _Batch:
    """Compiled data of problems with one layout and row count, stacked
    along a leading problem axis, also a lone problem.  ``A_blocks`` and
    ``A_nn`` hold the PSD and orthant parts of the rows, followed by
    those of the cost c when some problem has one (``cost_row``), with
    the row axis first, (m [+ 1], P, k, d, d), so that a batched scaling
    scales them all at once.  ``qdiag`` is the quadratic's diagonal on all
    of x (zero on the PSD part and for a problem without one), None when
    no problem has one.  ``pad`` marks each problem's pad
    entries, None when none has any, and ``deg`` holds each problem's
    own barrier degree plus one, for tau and kappa."""

    def __init__(self, compiled):
        self.layout = compiled[0].layout
        self.A = np.array([c.A for c in compiled])
        self.At = self.A.swapaxes(-1, -2)
        self.b = np.array([c.b for c in compiled])
        self.c = np.array([c.c for c in compiled])
        self.qdiag = self.pad = None
        if any(c.qdiag.any() for c in compiled):
            self.qdiag = np.zeros(self.c.shape)
            self.qdiag[:, self.layout.nn_offset:] = [c.qdiag for c in compiled]
        if any(c.n_pad for c in compiled):
            self.pad = np.zeros(self.c.shape, dtype=bool)
            for row, c in zip(self.pad, compiled):
                row[c.size:] = True
        self.deg = [c.degree + 1 for c in compiled]
        blocks = [np.stack(run, axis=1)
                  for run in zip(*(c.A_blocks for c in compiled))]
        nn = self.layout.nn_block(self.A).swapaxes(0, 1)
        self.cost_row = bool(self.c.any())
        if self.cost_row:
            blocks = [np.concatenate((rows, cost[None])) for rows, cost in
                      zip(blocks, self.layout.unpack(self.c))]
            nn = np.concatenate((nn, self.layout.nn_block(self.c)[None]))
        self.A_blocks, self.A_nn = blocks, nn
        self.nb = [1.0 + np.linalg.norm(c.b) for c in compiled]
        self.nc = [1.0 + np.linalg.norm(c.c) for c in compiled]

    def own(self, v):
        """(P, n) rows ``v`` with every pad entry zeroed."""
        return v if self.pad is None else np.where(self.pad, 0.0, v)

    def take(self, keep):
        """The batch of the problems at positions ``keep``, these stacks
        indexed: a quadratic or pad mask left all zero changes no bits,
        and the cost row leaves with the last cost, as when stacked anew."""
        new = copy.copy(self)
        new.A, new.b, new.c, new.qdiag, new.pad = (
            None if v is None else v.take(keep, axis=0)
            for v in (self.A, self.b, self.c, self.qdiag, self.pad))
        new.At = new.A.swapaxes(-1, -2)
        new.deg, new.nb, new.nc = ([v[p] for p in keep]
                                   for v in (self.deg, self.nb, self.nc))
        new.cost_row = bool(new.c.any())
        rows = len(self.A_nn) - (self.cost_row and not new.cost_row)
        new.A_blocks = [blk[:rows].take(keep, axis=1)
                        for blk in self.A_blocks]
        new.A_nn = self.A_nn[:rows].take(keep, axis=1)
        return new


def _factor_schur(M):
    """(Cholesky factor, None, fallback) of a finite Schur complement,
    ridged if need be, else (None, pseudo-inverse, "schur_pinv")."""
    if not M.size:
        return None, None, None
    ridge = 0.0
    for _ in range(8):
        factor, info = _POTRF(M + ridge * np.eye(len(M)) if ridge else M,
                              lower=1)
        if info == 0:
            return factor, None, "schur_ridge" if ridge > 0 else None
        ridge = max(ridge * 100.0,
                    1e-14 * max(np.abs(np.diag(M)).max(), 1.0))
    return None, np.linalg.pinv(M), "schur_pinv"


class _KktSolver:
    """Solves of the KKT system at the current iterates, in scaled space.

    The embedding of min c'x + x'Qx/2 s.t. Ax = b, x in K (Q the
    diagonal ``qdiag`` on the orthant) asks for x, z in the cone and
    tau, kappa >= 0 with

        A x - b tau = 0,   c tau + Q x - A'y - z = 0,
        b'y - c'x - x'Qx/tau - kappa = 0.

    With tau > 0, xi = x/tau and y/tau are primal and dual feasible and
    their gap c'xi + xi'Q xi - b'y/tau is -kappa/tau, so they are optimal
    once kappa = 0; x'Qx/tau is convex for tau > 0.  Linearized (dkappa
    and dz eliminated analytically), with q = Q xi:

        -A'dy + c dtau + Q dx - dz                       = f2
         A dx - b dtau                                   = f1
         b'dy - (c + 2q)'dx + xi'Q xi dtau - dkappa      = f3
         lam o (W^{-1}dx + W' dz)                        = fs
         tau dkappa + kappa dtau                         = ft

    Rows one and two scaled by W' give the saddle system of
    :meth:`_saddle` in dxs = W^{-1}dx, whose NT Hessian is the identity
    plus the diagonal W'QW (its inverse is ``dinv``).  Its solution is
    affine in dtau, (p1s, u1) + dtau (p2s, u2), so row three with
    dkappa = (ft - kappa dtau)/tau leaves one scalar equation for dtau,
    whose cost is ``c_tau_scaled`` = W'(c + 2q) and whose denominator
    gains xi'Q xi.  Without a quadratic in the batch, ``dinv`` is None
    and the terms of Q are absent; a problem without one in a batch with
    one has ``dinv`` exactly 1 and terms of Q that add zero.

    All elimination happens on scaled quantities (rows W'a_k, directions
    W^{-1}dx, W'dz); no large-norm operator is ever applied to an
    intermediate vector, and full-level iterative refinement stays
    contractive far below the current gap.  Only the corrector is
    refined (:meth:`solve`), which also corrects the error of the
    Schur solve; the predictor is one pass of :meth:`solve_scaled`.

    Scalars are per-problem lists of floats; each problem gets its own
    Schur factorization, fallback and corrector refinement passes.
    """

    def __init__(self, data, scaling, x, tau, kappa):
        self.A, self.b, self.c = data.A, data.b, data.c
        self.At = data.At
        self.scaling = scaling
        self.tau, self.kappa = tau, kappa
        lay = scaling.layout
        # all m scaled rows W'a_k and the scaled cost W'c from one
        # stacked congruence per run, rows first so that each problem's
        # factors broadcast; a slice of the stack has the bits of its own
        # congruence
        scaled = scaling.scale_dual_blocks(data.A_blocks, data.A_nn)
        m = data.b.shape[-1]
        self.at_scaled = np.ascontiguousarray(scaled[:m].swapaxes(0, 1))
        self.at_scaled_t = self.at_scaled.swapaxes(-1, -2)
        # a zero objective, as in every feasibility probe, scales to zero
        self.c_scaled = scaled[m] if data.cost_row else np.zeros_like(data.c)
        self.qdiag, self.dinv = data.qdiag, None
        self.c_tau, self.c_tau_scaled = self.c, self.c_scaled
        self.xqx = [0.0] * len(tau)
        if self.qdiag is not None:
            off, w = lay.nn_offset, scaling.w_nn
            xi = x / _col(tau)
            q2 = 2.0 * self.qdiag * xi
            self.xqx = [0.5 * v for v in _dot(xi, q2)]
            self.c_tau = self.c + q2
            # W' is diagonal on the orthant, where all of q lives
            self.c_tau_scaled = self.c_scaled.copy()
            self.c_tau_scaled[..., off:] += w * q2[..., off:]
            self.dinv = np.ones(data.c.shape)
            self.dinv[..., off:] /= 1.0 + self.qdiag[..., off:] * w ** 2
        self._build_schur()
        self.p2s, self.u2 = self._saddle(-self.c_scaled, self.b)
        self.denom = [k / t + qq - cp + bu for k, t, qq, cp, bu in zip(
            kappa, tau, self.xqx, _dot(self.c_tau_scaled, self.p2s),
            _dot(self.b, self.u2))]

    def _build_schur(self):
        # rows times sqrt(dinv), themselves where dinv is 1: one syrk
        S = self.at_scaled if self.dinv is None \
            else self.at_scaled * np.sqrt(self.dinv)[..., None, :]
        M = S @ S.swapaxes(-1, -2)
        M = _require_finite(0.5 * (M + M.swapaxes(-1, -2)))
        # per problem: its Cholesky factor or pseudo-inverse, and which
        # fallback fired (None, "schur_ridge" or "schur_pinv")
        self._solvers = [_factor_schur(Mp) for Mp in M]
        self.fallback = [s[2] for s in self._solvers]

    def _schur_solve(self, rhs):
        # LAPACK's potrs rejects an empty right-hand side
        if not rhs.size:
            return np.zeros(rhs.shape)
        _require_finite(rhs)
        sols = np.empty(rhs.shape)
        for p, ((factor, pinv, _), r) in enumerate(zip(self._solvers, rhs)):
            sols[p] = pinv @ r if factor is None \
                else _POTRS(factor, r, lower=1)[0]
        return sols

    def _saddle(self, fd_scaled, f_p):
        """Solve (I+D) dxs - (WA')dy = fd_scaled, (AW) dxs = f_p."""
        t = fd_scaled if self.dinv is None else self.dinv * fd_scaled
        dy = self._schur_solve(f_p - np.matvec(self.at_scaled, t))
        dxs = fd_scaled + np.matvec(self.at_scaled_t, dy)
        if self.dinv is not None:
            dxs = self.dinv * dxs
        return dxs, dy

    def solve(self, f2, f1, f3, fs, ft, f2s):
        """The direction for these right-hand sides, polished by
        iterative refinement: the corrector's solve.  Its first pass
        takes ``f2s``, which is W'f2, as given; each refinement pass
        scales its own residual.  A problem stops once its residual
        norm is below ``DEFAULT_TOL`` times its right-hand side's (1e-14
        at the least), or at its first pass that does not lower it;
        later passes give it a zero right-hand side and keep its
        direction.  ``passes`` counts the passes each problem ran."""
        rhs = (f2, f1, f3, fs, ft)
        floor = [max(1e-14, DEFAULT_TOL * n) for n in _hsd_res_norm(rhs)]
        best = self._unscaled(self.solve_scaled(f2s, f1, f3, fs, ft))
        res = self._residual(best, *rhs)
        best_norm = _hsd_res_norm(res)
        live = [not bn < fl for bn, fl in zip(best_norm, floor)]
        self.passes = [0] * len(live)
        for _ in range(REFINE_STEPS):
            if not any(live):
                break
            self.passes = list(map(operator.add, self.passes, live))
            if not all(live):
                res = _where(live, res, [[0.0] * len(live) if isinstance(
                    r, list) else 0.0 for r in res])
            cand = best.plus(self._solve_once(*res))
            res = self._residual(cand, *rhs)
            cand_norm = _hsd_res_norm(res)
            better = [go and not cn >= bn
                      for go, cn, bn in zip(live, cand_norm, best_norm)]
            if all(better):
                best, best_norm = cand, cand_norm
            elif any(better):
                best = _Dir(*_where(better, vars(cand).values(),
                                    vars(best).values()))
                best_norm = [cn if go else bn for go, cn, bn in
                             zip(better, cand_norm, best_norm)]
            live = [go and not bn < fl
                    for go, bn, fl in zip(better, best_norm, floor)]
        return best

    def solve_scaled(self, f2s, f1, f3, fs, ft):
        """One unrefined pass, left in scaled space, for the right-hand
        sides with the dual one already scaled, ``f2s`` = W'f2: the
        direction's dxs, dzs, dy, dtau and dkappa, with dx and dz None.
        Mehrotra's predictor only needs these to pick the centering
        weight and the second-order term."""
        g = self.scaling.jordan_div(fs)
        fd_scaled = f2s + g
        p1s, u1 = self._saddle(fd_scaled, f1)
        dtau, dkappa = [], []
        for f, e, t, k, cp, bu, d in zip(
                f3, ft, self.tau, self.kappa,
                _dot(self.c_tau_scaled, p1s), _dot(self.b, u1),
                self.denom):
            dt = 0.0 if abs(d) < 1e-300 else (f + e / t + cp - bu) / d
            dtau.append(dt)
            dkappa.append((e - k * dt) / t)
        col = _col(dtau)
        dxs = p1s + col * self.p2s
        dy = u1 + col * self.u2
        return _Dir(None, dy, None, dxs, g - dxs, dtau, dkappa)

    def _solve_once(self, f2, f1, f3, fs, ft):
        return self._unscaled(self.solve_scaled(
            self.scaling.scale_dual(f2), f1, f3, fs, ft))

    def _unscaled(self, d):
        d.dx, d.dz = self.scaling.unscale(d.dxs, d.dzs)
        return d

    def _residual(self, sol, f2, f1, f3, fs, ft):
        col = _col(sol.dtau)
        # c dtau - A'dy equals -A'dy + c dtau bit for bit
        r2 = f2 - (self.c * col - np.matvec(self.At, sol.dy) - sol.dz)
        if self.qdiag is not None:
            r2 -= self.qdiag * sol.dx
        r1 = f1 - (np.matvec(self.A, sol.dx) - self.b * col)
        r3, rt = [], []
        for f, e, t, k, dt, dk, qq, bdy, cdx in zip(
                f3, ft, self.tau, self.kappa, sol.dtau, sol.dkappa,
                self.xqx, _dot(self.b, sol.dy), _dot(self.c_tau, sol.dx)):
            r3.append(f - ((bdy - cdx + qq * dt) - dk))
            rt.append(e - (t * dk + k * dt))
        rs = fs - self.scaling.lam_prod(sol.dxs + sol.dzs)
        return r2, r1, r3, rs, rt


@dataclass
class _Dir:
    """A direction: dx, dy, dz, the scaled dxs and dzs, and the
    per-problem lists dtau and dkappa."""
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dxs: np.ndarray
    dzs: np.ndarray
    dtau: list
    dkappa: list

    def plus(self, o):
        return _Dir(self.dx + o.dx, self.dy + o.dy, self.dz + o.dz,
                    self.dxs + o.dxs, self.dzs + o.dzs,
                    list(map(operator.add, self.dtau, o.dtau)),
                    list(map(operator.add, self.dkappa, o.dkappa)))


def _res_norm(vectors):
    """Largest absolute entry over (P, n) residual rows, one per problem."""
    return np.abs(np.concatenate(vectors, axis=-1)).max(axis=-1).tolist()


def _hsd_res_norm(res):
    r2, r1, r3, rs, rt = res
    return [max([top, abs(a), abs(b)])
            for top, a, b in zip(_res_norm((r2, r1, rs)), r3, rt)]


def _scaled_dual_residual(data, kkt, x, y, lam):
    """W'r2 for the dual residual r2 = c tau - A'y - z + Qx, pads zeroed,
    from the terms the KKT solver and its scaling already hold: the
    scaled cost W'c, the scaled rows W'a_k and W'z = lam, plus w_nn Qx
    on the orthant, where W' is the diagonal w_nn and all of Q lives.
    It equals ``scaling.scale_dual(r2)`` up to rounding, without the
    congruences."""
    r2s = kkt.c_scaled * _col(kkt.tau) - np.matvec(kkt.at_scaled_t, y) - lam
    if data.qdiag is not None:
        off = data.layout.nn_offset
        r2s[..., off:] += kkt.scaling.w_nn * (data.qdiag[..., off:]
                                              * x[..., off:])
    return data.own(r2s)


def _max_step_scalar(v, dv):
    return 1e12 if dv >= 0 else -v / dv


def _step_lengths(scaling, d, fraction, tau, kappa, affine=False):
    """Per problem: min(1, fraction * the longest step along direction
    ``d`` that keeps the iterate in the cone and tau and kappa
    nonnegative); a fraction of 1.0 leaves the bound as is.  ``affine``
    marks the predictor's direction (:meth:`NTScaling.max_step`)."""
    return [min(1.0, fraction * min(am, _max_step_scalar(t, dt),
                                    _max_step_scalar(k, dk)))
            for am, t, dt, k, dk in zip(
                scaling.max_step(d.dxs, d.dzs, affine), tau, d.dtau, kappa,
                d.dkappa)]


def _new_stats(warm):
    return {"chol_jitter": 0, "schur_ridge": 0, "schur_pinv": 0,
            "refine_passes": 0, "warm_start": int(warm)}


def _count_fallbacks(members, scaling, kkt):
    if scaling.jitters.any():
        for mem, jitters in zip(members, scaling.jitters.tolist()):
            mem.stats["chol_jitter"] += jitters
    for mem, fallback in zip(members, kkt.fallback):
        if fallback:
            mem.stats[fallback] += 1


def solve(problem):
    """Solve a :class:`ConicProblem`, returning a :class:`ConicSolution`.

    Each Newton step solves its predictor once, unrefined, and refines
    only its corrector; ``stats["refine_passes"]`` sums the corrector's
    refinement passes over the iterations.  This is the one-problem case
    of :func:`solve_batch`.
    """
    return solve_batch([problem])[0]


def solve_batch(problems):
    """Solve several problems in lockstep: the solutions equal
    ``[solve(p) for p in problems]`` bit for bit, in the same order.

    Problems of one compiled shape (cone layout, pads included, and row
    count) share one run of the interior-point loop, their iterates
    stacked along a leading axis; only operations whose stacked form
    gives each problem the bits of its own call are stacked.  Problems
    with and without quadratic terms share a run; one without has a
    zero quadratic, which changes none of its bits.  Pads
    (``problem.ORTHANT_FLOOR``) depend on the problem alone, so its lone
    solve has them too.  Every decision stays per problem, and a
    finished problem leaves the batch.  When several problems would
    raise, the error that surfaces may be another's.  Each solution's
    ``time_s`` is the call's wall time divided by the problem count.
    """
    start = time.perf_counter()
    groups = {}
    for i, problem in enumerate(problems):
        if problem.num_vars() == 0:
            raise ValueError("problem has no variables")
        if "compiled" in problem._derived:
            compiled = problem._derived["compiled"].updated(problem)
        else:   # kept without its source, which would make it a cycle
            compiled = CompiledProblem(problem)
            problem._derived["compiled"] = kept = copy.copy(compiled)
            kept.source = None
        groups.setdefault(compiled.shape, []).append((i, compiled))
    out = [None] * len(problems)
    for members in groups.values():
        sols = _solve_hsd([c for _, c in members])
        for (i, _), sol in zip(members, sols):
            out[i] = sol
    elapsed = time.perf_counter() - start
    for sol in out:
        sol.time_s = elapsed / len(out)
    return out


def feasibility(problem):
    """Solve generator (:mod:`.schedule`) of (feasible, solution) for
    the constraint system of ``problem``, ignoring its objective.

    The solve of the objective-free system stops at an iterate's first
    feasible point or Farkas certificate that direct evaluation confirms
    (:func:`_feasible_point`, :func:`_certified`).  The embedding's own
    criteria may end it first: OPTIMAL at the solver's tolerances, or
    INFEASIBLE on kappa >= tau and ||A'y + z|| <= ACCEPT_TOL b'y, with a
    certificate that no check confirmed.  Any other end raises
    :class:`IndeterminateError`.
    """
    # a copy starts a new store, so an objective-free problem goes as is
    if problem.obj_matrix or problem.obj_scalar or problem.obj_scalar_quad:
        problem = replace(problem, obj_matrix={}, obj_scalar={},
                          obj_scalar_quad={})
    sol, = yield [problem]
    if sol.status is SolveStatus.OPTIMAL:
        return True, sol
    if sol.status is SolveStatus.INFEASIBLE:
        return False, sol
    raise IndeterminateError(
        f"feasibility check inconclusive after {sol.iterations} iterations "
        f"(residuals {sol.kkt})")


def _row_gap(rhs, val, sense, floor):
    """Worst normalized gap of rows of :data:`.problem.SENSE` ``sense``, 0
    without rows: rhs - val on >=, val - rhs on <= and |rhs - val| on ==
    rows, each over max(floor, |rhs|, |val|) (``floor`` one per row or
    for all), in floats: numpy's bits in a few calls on a few rows."""
    floors = [floor] * len(rhs) if isinstance(floor, float) \
        else floor.tolist()
    worst = 0.0
    for b, v, s, f in zip(rhs.tolist(), val.tolist(), sense.tolist(), floors):
        gap = abs(b - v) if s == 0.0 else s * (b - v)
        worst = max(worst, gap / max(f, abs(b), abs(v)))
    return worst


def cone_violation(solution):
    """The cone part of :func:`point_violation` of a candidate point,
    inf when an entry is not finite: each block's least eigenvalue over
    max(1, its trace), and the least scalar."""
    mats, scalars = solution.matrix_values, solution.scalar_values
    if not all(np.isfinite(v).all() for v in (scalars, *mats)
               if v is not None):
        return math.inf
    worst = 0.0
    for mat in mats:
        scale = max(1.0, float(np.real(np.trace(mat))))
        low = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
        worst = max(worst, -low / scale)
    if scalars is not None and scalars.size:
        worst = max(worst, -float(scalars.min()))
    return worst


def row_violation(problem, solution, rows=None):
    """The rows' part of :func:`point_violation` of a candidate point,
    inf when a row value is not finite: the row gaps at floor 1
    (:func:`_row_gap`), the values formed on the problem's
    :meth:`ConicProblem.gathers`.  ``rows`` is the problem's (rhs,
    sense) pair when the caller keeps it, else they are read from its
    families."""
    vals = problem.row_terms(solution.matrix_values,
                             solution.scalar_values).sum(axis=-1)
    if not np.isfinite(vals).all():
        return math.inf
    rhs, sense = rows or (problem.rhs(), problem.sense())
    return _row_gap(rhs, vals, sense, 1.0)


def point_violation(problem, solution, rows=None):
    """Worst normalized constraint/cone violation of a candidate point,
    inf when an entry or a row value is not finite: the larger of its
    :func:`cone_violation` and :func:`row_violation` (``rows`` as
    there)."""
    return max(cone_violation(solution),
               row_violation(problem, solution, rows))


def verify_infeasibility_certificate(problem, weights, rows=None):
    """Check a Farkas certificate by direct evaluation.

    ``weights`` holds one signed multiplier per constraint (>= rows
    nonnegative, <= rows nonpositive); a weight of the wrong sign by at
    most ``CERTIFICATE_SIGN_TOL`` (relative to the largest) counts as
    zero, a larger one fails the check.  The certificate is valid when
    the aggregated functional is nonpositive on the cone (no aggregated
    block has a positive eigenvalue, no scalar aggregate is positive,
    each up to the rounding error of forming it, see
    :data:`AGGREGATE_ROUNDOFF`) while the aggregated right-hand side is
    at least ``FARKAS_MARGIN``.  A functional that is positive on the
    cone certifies nothing, however small it is, since a large enough
    feasible point outweighs it.  The aggregates are formed per
    variable on the problem's :meth:`ConicProblem.gathers`, with each
    coefficient's Frobenius norm and max(1, max |F|), built at its first
    check; ``rows`` is as in :func:`row_violation`.
    """
    rhs, sense = rows or (problem.rhs(), problem.sense())
    blocks, scalars = problem.gathers()
    if "norms" not in problem._derived:
        problem._derived["norms"] = [(np.linalg.norm(F, axis=(1, 2)), max(
            1.0, np.abs(F).max(initial=0.0))) for _, F in blocks]
    weights = np.asarray(weights, dtype=float)
    scale = max(np.abs(weights).max(), 1e-300)
    w = weights / scale
    wrong = sense * w < 0
    sign_ok = not wrong.any() \
        or bool((np.abs(w[wrong]) <= CERTIFICATE_SIGN_TOL).all())
    w[wrong] = 0.0
    viol = float(sum(wk * b for wk, b in zip(w.tolist(), rhs.tolist())))
    cone_ok, max_cone = True, -np.inf
    for (at, F), (norms, fmax) in zip(blocks, problem._derived["norms"]):
        wa = w[at]
        P = np.einsum("r,rjk->jk", wa, F)
        top = float(np.linalg.eigvalsh(0.5 * (P + P.conj().T))[-1])
        size = np.abs(wa) @ norms
        cone_ok = cone_ok and top <= AGGREGATE_ROUNDOFF * size
        max_cone = max(max_cone, top / fmax)
    for at, coeffs in scalars:
        parts = [w[r] * a for r, a in zip(at, coeffs)]
        a = sum(parts)
        cone_ok = cone_ok and a <= AGGREGATE_ROUNDOFF * sum(map(abs, parts))
        max_cone = max(max_cone, a)
    ok = sign_ok and viol >= FARKAS_MARGIN and cone_ok
    return {"ok": ok, "violation": viol, "max_cone_value": max_cone,
            "signs_ok": sign_ok}


def _feasible_point(comp, x, tau):
    """OPTIMAL solution at x/tau if :func:`point_violation` accepts it
    (on the source rows the compile holds), else None.  A pre-check
    first reads the same row gaps in compiled units: a row scaled by s
    has its gap and its normalizer max(1, |rhs|, |value|) scaled by s,
    so its floor is s."""
    val = comp.A[:, :comp.slack_off] @ (x[:comp.slack_off] / tau)
    if _row_gap(comp.b, val, comp.sense, comp.row_scale) > ACCEPT_TOL:
        return None
    mats, scalars = comp.extract_point(x / tau)
    sol = ConicSolution(
        status=SolveStatus.OPTIMAL, matrix_values=mats,
        scalar_values=scalars, duals=np.zeros(len(comp.b)),
        objective=0.0)
    if point_violation(comp.source, sol, (comp.rhs, comp.sense)) \
            > ACCEPT_TOL:
        return None
    return sol


def _certified(comp, y, iterations):
    """INFEASIBLE solution certified by the weights of y, its wrong-sign
    entries clipped to zero, when some weight is nonzero and
    :func:`verify_infeasibility_certificate` accepts them (on the source
    rows the compile holds), else None.  Only called when b'y > 0."""
    w = comp.user_duals_signed(np.where(comp.sense * y < 0.0, 0.0, y))
    scale = np.abs(w).max()
    if scale == 0.0:
        return None
    weights = w / scale
    check = verify_infeasibility_certificate(comp.source, weights,
                                             (comp.rhs, comp.sense))
    if not check["ok"]:
        return None
    return ConicSolution(
        status=SolveStatus.INFEASIBLE, iterations=iterations,
        certificate={"weights": weights, "violation": check["violation"]})


class _Member:
    """One problem's own state in a lockstep loop: its start, best
    iterate, stall count, fallback counts and exit."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.start = compiled.start_point()
        self.stats = _new_stats(self.start is not None)
        self.best, self.best_err, self.stall = None, np.inf, 0
        # an identically zero objective only asks for a feasible point or
        # a Farkas certificate, so each iterate is screened for both
        self.screens = not compiled.c.any() and not compiled.qdiag.any()
        if self.screens:
            self.stats.update(point_stop=0, farkas_stop=0)
        self.status, self.iterations = SolveStatus.MAX_ITER, None
        self.solution = None            # set by an early exit

    def initial(self, ident):
        """The iterate (x, y, z, tau, kappa) this problem starts from."""
        comp = self.compiled
        if self.start is None:
            return ident, np.zeros(len(comp.b)), ident, 1.0, 1.0
        x, y, z = self.start
        x = WARM_WEIGHT * x + (1.0 - WARM_WEIGHT) * ident
        z = WARM_WEIGHT * z + (1.0 - WARM_WEIGHT) * ident
        n = comp.size
        return x, WARM_WEIGHT * y, z, 1.0, \
            float(x[:n] @ z[:n]) / (comp.degree + 1)

    def track(self, x, y, z, tau, pres, dres, relgap, it):
        """Record the iterate's residuals; True once the problem has
        converged at ``DEFAULT_TOL``."""
        err = max(pres, dres, relgap)
        if err < self.best_err:
            self.best_err = err
            # iterates are rebound, never updated in place
            self.best = (x, y, z, tau, (pres, dres, relgap))
            self.stall = 0
        else:
            self.stall += 1
        if pres <= DEFAULT_TOL and dres <= DEFAULT_TOL \
                and relgap <= DEFAULT_TOL:
            self.status, self.iterations = SolveStatus.OPTIMAL, it + 1
            return True
        return False

    def stop(self, solution, x, y, z, tau):
        """Exit early with ``solution``, made at iterate (x, y, z, tau)."""
        solution.stats = self.stats
        solution.iterate = self.compiled.source_iterate(x / tau, y / tau,
                                                        z / tau)
        self.solution = solution

    def result(self):
        """The solution at the best iterate (x, y, z)/tau, unless an
        early exit produced one."""
        if self.solution is not None:
            return self.solution
        comp = self.compiled
        x, y, z, tau, (pres, dres, relgap) = self.best
        x, y, z = x / tau, y / tau, z / tau
        status = self.status
        if status is not SolveStatus.OPTIMAL and pres <= ACCEPT_TOL \
                and dres <= ACCEPT_TOL and relgap <= ACCEPT_TOL:
            status = SolveStatus.OPTIMAL
        mats, scalars = comp.extract_point(x)
        objective = comp.source.evaluate_objective(mats, scalars) \
            if status is SolveStatus.OPTIMAL else None
        return ConicSolution(
            status=status, matrix_values=mats, scalar_values=scalars,
            duals=comp.user_duals(y), objective=objective,
            iterations=self.iterations,
            kkt={"primal": pres, "dual": dres, "gap": relgap},
            stats=self.stats, iterate=comp.source_iterate(x, y, z))


def _sigma(mu_aff, mu):
    """Mehrotra's centering weight, the cube taken in numpy scalars as
    the serial loop takes it."""
    return float(min(1.0, max(0.0, np.float64(mu_aff / mu) ** 3)))


def _narrow(keep, active, data, values):
    """The members at batch positions ``keep``, their data
    (:meth:`_Batch.take`) and their rows of each per-problem array or
    list (all as given if none left)."""
    if len(keep) == len(active):
        return active, data, values
    return [active[p] for p in keep], data.take(keep), [
        [v[p] for p in keep] if isinstance(v, list) else v[keep]
        for v in values]


def _solve_hsd(group):
    """Homogeneous self-dual loop over compiled problems of one shape,
    each started cold at x = z = identity, y = 0 and tau = kappa = 1, or
    warm from its start (:meth:`_Member.initial`); returns their
    solutions in order."""
    data = _Batch(group)
    members = active = [_Member(c) for c in group]
    lay, it = data.layout, 0
    off = lay.nn_offset
    ident = lay.identity()
    x, y, z, tau, kappa = zip(*(mem.initial(ident) for mem in members))
    x, y, z = np.array(x), np.array(y), np.array(z)
    tau, kappa = list(tau), list(kappa)

    for it in range(MAX_ITER):
        A, b, c = data.A, data.b, data.c
        bty, ctx, xtz = _dot(b, y), _dot(c, x), _dot(data.own(x), z)
        col = _col(tau)
        r1 = np.matvec(A, x) - b * col
        r2 = c * col - np.matvec(data.At, y) - z
        # x'Qx, and Q x in the dual residual
        xqx = [0.0] * len(active)
        if data.qdiag is not None:
            qx = data.qdiag * x
            r2 += qx
            xqx = _dot(x, qx)
        r2 = data.own(r2)

        keep, r3, mu = [], [], []
        for p, (mem, xp, yp, zp, t, k, bt, ct, xq, xz, rr1, rr2, nb, nc,
                dg) in enumerate(zip(active, x, y, z, tau, kappa, bty, ctx,
                                     xqx, xtz, _dot(r1, r1), _dot(r2, r2),
                                     data.nb, data.nc, data.deg)):
            r3.append(bt - ct - xq / t - k)
            mu.append((xz + t * k) / dg)
            pres = math.sqrt(rr1) / (t * nb)
            dres = math.sqrt(rr2) / (t * nc)
            # the primal objective c'xi + xi'Q xi/2 at xi = x/tau; t ** 2
            # is libm pow, whose bits t * t does not always give
            relgap = (xz / t ** 2) / max(1.0, abs(ct / t + 0.5 * xq / t ** 2))
            if mem.track(xp, yp, zp, t, pres, dres, relgap, it):
                continue
            comp, early = mem.compiled, None
            if mem.screens:
                # iterations are counted as on the OPTIMAL and Farkas
                # exits below
                early = _feasible_point(comp, xp, t)
                if early is not None:
                    mem.stats["point_stop"], early.iterations = 1, it + 1
                elif bt > 0:
                    early = _certified(comp, yp, it)
                    if early is not None:
                        mem.stats["farkas_stop"] = 1
                if early is not None:
                    early.kkt = {"primal": pres, "dual": dres, "gap": relgap}
            if early is None and k >= t and it > 0:
                # on the problem's own entries, without pads
                n = comp.size
                A_own, x_own = comp.A[:, :n], xp[:n]
                if bt > 0 and np.linalg.norm(yp) > 0 and np.linalg.norm(
                        A_own.T @ yp + zp[:n]) <= ACCEPT_TOL * bt:
                    early = _infeasible_solution(comp, yp, it)
                # a ray: A x = 0 and Q x = 0 at negative cost
                elif ct < 0 and max(np.linalg.norm(A_own @ x_own),
                                    np.linalg.norm(comp.qdiag[:n - off]
                                                   * x_own[off:])) \
                        <= ACCEPT_TOL * (-ct):
                    early = _unbounded_solution(comp, xp, -ct, it)
            if early is not None:
                mem.stop(early, xp, yp, zp, t)
                continue
            if mem.stall >= 12:
                mem.iterations = it + 2
                continue
            keep.append(p)
        if not keep:
            break
        active, data, (x, y, z, tau, kappa, r1, r2, r3, mu) = _narrow(
            keep, active, data, (x, y, z, tau, kappa, r1, r2, r3, mu))

        scaling = NTScaling(lay, x, z)
        kkt = _KktSolver(data, scaling, x, tau, kappa)
        _count_fallbacks(active, scaling, kkt)

        # the affine predictor only picks sigma and the second-order
        # term, so one unrefined pass in scaled space serves: there
        # (x + a dx)'(z + a dz) is (lam + a dxs)'(lam + a dzs)
        # (a pad keeps lam = 1 and gets no direction: the complementarity
        # right-hand sides and x'z leave it out)
        lam, lam_sq = scaling.lam(), scaling.lambda_sq()
        r2s = _scaled_dual_residual(data, kkt, x, y, lam)
        aff = kkt.solve_scaled(-r2s, -r1, [-v for v in r3], -data.own(lam_sq),
                               [-t * k for t, k in zip(tau, kappa)])
        a_aff = _step_lengths(scaling, aff, 1.0, tau, kappa, affine=True)
        col = _col(a_aff)
        target, rhs_t, eta, eta_r3 = [], [], [], []
        for xz, t, k, a, dt, dk, mp, v, dg in zip(
                _dot(data.own(lam + col * aff.dxs), lam + col * aff.dzs),
                tau, kappa, a_aff, aff.dtau, aff.dkappa, mu, r3, data.deg):
            sigma = _sigma((xz + (t + a * dt) * (k + a * dk)) / dg, mp)
            target.append(sigma * mp)
            rhs_t.append(sigma * mp - t * k - dt * dk)
            eta.append(-(1.0 - sigma))
            eta_r3.append(eta[-1] * v)

        rhs_s = data.own(_col(target) * ident - lam_sq
                         - scaling.jordan_prod(aff.dxs, aff.dzs))
        col = _col(eta)
        step = kkt.solve(col * r2, col * r1, eta_r3, rhs_s, rhs_t, col * r2s)
        for mem, passes in zip(active, kkt.passes):
            mem.stats["refine_passes"] += passes

        alpha = _step_lengths(scaling, step, STEP_FRACTION, tau, kappa)
        col = _col(alpha)
        x = x + col * step.dx
        y = y + col * step.dy
        z = z + col * step.dz
        keep, tau, kappa = [], tau[:], kappa[:]
        for p, (mem, a, dt, dk, mp) in enumerate(zip(
                active, alpha, step.dtau, step.dkappa, mu)):
            tau[p] += a * dt
            kappa[p] += a * dk
            if tau[p] < 1e-13 or mp < 1e-18:
                mem.iterations = it + 2
            else:
                keep.append(p)
        if not keep:
            break
        active, data, (x, y, z, tau, kappa) = _narrow(
            keep, active, data, (x, y, z, tau, kappa))
    else:
        for mem in active:
            mem.iterations = it + 1
    return [mem.result() for mem in members]


def _infeasible_solution(compiled, y, iterations):
    weights = compiled.user_duals_signed(y)
    scale = max(np.abs(weights).max(), 1e-300)
    weights = weights / scale
    viol = float(sum(w * b for w, b in zip(weights, compiled.source.rhs())))
    return ConicSolution(
        status=SolveStatus.INFEASIBLE, iterations=iterations,
        certificate={"weights": weights, "violation": viol})


def _unbounded_solution(compiled, x, norm, iterations):
    mats, scalars = compiled.extract_point(x / norm)
    return ConicSolution(
        status=SolveStatus.UNBOUNDED, iterations=iterations,
        certificate={"ray_matrix_values": mats, "ray_scalar_values": scalars})
