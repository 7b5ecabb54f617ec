"""Dense primal-dual interior-point solvers.

Two Nesterov-Todd path-following variants share the cone kernel:

* a homogeneous self-dual embedding for linear objectives, which
  produces Farkas certificates for infeasible instances and rays for
  unbounded ones, and
* an infeasible-start method for problems with diagonal quadratic
  objective terms on scalars; the quadratic augments the diagonal of the
  Newton system, and the method reports Optimal or MaxIter only.

Both run Mehrotra predictor-corrector steps.  The reduced Newton system
goes through a dense Schur complement; directions are polished by
iterative refinement at the full KKT level, where residuals only need
matrix-vector products and single scaling applications, so they stay
accurate far below the current duality gap.

A problem whose objective is identically zero only asks whether its
constraints are feasible, so the homogeneous embedding stops at the
first iterate that yields a feasible point or a Farkas certificate
confirmed by direct evaluation.

The iterations' floating-point operations, their operands and their
order are fixed; the loops only trim the numpy calls around them.  A
rewrite that keeps the answers keeps them bit for bit, as
``tools/solve_digest.py`` and the frozen kernel in
``tests/test_cones.py`` check.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..errors import IndeterminateError
from .cones import NTScaling
from .problem import CompiledProblem, ConicProblem, ConicSolution, SolveStatus

DEFAULT_TOL = 1e-8
ACCEPT_TOL = 1e-7
FARKAS_MARGIN = 1e-8
# a Farkas aggregate counts as nonpositive on the cone when its top
# eigenvalue (or scalar value) is at most this multiple of
# sum_k |w_k| ||F_k||_F, the rounding error of forming and factoring it:
# an exactly semidefinite, rank-deficient aggregate computes to +1e-17
# as often as to -1e-17
AGGREGATE_ROUNDOFF = 100 * np.finfo(float).eps
MAX_ITER = 200
STEP_FRACTION = 0.99
REFINE_STEPS = 2

# LAPACK Cholesky pair for the Schur complement, looked up once: scipy's
# cho_factor/cho_solve wrappers re-check finiteness on every call
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"),
                                      (np.empty(0),))


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _KktSolver:
    """Solves of the KKT system at the current iterate, in scaled space.

    HSD rows (dkappa and dz eliminated analytically):

        -A'dy + c dtau - dz            = f2
         A dx - b dtau                 = f1
         b'dy - c'dx - dkappa          = f3
         lam o (W^{-1}dx + W' dz)      = fs
         tau dkappa + kappa dtau       = ft

    The plain variant drops the tau/kappa rows and adds Q dx to row two.
    All elimination happens on scaled quantities (rows W'a_k, directions
    W^{-1}dx, W'dz), where the NT Hessian is the identity plus the
    quadratic diagonal; no large-norm operator is ever applied to an
    intermediate vector, and full-level iterative refinement stays
    contractive far below the current gap.
    """

    def __init__(self, compiled, scaling, qdiag=None, tau=None, kappa=None):
        A, b, c = compiled.A, compiled.b, compiled.c
        self.A, self.b, self.c = A, b, c
        self.scaling = scaling
        m, n = A.shape
        # all m scaled rows W'a_k from one stacked congruence per run
        self.at_scaled = scaling.scale_dual_blocks(
            compiled.A_blocks, scaling.layout.nn_block(A))
        self.c_scaled = scaling.scale_dual(c)
        # NT Hessian in scaled space: identity + quadratic diagonal
        if qdiag is not None:
            dvec = np.ones(n)
            dvec[scaling.layout.nn_offset:] += qdiag * scaling.w_nn ** 2
            self.dinv = 1.0 / dvec
        else:
            self.dinv = None
        self.qdiag = qdiag
        self._factor_schur(m)
        self.tau = tau
        self.kappa = kappa
        if tau is not None:
            self.p2s, self.u2 = self._saddle(-self.c_scaled, b)
            self.denom = float(kappa / tau - self.c_scaled @ self.p2s
                               + b @ self.u2)

    def _factor_schur(self, m):
        rows = self.at_scaled if self.dinv is None \
            else self.at_scaled * self.dinv
        M = rows @ self.at_scaled.T if m else np.zeros((0, 0))
        M = 0.5 * (M + M.T)
        self.M = M
        self._factor = None
        self._pinv = None
        self.fallback = None        # "schur_ridge" or "schur_pinv"
        if m == 0:
            return
        _require_finite(M)
        ridge = 0.0
        for _ in range(8):
            factor, info = _POTRF(M + ridge * np.eye(m) if ridge else M,
                                  lower=1)
            if info == 0:
                self._factor = factor
                if ridge > 0:
                    self.fallback = "schur_ridge"
                return
            ridge = max(ridge * 100.0,
                        1e-14 * max(np.abs(np.diag(M)).max(), 1.0))
        self._pinv = np.linalg.pinv(M)
        self.fallback = "schur_pinv"

    def _schur_solve(self, rhs):
        if self.M.shape[0] == 0:
            return np.zeros(0)
        if self._factor is not None:
            _require_finite(rhs)
            sol = _POTRS(self._factor, rhs, lower=1)[0]
            sol += _POTRS(self._factor, rhs - self.M @ sol, lower=1)[0]
            return sol
        return self._pinv @ rhs

    def _saddle(self, fd_scaled, f_p):
        """Solve (I+D) dxs - (WA')dy = fd_scaled, (AW) dxs = f_p."""
        t = fd_scaled if self.dinv is None else self.dinv * fd_scaled
        dy = self._schur_solve(f_p - self.at_scaled @ t)
        dxs = fd_scaled + (self.at_scaled.T @ dy if dy.size else 0.0)
        if self.dinv is not None:
            dxs = self.dinv * dxs
        return dxs, dy

    # -- homogeneous variant ------------------------------------------

    def solve_hsd(self, f2, f1, f3, fs, ft, refine=REFINE_STEPS):
        sol = self._solve_hsd_once(f2, f1, f3, fs, ft)
        res = self._residual_hsd(sol, f2, f1, f3, fs, ft)
        best, best_norm = sol, _hsd_res_norm(res)
        for _ in range(refine):
            if best_norm < 1e-14:
                break
            corr = self._solve_hsd_once(*res)
            cand = best.plus(corr)
            res = self._residual_hsd(cand, f2, f1, f3, fs, ft)
            norm = _hsd_res_norm(res)
            if norm >= best_norm:
                break
            best, best_norm = cand, norm
        return best

    def _solve_hsd_once(self, f2, f1, f3, fs, ft):
        sc = self.scaling
        g = sc.jordan_div(fs)
        fd_scaled = sc.scale_dual(f2) + g
        p1s, u1 = self._saddle(fd_scaled, f1)
        f_g = f3 + ft / self.tau
        if abs(self.denom) < 1e-300:
            dtau = 0.0
        else:
            dtau = float(f_g + self.c_scaled @ p1s
                         - self.b @ u1) / self.denom
        dxs = p1s + dtau * self.p2s
        dy = u1 + dtau * self.u2
        dzs = g - dxs
        dkappa = (ft - self.kappa * dtau) / self.tau
        dx, dz = sc.unscale(dxs, dzs)
        return _HsdDir(dx, dy, dz, dtau, dkappa, dxs, dzs)

    def _residual_hsd(self, sol, f2, f1, f3, fs, ft):
        at_dy = self.A.T @ sol.dy if sol.dy.size else np.zeros_like(sol.dx)
        r2 = f2 - (-at_dy + self.c * sol.dtau - sol.dz)
        r1 = f1 - (self.A @ sol.dx - self.b * sol.dtau)
        r3 = f3 - (float(self.b @ sol.dy - self.c @ sol.dx) - sol.dkappa)
        rs = fs - self.scaling.lam_prod(sol.dxs + sol.dzs)
        rt = ft - (self.tau * sol.dkappa + self.kappa * sol.dtau)
        return r2, r1, r3, rs, rt

    # -- plain variant -------------------------------------------------

    def solve_plain(self, f2, f1, fs, refine=REFINE_STEPS):
        sol = self._solve_plain_once(f2, f1, fs)
        res = self._residual_plain(sol, f2, f1, fs)
        best, best_norm = sol, _res_norm(res)
        for _ in range(refine):
            if best_norm < 1e-14:
                break
            corr = self._solve_plain_once(*res)
            cand = best.plus(corr)
            res = self._residual_plain(cand, f2, f1, fs)
            norm = _res_norm(res)
            if norm >= best_norm:
                break
            best, best_norm = cand, norm
        return best

    def _solve_plain_once(self, f2, f1, fs):
        sc = self.scaling
        g = sc.jordan_div(fs)
        fd_scaled = sc.scale_dual(f2) + g
        dxs, dy = self._saddle(fd_scaled, f1)
        dzs = g - dxs
        dx, dz = sc.unscale(dxs, dzs)
        return _PlainDir(dx, dy, dz, dxs, dzs)

    def _residual_plain(self, sol, f2, f1, fs):
        at_dy = self.A.T @ sol.dy if sol.dy.size else np.zeros_like(sol.dx)
        qdx = np.zeros_like(sol.dx)
        if self.qdiag is not None:
            off = self.scaling.layout.nn_offset
            qdx[off:] = self.qdiag * sol.dx[off:]
        r2 = f2 - (qdx - at_dy - sol.dz)
        r1 = f1 - self.A @ sol.dx
        rs = fs - self.scaling.lam_prod(sol.dxs + sol.dzs)
        return r2, r1, rs


@dataclass
class _HsdDir:
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dtau: float
    dkappa: float
    dxs: np.ndarray
    dzs: np.ndarray

    def plus(self, o):
        return _HsdDir(self.dx + o.dx, self.dy + o.dy, self.dz + o.dz,
                       self.dtau + o.dtau, self.dkappa + o.dkappa,
                       self.dxs + o.dxs, self.dzs + o.dzs)


@dataclass
class _PlainDir:
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dxs: np.ndarray
    dzs: np.ndarray

    def plus(self, o):
        return _PlainDir(self.dx + o.dx, self.dy + o.dy, self.dz + o.dz,
                         self.dxs + o.dxs, self.dzs + o.dzs)


def _res_norm(vectors, scalars=()):
    """Largest absolute entry over residual vectors and scalars."""
    return max([float(np.abs(np.concatenate(vectors)).max()),
                *map(abs, scalars)])


def _hsd_res_norm(res):
    r2, r1, r3, rs, rt = res
    return _res_norm((r2, r1, rs), (r3, rt))


def _max_step_scalar(v, dv):
    return 1e12 if dv >= 0 else -v / dv


def _new_stats():
    return {"chol_jitter": 0, "schur_ridge": 0, "schur_pinv": 0}


def _count_fallbacks(stats, scaling, kkt):
    stats["chol_jitter"] += scaling.jitters
    if kkt.fallback:
        stats[kkt.fallback] += 1


def solve(problem, tol=DEFAULT_TOL, accept_tol=ACCEPT_TOL,
          max_iter=MAX_ITER):
    """Solve a :class:`ConicProblem`, returning a :class:`ConicSolution`.

    Problems with quadratic scalar terms go through the infeasible-start
    method; everything else through the homogeneous embedding.
    """
    if problem.num_vars() == 0:
        raise ValueError("problem has no variables")
    compiled = CompiledProblem(problem)
    if problem.has_quadratic():
        return _solve_qp(compiled, tol, accept_tol, max_iter)
    return _solve_hsd(compiled, tol, accept_tol, max_iter)


def check_feasibility(problem, tol=DEFAULT_TOL, return_solution=False):
    """Decide feasibility of the constraint system, ignoring objectives.

    The solve of the objective-free system screens every iterate for a
    feasible point and for a Farkas certificate, each confirmed by
    direct evaluation, and stops at the first; when it ends without
    either, the check raises :class:`IndeterminateError`.
    """
    stripped = ConicProblem(
        matrix_vars=problem.matrix_vars,
        num_scalars=problem.num_scalars,
        scalar_names=problem.scalar_names,
        constraints=problem.constraints)
    sol = solve(stripped, tol=tol)
    if sol.status is SolveStatus.OPTIMAL:
        return (True, sol) if return_solution else True
    if sol.status is SolveStatus.INFEASIBLE:
        return (False, sol) if return_solution else False
    raise IndeterminateError(
        f"feasibility check inconclusive after {sol.iterations} iterations "
        f"(residuals {sol.kkt})")


def point_violation(problem, solution):
    """Worst normalized constraint/cone violation of a candidate point."""
    worst = 0.0
    for i, mat in enumerate(solution.matrix_values):
        scale = max(1.0, float(np.real(np.trace(mat))))
        low = float(sla.eigvalsh(0.5 * (mat + mat.conj().T))[0])
        worst = max(worst, -low / scale)
    if solution.scalar_values is not None and solution.scalar_values.size:
        worst = max(worst, -float(solution.scalar_values.min()))
    for k, con in enumerate(problem.constraints):
        val = problem.evaluate_constraint(k, solution.matrix_values,
                                          solution.scalar_values)
        if con.relation == ">=":
            gap = con.rhs - val
        elif con.relation == "<=":
            gap = val - con.rhs
        else:
            gap = abs(val - con.rhs)
        worst = max(worst, gap / max(1.0, abs(con.rhs), abs(val)))
    return worst


def verify_infeasibility_certificate(problem, weights, margin=FARKAS_MARGIN,
                                     tol=1e-6):
    """Check a Farkas certificate by direct evaluation.

    ``weights`` holds one signed multiplier per constraint (>= rows
    nonnegative, <= rows nonpositive); a weight of the wrong sign by at
    most ``tol`` (relative to the largest) counts as zero, a larger one
    fails the check.  The certificate is valid when the aggregated
    functional is nonpositive on the cone (no aggregated block has a
    positive eigenvalue, no scalar aggregate is positive, each up to the
    rounding error of forming it, see :data:`AGGREGATE_ROUNDOFF`) while
    the aggregated right-hand side is at least ``margin``.  A functional
    that is positive on the cone certifies nothing, however small it is,
    since a large enough feasible point outweighs it.
    """
    weights = np.asarray(weights, dtype=float)
    scale = max(np.abs(weights).max(), 1e-300)
    w = weights / scale
    sign_ok = True
    for k, con in enumerate(problem.constraints):
        wrong = (con.relation == ">=" and w[k] < 0) \
            or (con.relation == "<=" and w[k] > 0)
        if wrong:
            sign_ok = sign_ok and abs(w[k]) <= tol
            w[k] = 0.0
    viol = float(sum(w[k] * con.rhs
                     for k, con in enumerate(problem.constraints)))
    cone_ok = True
    max_cone = -np.inf
    for i, var in enumerate(problem.matrix_vars):
        P = np.zeros((var.dim, var.dim), dtype=complex)
        norm = size = 0.0
        for k, con in enumerate(problem.constraints):
            F = con.matrix_coeffs.get(i)
            if F is not None:
                P = P + w[k] * F
                norm = max(norm, np.abs(F).max())
                size += abs(w[k]) * np.linalg.norm(F)
        top = float(sla.eigvalsh(0.5 * (P + P.conj().T))[-1])
        cone_ok = cone_ok and top <= AGGREGATE_ROUNDOFF * size
        max_cone = max(max_cone, top / max(1.0, norm))
    for j in range(problem.num_scalars):
        terms = [w[k] * con.scalar_coeffs.get(j, 0.0)
                 for k, con in enumerate(problem.constraints)]
        a = sum(terms)
        cone_ok = cone_ok and a <= AGGREGATE_ROUNDOFF * sum(map(abs, terms))
        max_cone = max(max_cone, a)
    ok = sign_ok and viol >= margin and cone_ok
    return {"ok": ok, "violation": viol, "max_cone_value": max_cone,
            "signs_ok": sign_ok}


class _FeasibilityScreens:
    """Early exits of a solve whose objective is identically zero.

    With nothing to optimize, any feasible point is optimal and any
    Farkas combination settles infeasibility, so each homogeneous
    iterate is screened for both on the compiled rows: the point x/tau
    for its normalized row gaps, the dual iterate y (wrong-sign entries
    clipped to zero) for an aggregate that is nonpositive on the cone
    with a positive right-hand side.  A screen that passes is confirmed
    once on the source problem by :func:`point_violation` or
    :func:`verify_infeasibility_certificate` before the solve stops.
    """

    def __init__(self, compiled):
        self.compiled = compiled
        rel = [con.relation for con in compiled.source.constraints]
        # +1 on >= rows, -1 on <= rows, 0 on == rows: the sign a row's
        # gap b - a'x and a Farkas weight must carry
        self.sense = np.array([{">=": 1.0, "<=": -1.0, "==": 0.0}[r]
                               for r in rel])
        self.equality = self.sense == 0.0
        # the part of each row's gap normalizer that no iterate changes
        self.row_norm = np.maximum(compiled.row_scale, np.abs(compiled.b))
        self.A_user = compiled.A[:, :compiled.slack_off]
        self.A_scalar = compiled.A[:, compiled.scalar_off:compiled.slack_off]
        self.abs_scalar_t = np.abs(self.A_scalar.T)
        # (m, k) Frobenius norms of every row's blocks, per run
        self.block_norms = [np.linalg.norm(blocks, axis=(-2, -1))
                            for blocks in compiled.A_blocks]

    def point(self, x, tau):
        """OPTIMAL solution at x/tau if it satisfies every row, else None.

        The row gaps are those of :func:`point_violation` in compiled
        units: a row scaled by s has its gap and its normalizer
        max(1, |rhs|, |value|) scaled by s.
        """
        comp = self.compiled
        val = self.A_user @ (x[:comp.slack_off] / tau)
        diff = comp.b - val
        gap = np.where(self.equality, np.abs(diff), self.sense * diff)
        norm = np.maximum(self.row_norm, np.abs(val))
        if (gap / norm).max(initial=0.0) > ACCEPT_TOL:
            return None
        mats, scalars = comp.extract_point(x / tau)
        sol = ConicSolution(
            status=SolveStatus.OPTIMAL, matrix_values=mats,
            scalar_values=scalars, duals=np.zeros(len(self.sense)),
            objective=0.0)
        if point_violation(comp.source, sol) > ACCEPT_TOL:
            return None
        return sol

    def farkas(self, y):
        """INFEASIBLE solution certified by the clipped weights of y, else
        None.  Only called when b'y > 0."""
        comp = self.compiled
        y = np.where(self.sense * y < 0.0, 0.0, y)
        w = comp.user_duals_signed(y)
        scale = np.abs(w).max()
        # b'y = sum_k w_k rhs_k, the certificate's violation
        if scale == 0.0 or float(comp.b @ y) < FARKAS_MARGIN * scale:
            return None
        # the verifier's rule on the compiled rows, which are the source
        # rows times positive scales
        abs_y = np.abs(y)
        if (self.A_scalar.T @ y > AGGREGATE_ROUNDOFF
                * (self.abs_scalar_t @ abs_y)).any():
            return None
        row = y.reshape(1, -1)
        for blocks, norms in zip(comp.A_blocks, self.block_norms):
            # the aggregate sum_k y_k F_k, formed as np.tensordot forms it
            agg = np.dot(row, blocks.reshape(len(y), -1))
            top = np.linalg.eigvalsh(agg.reshape(blocks.shape[1:]))[..., -1]
            if (top > AGGREGATE_ROUNDOFF * (abs_y @ norms)).any():
                return None
        weights = w / scale
        check = verify_infeasibility_certificate(comp.source, weights)
        if not check["ok"]:
            return None
        return ConicSolution(
            status=SolveStatus.INFEASIBLE,
            certificate={"weights": weights, "violation": check["violation"]})


def _solve_hsd(compiled, tol, accept_tol, max_iter):
    lay = compiled.layout
    A, b, c = compiled.A, compiled.b, compiled.c
    nb = 1.0 + np.linalg.norm(b)
    nc = 1.0 + np.linalg.norm(c)
    deg = lay.degree + 1

    ident = lay.identity()
    x = z = ident
    y = np.zeros(A.shape[0])
    tau, kappa = 1.0, 1.0

    best = None
    best_err = np.inf
    stats = _new_stats()
    screens = None if c.any() else _FeasibilityScreens(compiled)
    if screens is not None:
        stats.update(point_stop=0, farkas_stop=0)
    stall = 0
    status = SolveStatus.MAX_ITER
    it = 0

    for it in range(max_iter):
        bty, ctx, xtz = b @ y, c @ x, x @ z
        r1 = A @ x - b * tau
        r2 = c * tau - (A.T @ y if y.size else 0.0) - z
        r3 = float(bty - ctx - kappa)
        mu = (xtz + tau * kappa) / deg

        pres = math.sqrt(r1.dot(r1)) / (tau * nb)
        dres = math.sqrt(r2.dot(r2)) / (tau * nc)
        pobj = float(ctx) / tau
        gap = float(xtz) / tau ** 2
        relgap = gap / max(1.0, abs(pobj))
        err = max(pres, dres, relgap)
        if err < best_err:
            best_err = err
            # iterates are rebound, never updated in place
            best = (x, y, tau, (pres, dres, relgap))
            stall = 0
        else:
            stall += 1
        if pres <= tol and dres <= tol and relgap <= tol:
            status = SolveStatus.OPTIMAL
            break

        if screens is not None:
            # iterations are counted as on the OPTIMAL and Farkas exits
            # below
            early = screens.point(x, tau)
            if early is not None:
                stats["point_stop"], early.iterations = 1, it + 1
            elif bty > 0:
                early = screens.farkas(y)
                if early is not None:
                    stats["farkas_stop"], early.iterations = 1, it
            if early is not None:
                early.kkt = {"primal": pres, "dual": dres, "gap": relgap}
                early.stats = stats
                return early

        if kappa >= tau and it > 0:
            bty, ctx = float(bty), float(ctx)
            ny = np.linalg.norm(y)
            if bty > 0 and ny > 0:
                if np.linalg.norm(A.T @ y + z) <= accept_tol * bty:
                    return _infeasible_solution(compiled, y, it, stats)
            if ctx < 0:
                if np.linalg.norm(A @ x) <= accept_tol * (-ctx):
                    return _unbounded_solution(compiled, x, -ctx, it,
                                               stats)

        if stall >= 12:
            it += 1
            break

        scaling = NTScaling(lay, x, z)
        kkt = _KktSolver(compiled, scaling, tau=tau, kappa=kappa)
        _count_fallbacks(stats, scaling, kkt)

        lam_sq = scaling.lambda_sq()
        aff = kkt.solve_hsd(-r2, -r1, -r3, -lam_sq, -tau * kappa)
        amax = min(scaling.max_step(aff.dxs, aff.dzs),
                   _max_step_scalar(tau, aff.dtau),
                   _max_step_scalar(kappa, aff.dkappa))
        a_aff = min(1.0, amax)
        mu_aff = ((x + a_aff * aff.dx) @ (z + a_aff * aff.dz)
                  + (tau + a_aff * aff.dtau)
                  * (kappa + a_aff * aff.dkappa)) / deg
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        eta = 1.0 - sigma
        rhs_s = sigma * mu * ident - lam_sq \
            - scaling.jordan_prod(aff.dxs, aff.dzs)
        rhs_t = sigma * mu - tau * kappa - aff.dtau * aff.dkappa
        step = kkt.solve_hsd(-eta * r2, -eta * r1, -eta * r3, rhs_s, rhs_t)

        amax = min(scaling.max_step(step.dxs, step.dzs),
                   _max_step_scalar(tau, step.dtau),
                   _max_step_scalar(kappa, step.dkappa))
        alpha = min(1.0, STEP_FRACTION * amax)
        x = x + alpha * step.dx
        y = y + alpha * step.dy
        z = z + alpha * step.dz
        tau += alpha * step.dtau
        kappa += alpha * step.dkappa
        if tau < 1e-13 or mu < 1e-18:
            it += 1
            break

    if status is not SolveStatus.OPTIMAL and best is not None:
        pres, dres, relgap = best[3]
        if pres <= accept_tol and dres <= accept_tol and relgap <= accept_tol:
            status = SolveStatus.OPTIMAL
    x, y, tau, (pres, dres, relgap) = best
    if status is SolveStatus.OPTIMAL:
        return _optimal_solution(compiled, x / tau, y / tau,
                                 (pres, dres, relgap), it + 1, stats)
    mats, scalars = compiled.extract_point(x / tau)
    return ConicSolution(
        status=SolveStatus.MAX_ITER, matrix_values=mats,
        scalar_values=scalars, duals=compiled.user_duals(y / tau),
        objective=None, iterations=it + 1,
        kkt={"primal": pres, "dual": dres, "gap": relgap}, stats=stats)


def _optimal_solution(compiled, x, y, residuals, iterations, stats):
    mats, scalars = compiled.extract_point(x)
    pres, dres, relgap = residuals
    return ConicSolution(
        status=SolveStatus.OPTIMAL, matrix_values=mats,
        scalar_values=scalars, duals=compiled.user_duals(y),
        objective=compiled.source.evaluate_objective(mats, scalars),
        iterations=iterations,
        kkt={"primal": pres, "dual": dres, "gap": relgap}, stats=stats)


def _infeasible_solution(compiled, y, iterations, stats):
    weights = compiled.user_duals_signed(y)
    scale = max(np.abs(weights).max(), 1e-300)
    weights = weights / scale
    viol = float(sum(w * con.rhs for w, con in
                     zip(weights, compiled.source.constraints)))
    return ConicSolution(
        status=SolveStatus.INFEASIBLE, iterations=iterations,
        certificate={"weights": weights, "violation": viol}, stats=stats)


def _unbounded_solution(compiled, x, norm, iterations, stats):
    mats, scalars = compiled.extract_point(x / norm)
    return ConicSolution(
        status=SolveStatus.UNBOUNDED, iterations=iterations,
        certificate={"ray_matrix_values": mats, "ray_scalar_values": scalars},
        stats=stats)


def _solve_qp(compiled, tol, accept_tol, max_iter):
    lay = compiled.layout
    A, b, c = compiled.A, compiled.b, compiled.c
    qdiag = compiled.qdiag
    nb = 1.0 + np.linalg.norm(b)
    nc = 1.0 + np.linalg.norm(c)
    deg = max(lay.degree, 1)

    def q_apply(v):
        out = np.zeros_like(v)
        out[lay.nn_offset:] = qdiag * v[lay.nn_offset:]
        return out

    ident = lay.identity()
    x = z = ident
    y = np.zeros(A.shape[0])

    best = None
    best_err = np.inf
    stats = _new_stats()
    stall = 0
    status = SolveStatus.MAX_ITER
    it = 0

    for it in range(max_iter):
        qx = q_apply(x)
        r1 = A @ x - b
        r2 = c + qx - (A.T @ y if y.size else 0.0) - z
        xtz = x @ z
        mu = xtz / deg

        pres = math.sqrt(r1.dot(r1)) / nb
        dres = math.sqrt(r2.dot(r2)) / nc
        pobj = float(c @ x + 0.5 * x @ qx)
        gap = float(xtz)
        relgap = gap / max(1.0, abs(pobj))
        err = max(pres, dres, relgap)
        if err < best_err:
            best_err = err
            best = (x, y, (pres, dres, relgap))
            stall = 0
        else:
            stall += 1
        if pres <= tol and dres <= tol and relgap <= tol:
            status = SolveStatus.OPTIMAL
            break
        if stall >= 12:
            it += 1
            break

        scaling = NTScaling(lay, x, z)
        kkt = _KktSolver(compiled, scaling, qdiag=qdiag)
        _count_fallbacks(stats, scaling, kkt)

        lam_sq = scaling.lambda_sq()
        aff = kkt.solve_plain(-r2, -r1, -lam_sq)
        a_aff = min(1.0, scaling.max_step(aff.dxs, aff.dzs))
        mu_aff = ((x + a_aff * aff.dx) @ (z + a_aff * aff.dz)) / deg
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        eta = 1.0 - sigma
        rhs_s = sigma * mu * ident - lam_sq \
            - scaling.jordan_prod(aff.dxs, aff.dzs)
        step = kkt.solve_plain(-eta * r2, -eta * r1, rhs_s)

        alpha = min(1.0, STEP_FRACTION
                    * scaling.max_step(step.dxs, step.dzs))
        x = x + alpha * step.dx
        y = y + alpha * step.dy
        z = z + alpha * step.dz
        if mu < 1e-18:
            it += 1
            break

    if status is not SolveStatus.OPTIMAL and best is not None:
        pres, dres, relgap = best[2]
        if pres <= accept_tol and dres <= accept_tol and relgap <= accept_tol:
            status = SolveStatus.OPTIMAL
    x, y, (pres, dres, relgap) = best
    if status is SolveStatus.OPTIMAL:
        return _optimal_solution(compiled, x, y, (pres, dres, relgap),
                                 it + 1, stats)
    mats, scalars = compiled.extract_point(x)
    return ConicSolution(
        status=SolveStatus.MAX_ITER, matrix_values=mats,
        scalar_values=scalars, duals=compiled.user_duals(y), objective=None,
        iterations=it + 1,
        kkt={"primal": pres, "dual": dres, "gap": relgap}, stats=stats)
