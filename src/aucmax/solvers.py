"""First- and second-order solvers for strongly-convex-strongly-concave
saddle problems, with per-iteration trace logging and a uniform
termination contract (stacked gradient norm below tolerance, or an
iteration cap).  ``solve``, the one entry point, builds the step of the
method its config names; one loop (``_iterate``) enforces the contract and
the trace-thinning policy.

An iterate is one stacked vector ``z``: the primal block (minimized) is its
first ``dim_x`` entries, the dual block (maximized) its last ``dim_y``.  A
problem provides ``dim_x``, ``dim_y``, ``grad(z)`` (one vector, laid out as
``z``) and ``value(z)``; second-order methods and the default step size also
need ``hessian()``, the symmetric second-derivative matrix over ``z``, read
once, before the first step (the problem is taken to be quadratic).

Every trace row also holds the objective (``value(z)`` at the row's
iterate) and, when the caller passes ``auc_eval``, a train and a test AUC.
The AUCs are scored in blocks: the loop keeps the primal block of each
recorded row's iterate and calls ``auc_eval(xs)`` with the k x ``dim_x``
matrix ``xs`` of those blocks, ``TRACE_AUC_BLOCK`` rows at a time and the
rows left over when the run ends.  The callback returns two length-k columns,
the train and the test AUC of each row in order; an entry may be None for a
cell to leave empty.

Second-order methods certify that the saddle is unique before stepping.
Writing the Hessian as ``[[A, B], [B.T, -C]]`` with ``A`` the primal block,
the problem is strongly-convex-strongly-concave exactly when ``A`` and the
dual Schur complement ``S = C + B.T A^{-1} B`` are positive definite.  Both
are Cholesky-factored, and each factor's LAPACK ``?pocon`` condition
estimate must stay within ``CONDITION_LIMIT``; Newton then solves with the
same factors (block elimination, Benzi, Golub & Liesen, Acta Numerica 2005).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .rules import BROYDEN_TAU, POSITIVE, POSITIVE_INTEGER, choice, require

__all__ = [
    "FIRST_ORDER_METHODS",
    "SECOND_ORDER_METHODS",
    "METHODS",
    "SolverConfig",
    "TraceRow",
    "SolveResult",
    "spectral_norm_estimate",
    "solve",
    "broyden_update",
    "greedy_direction",
    "trace_to_csv",
    "write_trace_csv",
]

FIRST_ORDER_METHODS = ("sim-gda", "alt-gda", "extragradient")
SECOND_ORDER_METHODS = ("newton", "qn-broyden")
METHODS = FIRST_ORDER_METHODS + SECOND_ORDER_METHODS
METHOD = choice(METHODS)

DIRECTION_RULES = ("greedy-basis", "random-gaussian")

DIVERGENCE_LIMIT = 1e12       # gradient norm beyond which a run is declared divergent
DENSE_TRACE_ROWS = 10_000     # first-order methods: record every iteration up to here,
THIN_TRACE_EVERY = 10         # ... then only every 10th (bounded trace memory)
TRACE_AUC_BLOCK = 16          # recorded iterates per auc_eval call; bounds the score block's memory
CONDITION_LIMIT = 1e14        # condition estimate of a saddle factor treated as singular
SPECTRAL_NORM_ITERATIONS = 300  # cap on ARPACK's restarts in spectral_norm_estimate
SR1_DENOMINATOR_FLOOR = 1e-12 # relative curvature floor for the SR1 denominator
REBASE_RANK = 32              # qn-broyden: Woodbury pieces held before Q is refactored

TRACE_HEADER = "iteration,grad_norm,objective,train_auc,test_auc"


@dataclass
class SolverConfig:
    """Method selection and termination/step parameters for one solver run."""

    method: str
    step_size: float | None = None          # first-order only; None -> 1/(2*L_hat)
    max_iterations: int = 50_000
    grad_tolerance: float = 1e-3
    broyden_tau: float | str = "sr1"        # in [0, 1], or "sr1" / "dfp" / "bfgs"
    direction_rule: str = "greedy-basis"
    updates_per_iteration: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        require("method", self.method, METHOD)
        if self.step_size is not None:
            require("step_size", self.step_size, POSITIVE)
        require("max_iterations", self.max_iterations, POSITIVE_INTEGER)
        require("grad_tolerance", self.grad_tolerance, POSITIVE)
        require("broyden_tau", self.broyden_tau, BROYDEN_TAU)
        require("direction_rule", self.direction_rule, choice(DIRECTION_RULES))
        require("updates_per_iteration", self.updates_per_iteration, POSITIVE_INTEGER)


@dataclass
class TraceRow:
    iteration: int
    grad_norm: float
    objective: float
    train_auc: float | None = None
    test_auc: float | None = None


@dataclass
class SolveResult:
    """Terminal iterate plus the per-iteration trace of one solver run."""

    final_z: np.ndarray
    converged: bool
    iterations_used: int
    trace: list[TraceRow]
    notes: list[str] = field(default_factory=list)


def _iterate(problem, config, z, step, auc_eval, dense, notes) -> SolveResult:
    """The iteration loop shared by every solver.

    ``step(t, z, g)`` returns iterate ``t`` from iterate ``t - 1`` and its
    gradient.  The loop stops once the gradient norm is within
    ``grad_tolerance`` (converged) or after ``max_iterations`` steps, and
    raises RuntimeError when the norm is non-finite or exceeds
    ``DIVERGENCE_LIMIT``.  The trace holds row 0 and the last row; between
    them every row when ``dense``, otherwise every row up to
    ``DENSE_TRACE_ROWS`` and every ``THIN_TRACE_EVERY``-th one after.  The
    recorded rows' AUCs come from ``auc_eval`` in blocks (see the module
    docstring).  ``notes`` goes into the ``SolveResult`` unchanged.
    """
    tol, cap, nx = config.grad_tolerance, config.max_iterations, problem.dim_x
    trace: list[TraceRow] = []
    pending: list[np.ndarray] = []              # primal blocks of the rows awaiting AUCs

    def gradient(z):
        g = problem.grad(z)
        # summed block by block: one dot over all of g can round the last digit
        # differently, and trace.csv's grad_norm column would change its bits
        return g, float(np.sqrt(g[:nx] @ g[:nx] + g[nx:] @ g[nx:]))

    def score_pending():
        train, test = auc_eval(np.stack(pending))
        for row, train_auc, test_auc in zip(trace[-len(pending):], train, test, strict=True):
            row.train_auc = None if train_auc is None else float(train_auc)
            row.test_auc = None if test_auc is None else float(test_auc)
        pending.clear()

    def record(t, gn, z):
        trace.append(TraceRow(t, float(gn), float(problem.value(z))))
        if auc_eval is not None:
            pending.append(z[:nx].copy())
            if len(pending) == TRACE_AUC_BLOCK:
                score_pending()

    g, gn = gradient(z)
    record(0, gn, z)
    t = 0
    converged = gn <= tol
    while not converged and t < cap:
        t += 1
        z = step(t, z, g)
        g, gn = gradient(z)
        if not np.isfinite(gn) or gn > DIVERGENCE_LIMIT:
            raise RuntimeError("diverged (step size too large)")
        converged = gn <= tol
        if dense or converged or t == cap or t <= DENSE_TRACE_ROWS or t % THIN_TRACE_EVERY == 0:
            record(t, gn, z)
    if pending:
        score_pending()
    return SolveResult(final_z=z, converged=bool(converged), iterations_used=t,
                       trace=trace, notes=notes)


def spectral_norm_estimate(matrix: np.ndarray, seed: int = 0) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Lanczos (ARPACK ``eigsh``) from a start vector drawn from ``seed``, so a
    repeated call returns the same bits; ``SPECTRAL_NORM_ITERATIONS`` caps
    ARPACK's restarts.  A zero matrix gives 0.0.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape[0] < 2 or not m.any():           # ARPACK needs k = 1 < n and a nonzero Krylov space
        return float(np.abs(m).max(initial=0.0))
    v0 = np.random.default_rng(seed).standard_normal(m.shape[0])
    eigenvalue = scipy.sparse.linalg.eigsh(m, k=1, which="LM", v0=v0, return_eigenvectors=False,
                                           maxiter=SPECTRAL_NORM_ITERATIONS)
    return float(abs(eigenvalue[0]))


def _resolve_step(problem, config) -> float:
    if config.step_size is not None:
        return float(config.step_size)
    if not hasattr(problem, "hessian"):
        raise ValueError("step_size is required for problems without a hessian()")
    h_hat = np.asarray(problem.hessian(), dtype=float)
    lipschitz = spectral_norm_estimate(h_hat, seed=config.rng_seed)
    if lipschitz <= 0:
        raise ValueError("could not estimate a step size (zero Hessian)")
    return 1.0 / (2.0 * lipschitz)


def _certified_cholesky(m: np.ndarray):
    """Upper Cholesky factor of ``m`` in ``cho_solve`` form, or RuntimeError
    when ``m`` is not positive definite or its condition estimate exceeds
    ``CONDITION_LIMIT``."""
    potrf, pocon = scipy.linalg.lapack.get_lapack_funcs(("potrf", "pocon"), (m,))
    factor, info = potrf(m)
    if info == 0:
        rcond, info = pocon(factor, np.linalg.norm(m, 1))
    if info != 0 or not rcond * CONDITION_LIMIT >= 1.0:
        raise RuntimeError("singular Hessian; increase lambda")
    return factor, False


def _saddle_factor(h_hat: np.ndarray, nx: int):
    """Certify the saddle Hessian ``[[A, B], [B.T, -C]]`` (``A`` is the
    leading ``nx`` x ``nx`` block) and return a solver for ``h_hat @ s = g``.

    Factors ``A`` and the Schur complement ``S = C + B.T A^{-1} B``; raises
    RuntimeError("singular Hessian; ...") unless both are positive definite
    and well conditioned.  The solve eliminates the primal block.
    """
    a_factor = _certified_cholesky(h_hat[:nx, :nx])
    b = h_hat[:nx, nx:]
    a_inv_b = scipy.linalg.cho_solve(a_factor, b)
    s_factor = _certified_cholesky(b.T @ a_inv_b - h_hat[nx:, nx:])

    def solve_saddle(g: np.ndarray) -> np.ndarray:
        a_inv_gx = scipy.linalg.cho_solve(a_factor, g[:nx])
        step_y = scipy.linalg.cho_solve(s_factor, b.T @ a_inv_gx - g[nx:])
        return np.concatenate([a_inv_gx - a_inv_b @ step_y, step_y])

    return solve_saddle


def solve(problem, config: SolverConfig, initial=None, auc_eval=None) -> SolveResult:
    """Run ``config.method`` from ``initial``, a vector of ``dim_x + dim_y``
    finite numbers (default the origin); any other ``initial`` raises
    ValueError before the problem is queried.  The second-order methods read
    ``hessian()`` once and certify the saddle before the first step: a
    singular or non-saddle Hessian raises RuntimeError even at a point
    already within tolerance.  An unknown method raises ValueError.
    """
    require("method", config.method, METHOD)    # the config may have changed since its check
    n = problem.dim_x + problem.dim_y
    try:
        z = np.zeros(n) if initial is None else np.array(initial, dtype=float)
    except (TypeError, ValueError):             # ragged or not numbers
        z = None
    if z is None or z.shape != (n,) or not np.isfinite(z).all():
        raise ValueError(f"initial must be a vector of dim_x + dim_y = {n} finite numbers")
    notes: list[str] = []
    if config.method in FIRST_ORDER_METHODS:
        step = _first_order_step(problem, config)
    elif config.method == "newton":
        step = _newton_step(problem)
    else:
        step = _quasi_newton_step(problem, config, notes)
    return _iterate(problem, config, z, step, auc_eval,
                    dense=config.method in SECOND_ORDER_METHODS, notes=notes)


def _first_order_step(problem, config: SolverConfig):
    """Gradient descent ascent or extragradient: ``z - move * g``, where
    ``move`` is ``eta`` on the primal block (descent) and ``-eta`` on the
    dual (ascent).

    Simultaneous GDA steps with the gradient at the old iterate; alt-gda
    steps the dual with the gradient at the fresh primal and the old dual.
    Extragradient takes the step to a mid-point, then the full step from
    the old iterate with the mid-point gradient.
    """
    eta = _resolve_step(problem, config)
    nx = problem.dim_x
    move = np.repeat([eta, -eta], [nx, problem.dim_y])
    extragradient, alternate = config.method == "extragradient", config.method == "alt-gda"

    def step(t, z, g):
        if extragradient:                       # full step with the mid-point gradient
            g = problem.grad(z - move * g)
        elif alternate:                         # the dual sees the fresh primal
            fresh = np.concatenate([z[:nx] - eta * g[:nx], z[nx:]])
            g = np.concatenate([g[:nx], problem.grad(fresh)[nx:]])
        return z - move * g

    return step


def _newton_step(problem):
    """Full Newton step ``z - H^{-1} g``, solved with the certified
    Cholesky-Schur factors of the saddle Hessian (never an explicit
    inverse)."""
    solve_saddle = _saddle_factor(np.asarray(problem.hessian(), dtype=float), problem.dim_x)

    def step(t, z, g):
        return z - solve_saddle(g)

    return step


def _broyden_form(u: np.ndarray, qu: np.ndarray, hu: np.ndarray, tau: float | str):
    """Coefficients of one Broyden-family update as a 2x2 form.

    Returns ``(S, skipped)`` with ``Q_new = Q + V S V.T`` for ``V = [Qu, Hu]``.
    ``S`` blends the SR1 form ``-[[1, -1], [-1, 1]] / u.(Q - H)u`` with weight
    ``1 - tau`` and the DFP form ``[[0, -1], [-1, 1 + uQu/uHu]] / uHu`` with
    weight ``tau``; a component whose denominator guard fires is named in
    ``skipped`` and contributes nothing.
    """
    u_norm2 = float(u @ u)
    if u_norm2 == 0.0:
        raise ValueError("update direction u must be nonzero")
    require("tau", tau, BROYDEN_TAU)
    uhu = float(u @ hu)
    uqu = float(u @ qu)
    form = np.zeros((2, 2))

    if not isinstance(tau, str):
        tau_val = float(tau)
    elif tau == "bfgs":
        if uhu <= 0.0 or uqu <= 0.0:
            return form, ("bfgs",)
        tau_val = uhu / uqu
    else:
        tau_val = 0.0 if tau == "sr1" else 1.0      # dfp

    skipped = []
    if tau_val < 1.0:
        denom = float(u @ (qu - hu))            # u.(Q - H)u
        if denom <= SR1_DENOMINATOR_FLOOR * u_norm2:
            skipped.append("sr1")               # update skipped (degenerate curvature pair)
        else:
            form += ((tau_val - 1.0) / denom) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    if tau_val > 0.0:
        if uhu <= 0.0:
            skipped.append("dfp")               # update skipped (degenerate curvature pair)
        else:
            form += (tau_val / uhu) * np.array([[0.0, -1.0], [-1.0, 1.0 + uqu / uhu]])
    return form, tuple(skipped)


def broyden_update(Q: np.ndarray, H: np.ndarray, u: np.ndarray, tau: float | str):
    """One Broyden-family curvature update of the dominating approximation.

    Returns ``(Q_new, skipped)`` where ``skipped`` names any component whose
    denominator guard fired (that component leaves Q unchanged).  ``tau``
    blends DFP (tau=1) with SR1 (tau=0); the string "bfgs" selects the
    curvature-ratio value ``u@H@u / u@Q@u`` that reproduces the BFGS update.
    Requires ``Q`` symmetric positive definite with ``Q - H`` positive
    semidefinite for the guards to be meaningful.  This is the dense
    reference; ``qn-broyden`` applies the same form in factored form.
    """
    Q = np.asarray(Q, dtype=float)
    H = np.asarray(H, dtype=float)
    u = np.asarray(u, dtype=float)
    if Q.shape != H.shape or Q.shape[0] != u.size:
        raise ValueError("dimension mismatch between Q, H and u")
    V = np.column_stack([Q @ u, H @ u])
    form, skipped = _broyden_form(u, V[:, 0], V[:, 1], tau)
    if not form.any():
        return Q, skipped
    q_new = Q + V @ form @ V.T
    return 0.5 * (q_new + q_new.T), skipped     # kill round-off asymmetry


def _rank_one_pieces(form: np.ndarray, qu: np.ndarray, hu: np.ndarray):
    """Split ``V S V.T`` (``V = [qu, hu]``) into signed rank-1 pieces
    ``(sigma, a)``, positive pieces first.

    A 2x2 LDL^T pivoted on the larger diagonal entry of ``S``; a piece with
    ``sigma == 0`` is dropped, so an SR1 form (exactly singular) gives one
    and a zero form none.
    """
    if not form.any():
        return []
    (s00, s01), (_, s11) = form
    if abs(s00) > abs(s11):
        s00, s11, qu, hu = s11, s00, hu, qu
    pieces = [(s11, hu + (s01 / s11) * qu), ((s00 * s11 - s01 * s01) / s11, qu)]
    return sorted((p for p in pieces if p[0] != 0.0), key=lambda p: p[0] < 0.0)


def _greedy_index(dq: np.ndarray, dh: np.ndarray) -> int:
    """Index maximizing dq_i / dh_i over two diagonals (ties -> lowest index)."""
    if dq.size != dh.size:
        raise ValueError("Q and H must have matching shapes")
    if np.any(dh <= 0.0):
        raise ValueError("invalid curvature matrix")
    return int(np.argmax(dq / dh))


def greedy_direction(Q: np.ndarray, H: np.ndarray) -> int:
    """Standard-basis index maximizing Q_ii / H_ii (ties -> lowest index)."""
    return _greedy_index(np.diagonal(np.asarray(Q, dtype=float)),
                         np.diagonal(np.asarray(H, dtype=float)))


class _Curvature:
    """The dominating approximation ``Q`` of ``H = H_hat @ H_hat``.

    ``Q`` is kept dense (for ``Q u`` and its diagonal) and
    changed in place by signed rank-1 pieces ``sigma a a.T``.  ``Q^{-1}`` is
    applied as the inverse of a base (the scalar ``c`` of ``Q = c I`` at the
    start, later a Cholesky factor of ``Q``) minus a Woodbury correction in
    product form: piece ``j`` adds ``-gamma_j w_j w_j.T`` with
    ``w_j = Q^{-1} a_j`` and ``gamma_j = sigma_j / (1 + sigma_j a_j.w_j)``
    taken just before it (Sherman-Morrison).  The determinant lemma makes
    ``1 + sigma a.Q^{-1}a > 0`` the certificate that the piece keeps ``Q``
    positive definite.  Once the correction holds ``REBASE_RANK`` pieces,
    ``Q`` is refactored and becomes the base.
    """

    def __init__(self, n: int, scale: float):
        self.q = scale * np.eye(n)
        self.scale = scale
        self.factor = None
        self.w = np.empty((REBASE_RANK, n))
        self.gamma = np.empty(REBASE_RANK)
        self.rank = 0

    def solve(self, v: np.ndarray) -> np.ndarray:
        """``Q^{-1} v``."""
        if self.factor is None:
            x = v / self.scale
        else:
            x = scipy.linalg.cho_solve(self.factor, v, check_finite=False)
        if self.rank:
            w = self.w[:self.rank]
            x -= (self.gamma[:self.rank] * (w @ v)) @ w
        return x

    def add(self, sigma: float, a: np.ndarray):
        """``Q += sigma a a.T``, or RuntimeError if that would lose positive
        definiteness."""
        if self.rank == REBASE_RANK:
            try:
                self.factor = scipy.linalg.cho_factor(self.q, check_finite=False)
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
                raise RuntimeError("curvature approximation lost positive definiteness") from exc
            self.rank = 0
        w = self.solve(a)
        certificate = 1.0 + sigma * float(a @ w)
        if not certificate > 0.0:
            raise RuntimeError("curvature approximation lost positive definiteness")
        self.w[self.rank] = w
        self.gamma[self.rank] = sigma / certificate
        self.rank += 1
        # Q is symmetric, so updating its (Fortran-ordered) transpose in place updates Q
        scipy.linalg.blas.dger(sigma, a, a, a=self.q.T, overwrite_a=True)


def _quasi_newton_step(problem, config: SolverConfig, notes: list[str]):
    """Quasi-Newton iteration on the squared-Hessian reformulation.

    Maintains a positive definite ``Q`` dominating ``H = H_hat @ H_hat``,
    steps by ``-Q^{-1} H_hat g``, then refines ``Q`` with
    ``updates_per_iteration`` Broyden-family updates along greedily selected
    basis vectors or seeded Gaussian directions, appending a note to
    ``notes`` for each skipped component.  ``H`` is never formed:
    ``H u = H_hat (H_hat u)``, ``diag(H)`` is the squared column norms of
    ``H_hat`` and ``lambda_max(H) = ||H_hat||_2^2``.  Each update costs
    O(d^2) (see ``_Curvature``); ``Q`` is refactored once per
    ``REBASE_RANK`` rank-1 pieces, never per iteration.
    """
    greedy = config.direction_rule == "greedy-basis"
    h_hat = np.asarray(problem.hessian(), dtype=float)
    _saddle_factor(h_hat, problem.dim_x)        # certifies a unique saddle, or raises
    n = h_hat.shape[0]
    lam_max = spectral_norm_estimate(h_hat, seed=config.rng_seed) ** 2
    curvature = _Curvature(n, 1.01 * lam_max)   # dominance Q >= H at initialization
    dh = np.einsum("ij,ij->j", h_hat, h_hat)    # diag(H)
    rng = np.random.default_rng(config.rng_seed)

    def step(t, z, g):
        s = curvature.solve(h_hat @ g)
        for _ in range(config.updates_per_iteration):
            if greedy:
                i = _greedy_index(np.diagonal(curvature.q), dh)
                u = np.zeros(n)
                u[i] = 1.0
                hu = h_hat @ h_hat[:, i]
                qu = curvature.q[:, i].copy()   # Q e_i; a copy, as adding a piece changes Q
            else:
                u = rng.standard_normal(n)
                hu = h_hat @ (h_hat @ u)
                qu = curvature.q @ u
            form, skipped = _broyden_form(u, qu, hu, config.broyden_tau)
            for sigma, a in _rank_one_pieces(form, qu, hu):
                curvature.add(sigma, a)
            for component in skipped:
                notes.append(
                    f"iteration {t}: {component} update skipped (degenerate curvature pair)"
                )
        return z - s

    return step


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def trace_to_csv(trace: list[TraceRow]) -> str:
    """Render a trace as CSV (17 significant digits, empty optional cells)."""
    lines = [TRACE_HEADER]
    for row in trace:
        lines.append(
            f"{row.iteration},{_fmt(row.grad_norm)},{_fmt(row.objective)},"
            f"{_fmt(row.train_auc)},{_fmt(row.test_auc)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: list[TraceRow], path):
    Path(path).write_text(trace_to_csv(trace))
