"""Time integration for the fractional dispersive equation.

Two constructions are implemented as numerical schemes:

  * a global Picard (fixed point) iteration on the Duhamel form of
        i du/dt + L^alpha u + P(u, conj u) = 0,
    contracting whenever the horizon satisfies the smallness condition
    2 c T (R^{N1-1} + R^{N2-1}) <= 1/4 with R = 8 c |u0|_s;

  * a dissipative regularization du/dt = -eps L^2 u + i L^alpha u + Q,
    stepped through the exact propagator e^{t(-eps L^2 + i L^alpha)}
    with a trapezoid (predictor-corrector) Duhamel increment, plus the
    vanishing-viscosity convergence measurement.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gridop import Grid, NumericalError, _write_csv, centered_gradient
from .spectral import SpectralDecomposition, l2_norm, sobolev_norm, spectrum_power


class PicardConvergenceError(NumericalError):
    """Fixed-point iteration failed; residual history and contraction ratios are attached."""

    def __init__(self, history):
        h = self.residual_history = list(history)
        self.contraction_ratios = [b / a if a else math.nan for a, b in zip(h, h[1:])]
        super().__init__(
            f"Picard iteration did not converge after {len(h)} sweeps; "
            f"last residual {h[-1]:.3e} (horizon likely exceeds "
            "the contraction window)"
        )


class BlowUpError(NumericalError):
    """State norm escaped the a-priori envelope."""

    def __init__(self, t, norm, envelope):
        self.t, self.norm, self.envelope = t, norm, envelope
        super().__init__(f"blow-up flagged at t = {t:.6g}: |u|_s = {norm:.3e} "
                         f"exceeds envelope {envelope:.3e}")


# ---------------------------------------------------------------------------
# polynomial nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial nonlinearity with complex coefficients.

    Variables per term: (z, conj z, dz_1..dz_dim, d conj z_1..d conj z_dim), so
    dim = 0 is the pure power P(z, conj z) and the zero nonlinearity is the empty sum.
    Term degrees span [n1, n2] with n1 >= 2; the zero polynomial has n1 = n2 = 0.
    ``energy_hypothesis`` records whether every d/d(dz_j) derivative is real at
    every conjugate-consistent state; with no dz_j it holds vacuously.
    """

    terms: tuple
    n1: int
    n2: int
    dim: int
    energy_hypothesis: bool

    def evaluate(self, states: np.ndarray, grid: Grid) -> np.ndarray:
        """Pointwise collocation evaluation; states have the dof axis first, on ``grid``'s
        dofs, which a gradient nonlinearity differentiates on in its own dimension."""
        if self.dim and self.dim != grid.dim:
            raise ValueError(f"a {self.dim}-D gradient nonlinearity on a {grid.dim}-D grid")
        variables = self._variables(np.asarray(states, dtype=complex), grid)
        return _evaluate_terms(self.terms, variables)

    def _variables(self, states, grid):
        variables = [states, np.conj(states)]
        if self.dim:
            grads = centered_gradient(grid, states)
            variables += grads + [np.conj(g) for g in grads]
        return variables


def _evaluate_terms(terms, variables):
    out = np.zeros_like(variables[0], dtype=complex)
    for coeff, powers in terms:
        piece = np.full_like(out, coeff)
        for var, p in zip(variables, powers):
            if p:
                piece = piece * var**p
        out = out + piece
    return out


def _normalize_terms(raw_terms, n_vars):
    terms = []
    for coeff, powers in raw_terms:
        powers = tuple(int(p) for p in powers)
        if len(powers) != n_vars:
            raise ValueError(f"term powers must have length {n_vars}, got {len(powers)}")
        if any(p < 0 for p in powers):
            raise ValueError("term powers must be nonnegative")
        if coeff != 0:
            terms.append((complex(coeff), powers))
    degrees = [sum(p) for _, p in terms]
    if any(d < 2 for d in degrees):
        raise ValueError(f"total degree of every term must be >= 2, got {min(degrees)}")
    return tuple(terms), min(degrees, default=0), max(degrees, default=0)


def polynomial_nonlinearity(raw_terms) -> Nonlinearity:
    """P(z, conj z) from (coeff, (p_z, p_zbar)) pairs."""
    return gradient_nonlinearity(raw_terms, dim=0)


def gradient_nonlinearity(raw_terms, dim: int = 1) -> Nonlinearity:
    """Q(z, conj z, grad z, grad conj z) with the energy hypothesis checked."""
    terms, n1, n2 = _normalize_terms(raw_terms, 2 + 2 * dim)
    return Nonlinearity(terms, n1, n2, dim, check_energy_hypothesis(terms, dim))


def differentiate_terms(terms, var_index):
    """Formal partial derivative of a term list in one variable."""
    out = []
    for coeff, powers in terms:
        p = powers[var_index]
        if p:
            reduced = list(powers)
            reduced[var_index] = p - 1
            out.append((coeff * p, tuple(reduced)))
    return tuple(out)


def check_energy_hypothesis(terms, dim: int) -> bool:
    """Whether dQ/d(dz_j) is real at every conjugate-consistent state.

    With the variables (z, conj z, g, conj g), g = grad z, a polynomial is
    real for all z and g exactly when, after equal monomials are merged, the
    coefficient of z^a conj(z)^b g^c conj(g)^d is the conjugate of that of
    z^b conj(z)^a g^d conj(g)^c.
    """
    for j in range(dim):
        merged = {}
        for coeff, powers in differentiate_terms(terms, 2 + j):
            merged[powers] = merged.get(powers, 0j) + coeff
        scale = max([1.0, *map(abs, merged.values())])
        for (a, b, *g), coeff in merged.items():
            mirror = (b, a, *g[dim:], *g[:dim])
            if abs(coeff - merged.get(mirror, 0j).conjugate()) > 1e-10 * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# the contraction horizon
# ---------------------------------------------------------------------------

def check_c_est(c_est: float) -> None:
    """The measured constant c of the Picard horizon and of the viscous blow-up envelope is > 0."""
    if not c_est > 0:
        raise ValueError(f"c_est must be > 0, got {c_est}")


def t_star_from_radius(radius: float, n1: int, n2: int, c_est: float) -> float:
    """Picard horizon: largest T with 2 c T (R^{N1-1} + R^{N2-1}) = 1/4; +inf for zero data
    (R = 0) or the zero polynomial (N2 = 0), whose linear flow is global."""
    check_c_est(c_est)
    if radius == 0.0 or not n2:
        return math.inf
    return 1.0 / (8.0 * c_est * (radius ** (n1 - 1) + radius ** (n2 - 1)))


def estimate_t_star(u0, s: float, n1: int, n2: int, c_est: float, grid: Grid) -> float:
    """Contraction horizon for the given data on ``grid``; +inf for zero data or the zero
    polynomial."""
    norm = sobolev_norm(grid, s, u0)
    return t_star_from_radius(8.0 * c_est * norm, n1, n2, c_est)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # complex, shape (n_times, n_dof)
    monitors: dict = field(default_factory=dict)
    picard_residual_history: tuple = ()
    energy_flags: tuple = ()

    def export_csv(self, path) -> None:
        n_t, n_x = self.states.shape
        _write_csv(path, "time,node,re_u,im_u", [np.repeat(self.times, n_x),
                                                 np.tile(np.arange(n_x), n_t),
                                                 self.states.real.ravel(),
                                                 self.states.imag.ravel()])

    def export_monitors_csv(self, path) -> None:
        _write_csv(path, ",".join(["time", *self.monitors]),
                   [self.times, *self.monitors.values()])


def check_time_grid(t_final: float, dt: float) -> int:
    """The step count of _time_grid, whose rule it holds without allocating the grid."""
    # written so that NaN fails, and an infinity or an overflowing step count too
    if not (0 < t_final < math.inf and 0 < dt < math.inf and t_final / dt < math.inf):
        raise ValueError(f"t_final, dt and t_final / dt must be positive and finite, "
                         f"got {t_final} and {dt}")
    return max(int(round(t_final / dt)), 1)


def _time_grid(t_final: float, dt: float) -> np.ndarray:
    n_steps = check_time_grid(t_final, dt)
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


# picard_solve's peak memory over the bytes of its states array, measured with
# tracemalloc (1-D, 64 dofs, a cubic term): 8.1 at 2000 steps, 8.6 at 500.
# A sweep holds forward, states, modes and new_states, each the size of states,
# plus the Sobolev-norm temporaries of the sweep difference; those of the Duhamel
# integral are freed when _duhamel_modes returns.
PICARD_WORKING_SET = 9.0


def check_picard(tol: float, max_iter: int, c_est: float | None) -> None:
    """picard_solve's rules, which need no decomposition; a null c_est skips the horizon check."""
    if not tol > 0:  # NaN too: no sweep difference is below it
        raise ValueError(f"tol must be > 0, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if c_est is not None:
        check_c_est(c_est)


def picard_solve(
    dec: SpectralDecomposition,
    alpha: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 60,
    s: float = 2.0,
    c_est: float | None = None,
) -> Trajectory:
    """Solve the Duhamel fixed point on [0, T] by global Picard iteration.

    Each sweep evaluates u(t_k) = e^{i t_k L^alpha} u0
    + i * integral_0^{t_k} e^{i (t_k - t') L^alpha} P(u)(t') dt' with the
    composite trapezoid on the dt grid; the propagators are exact, so dt
    is the only time-discretization error source. Norms are taken on the
    grid of ``dec.source``.
    """
    if nonlinearity.dim:
        raise ValueError("picard_solve takes a polynomial (non-gradient) nonlinearity")
    check_picard(tol, max_iter, c_est)
    grid = dec.source.grid
    times = _time_grid(t_final, dt)
    if c_est is not None:
        t_star = estimate_t_star(u0, s, nonlinearity.n1, nonlinearity.n2, c_est, grid)
        if times[-1] > t_star:
            warnings.warn(
                f"horizon T = {times[-1]:.4g} exceeds the contraction estimate "
                f"T* = {t_star:.4g}; the iteration may not contract",
                stacklevel=2,
            )
    lam_a = spectrum_power(dec, alpha)
    u0_modes = dec.to_modes(np.asarray(u0, dtype=complex))
    forward = np.exp(1j * times[:, None] * lam_a[None, :])   # e^{+i t_k lam^a}
    modes = forward * u0_modes
    # the rows of modes and states are times; the transforms take the dof axis first
    states = dec.from_modes(modes.T).T

    history = []
    for iterations in range(1, max_iter + 1):
        modes = _duhamel_modes(forward, u0_modes,
                               dec.to_modes(nonlinearity.evaluate(states.T, grid)).T, dt)
        new_states = dec.from_modes(modes.T).T
        diff = float(sobolev_norm(grid, s, (new_states - states).T).max())
        history.append(diff)
        states = new_states
        # stop before the growing iterates overflow
        grew_twice = len(history) >= 3 and history[-3] < history[-2] < history[-1]
        if grew_twice or not np.isfinite(diff):
            raise PicardConvergenceError(history)
        if diff < tol:
            break
    else:
        raise PicardConvergenceError(history)

    residual = _equation_residual(grid, 1j * lam_a, modes, times,
                                  1j * dec.to_modes(nonlinearity.evaluate(states.T, grid)).T)
    return Trajectory(
        times=times,
        states=states,
        monitors={
            "l2_norm": l2_norm(grid, states.T),
            "sobolev_norm_s": sobolev_norm(grid, s, states.T),
            "picard_iterations": np.full(len(times), float(iterations)),
            "equation_residual": residual,
        },
        picard_residual_history=tuple(history),
    )


def _duhamel_modes(forward, u0_modes, p_modes, dt):
    """Modes of e^{i t L^alpha} u0 + i int_0^t e^{i (t - t') L^alpha} P dt', by the trapezoid."""
    w = np.conj(forward) * p_modes                           # e^{-i t' lam^a} P
    integral = dt * (np.cumsum(w, axis=0) - 0.5 * (w[0] + w))
    return forward * (u0_modes + 1j * integral)


def _equation_residual(grid, symbol, modes, times, forcing):
    """h^{d/2} |(v_{k+1} - E^2 v_{k-1}) / (2 dt) - E F_k|_2 of modal states v, E = e^{symbol dt}.

    The midpoint rule of Duhamel's formula over [t_{k-1}, t_{k+1}]: the exact linear flow
    leaves roundoff only, and |E| <= 1 (Re symbol <= 0) cannot overflow. With orthonormal
    eigenvectors it is the physical residual's norm, at interior output times; the ends repeat
    their neighbors. Picard passes symbol i lam^alpha and forcing i V^T P(u), the viscous
    scheme symbol -eps lam^2 + i lam^alpha and forcing V^T Q(u).
    """
    if len(times) < 3:
        return np.zeros(len(times))
    dt = times[1] - times[0]
    step = np.exp(symbol * dt)
    resid_interior = (modes[2:] - step**2 * modes[:-2]) / (2.0 * dt) - step * forcing[1:-1]
    return np.pad(l2_norm(grid, resid_interior.T), 1, mode="edge")


# viscous_solve's peak memory over the bytes of its states array, measured with
# tracemalloc (1-D, 64 dofs, a gradient-cubic term): 5.1 at 2000 steps, 5.7 at
# 500, set by the states, the modes and the modal forcing with the temporaries
# of the equation residual after the steps.
VISCOUS_WORKING_SET = 6.0

# viscous_solve's energy-flag and blow-up multiples (see its docstring)
GROWTH_FACTOR = 10.0
BLOWUP_FACTOR = 10.0


def check_viscous(eps: float, s: int, c_est: float) -> None:
    """viscous_solve's rules, which need no decomposition."""
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if not (s >= 0 and s % 2 == 0):
        raise ValueError(f"monitoring index s must be an even integer >= 0, got {s}")
    check_c_est(c_est)


def viscous_solve(
    dec: SpectralDecomposition,
    alpha: float,
    eps: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    dt: float,
    s: int = 2,
    c_est: float = 1.0,
) -> Trajectory:
    """Step the dissipative Duhamel equation with the exact linear propagator.

    Monitors the energy quantity |L^{s/2} u| and flags steps whose growth
    rate exceeds the measured bound c (|u|_s^2 + |u|_s^{N2}) by more than
    ``GROWTH_FACTOR``; raises when |u(t)|_s, on the grid of ``dec.source``,
    escapes the a-priori envelope 8 c |u0|_s by more than ``BLOWUP_FACTOR``.
    """
    check_viscous(eps, s, c_est)
    if not nonlinearity.energy_hypothesis:
        warnings.warn("gradient nonlinearity fails the energy hypothesis; "
                      "the a-priori envelope is not guaranteed", stacklevel=2)
    grid = dec.source.grid
    times = _time_grid(t_final, dt)
    lam2 = spectrum_power(dec, 2.0)
    # python floats: the damping's largest rate, and its step, overflow to inf with no warning
    if not eps * float(lam2[-1]) * max(dt, 1.0) < math.inf:
        raise NumericalError(f"the viscous symbol overflows: eps lambda_max^2 max(dt, 1) is past "
                             f"the largest float at eps = {eps:.6g}, lambda_max^2 = "
                             f"{lam2[-1]:.6e}, dt = {dt:.6g}")
    symbol = -eps * lam2 + 1j * spectrum_power(dec, alpha)
    step_mult = np.exp(dt * symbol)

    u0 = np.asarray(u0, dtype=complex)
    norm_s = np.empty(len(times))
    norm_s[0] = sobolev_norm(grid, s, u0)
    envelope = 8.0 * c_est * norm_s[0]
    states = np.empty((len(times), dec.n_dof), dtype=complex)
    modes = np.empty_like(states)
    forcing = np.zeros_like(states)  # V^T Q(u_k); no step reads the last row, which stays 0
    states[0], modes[0] = u0, dec.to_modes(u0)
    for k in range(1, len(times)):
        q0 = forcing[k - 1] = dec.to_modes(nonlinearity.evaluate(states[k - 1], grid))
        predictor = step_mult * (modes[k - 1] + dt * q0)
        q1 = dec.to_modes(nonlinearity.evaluate(dec.from_modes(predictor), grid))
        modes[k] = step_mult * modes[k - 1] + 0.5 * dt * (step_mult * q0 + q1)
        states[k] = dec.from_modes(modes[k])
        # the blow-up guard runs each step, so it fires before the states overflow,
        # and on a NaN norm, which fails every comparison
        norm_s[k] = sobolev_norm(grid, s, states[k])
        if not norm_s[k] <= BLOWUP_FACTOR * envelope:
            raise BlowUpError(times[k], norm_s[k], BLOWUP_FACTOR * envelope)

    residual = _equation_residual(grid, symbol, modes, times, forcing)
    energy = np.linalg.norm(spectrum_power(dec, s / 2.0) * np.abs(modes), axis=1)
    bound = c_est * (norm_s[1:]**2 + norm_s[1:]**nonlinearity.n2)
    flagged = np.diff(energy) / dt > GROWTH_FACTOR * np.maximum(bound, 1e-300)
    return Trajectory(
        times=times,
        states=states,
        monitors={
            "l2_norm": l2_norm(grid, states.T),
            "sobolev_norm_s": norm_s,
            "energy_half_s": energy,
            "viscosity_epsilon": np.full(len(times), eps),
            "equation_residual": residual,
        },
        energy_flags=tuple(times[1:][flagged]),
    )


@dataclass(frozen=True)
class ViscosityConvergenceTable:
    rows: tuple  # (eps, eps_prime, sup_t |u^eps - u^eps'|_{2,2})
    k_est: float
    r_squared: float


def check_viscosities(epsilons, s: int, c_est: float) -> None:
    """viscosity_convergence's rules: two or more nonincreasing epsilons viscous_solve takes."""
    if not (len(epsilons) >= 2 and all(a >= b for a, b in zip(epsilons, epsilons[1:]))):
        raise ValueError(f"epsilons must be two or more nonincreasing values, got {epsilons}")
    check_viscous(epsilons[-1], s, c_est)  # the least of them


def viscosity_convergence(
    dec: SpectralDecomposition,
    alpha: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    epsilons,
    dt: float,
    s: int = 2,
    c_est: float = 1.0,
) -> ViscosityConvergenceTable:
    """Pairwise trajectory distances against (eps - eps'), with a linear fit."""
    epsilons = list(epsilons)
    check_viscosities(epsilons, s, c_est)
    runs = [viscous_solve(dec, alpha, e, u0, nonlinearity, t_final, dt, s=s, c_est=c_est)
            for e in epsilons]
    rows = []
    for i in range(len(epsilons)):
        for j in range(i + 1, len(epsilons)):
            diff = runs[i].states - runs[j].states
            sup = sobolev_norm(dec.source.grid, 2.0, diff.T).max()
            rows.append((float(epsilons[i]), float(epsilons[j]), float(sup)))
    x = np.array([a - b for a, b, _ in rows])
    y = np.array([v for _, _, v in rows])
    if np.all(x == 0.0):
        return ViscosityConvergenceTable(tuple(rows), 0.0, 1.0)
    k_est = float((x @ y) / (x @ x))
    ss_res = float(((y - k_est * x) ** 2).sum())
    ss_tot = float((y**2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ViscosityConvergenceTable(tuple(rows), k_est, float(r2))


def kato_ponce_check(grid: Grid, l: float, f: np.ndarray, g: np.ndarray) -> float:
    """Product-estimate quotient |J^l(fg)|_2 / (|f|_inf |J^l g|_2 + |g|_inf |J^l f|_2)."""
    if not l > 0:
        raise ValueError(f"order l must be > 0, got {l}")
    f = np.asarray(f)
    g = np.asarray(g)
    if not f.any() or not g.any():
        return 0.0
    jfg, jg, jf = sobolev_norm(grid, l, np.column_stack([f * g, g, f]))  # h^{d/2} cancels
    return float(jfg / (np.abs(f).max() * jg + np.abs(g).max() * jf))
