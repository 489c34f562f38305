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

from .gridop import Grid, _write_csv, centered_gradient
from .spectral import SpectralDecomposition, _clean_spectrum, bessel_apply, sobolev_norm


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration failed; the residual history is attached."""

    def __init__(self, history):
        self.residual_history = list(history)
        super().__init__(
            f"Picard iteration did not converge after {len(self.residual_history)} sweeps; "
            f"last residual {self.residual_history[-1]:.3e} (horizon likely exceeds "
            "the contraction window)"
        )


class BlowUpError(RuntimeError):
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

    Variables per term for kind 'polynomial': (z, conj z); for kind
    'gradient': (z, conj z, dz_1..dz_n, d conj z_1..d conj z_n).
    Term degrees span [n1, n2] with n1 >= 2 unless the polynomial is zero.
    For gradient kind, ``energy_hypothesis`` records whether every
    d/d(dz_j) derivative is real at sampled states.
    """

    kind: str
    terms: tuple
    n1: int
    n2: int
    dim: int = 1
    energy_hypothesis: bool | None = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def n_vars(self) -> int:
        return 2 if self.kind == "polynomial" else 2 + 2 * self.dim

    def evaluate(self, states: np.ndarray, grid: Grid | None = None) -> np.ndarray:
        """Pointwise collocation evaluation; states have the dof axis first."""
        if self.is_zero:
            return np.zeros_like(np.asarray(states, dtype=complex))
        variables = self._variables(np.asarray(states, dtype=complex), grid)
        return _evaluate_terms(self.terms, variables)

    def _variables(self, states, grid):
        variables = [states, np.conj(states)]
        if self.kind == "gradient":
            if grid is None:
                raise ValueError("gradient nonlinearity needs the grid for derivatives")
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
    if not terms:
        return (), 0, 0
    degrees = [sum(p) for _, p in terms]
    n1, n2 = min(degrees), max(degrees)
    if n1 < 2:
        raise ValueError(f"total degree of every term must be >= 2, got {n1}")
    return tuple(terms), n1, n2


def polynomial_nonlinearity(raw_terms) -> Nonlinearity:
    """P(z, conj z) from (coeff, (p_z, p_zbar)) pairs."""
    terms, n1, n2 = _normalize_terms(raw_terms, 2)
    return Nonlinearity(kind="polynomial", terms=terms, n1=n1, n2=n2)


def gradient_nonlinearity(raw_terms, dim: int = 1, seed: int = 0) -> Nonlinearity:
    """Q(z, conj z, grad z, grad conj z) with the energy hypothesis sampled."""
    terms, n1, n2 = _normalize_terms(raw_terms, 2 + 2 * dim)
    ok = check_energy_hypothesis(terms, dim, seed=seed) if terms else True
    return Nonlinearity(kind="gradient", terms=terms, n1=n1, n2=n2, dim=dim,
                        energy_hypothesis=ok)


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


def check_energy_hypothesis(terms, dim: int, seed: int = 0, n_samples: int = 64,
                            tol: float = 1e-10) -> bool:
    """Whether dQ/d(dz_j) is real at conjugate-consistent random states."""
    rng = np.random.default_rng(seed)
    for j in range(dim):
        dterms = differentiate_terms(terms, 2 + j)
        if not dterms:
            continue
        z = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
        grads = [rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
                 for _ in range(dim)]
        variables = [z, np.conj(z)] + grads + [np.conj(g) for g in grads]
        vals = _evaluate_terms(dterms, variables)
        if np.abs(vals.imag).max() > tol * max(1.0, np.abs(vals).max()):
            return False
    return True


# ---------------------------------------------------------------------------
# scheme constants and the contraction horizon
# ---------------------------------------------------------------------------

def t_star_from_radius(radius: float, n1: int, n2: int, c_est: float) -> float:
    """Picard horizon: largest T with 2 c T (R^{N1-1} + R^{N2-1}) = 1/4."""
    if c_est <= 0:
        raise ValueError("c_est must be positive")
    if radius == 0.0:
        return math.inf
    return 1.0 / (8.0 * c_est * (radius ** (n1 - 1) + radius ** (n2 - 1)))


def estimate_t_star(u0, s: float, n1: int, n2: int, c_est: float,
                    grid: Grid | None = None) -> float:
    """Contraction horizon for the given data; +inf for zero data."""
    norm = _state_norm(u0, s, grid)
    return t_star_from_radius(8.0 * c_est * norm, n1, n2, c_est)


def _state_norm(u, s, grid):
    """Discrete H^s norm when a grid is given, plain l2 otherwise; one per column."""
    u = np.asarray(u)
    if grid is not None:
        return sobolev_norm(grid, s, u)
    return float(np.linalg.norm(u)) if u.ndim == 1 else np.linalg.norm(u, axis=0)


def measure_scheme_constant(nl: Nonlinearity, s: float, probes,
                            grid: Grid | None = None) -> float:
    """max over probes of |P(f)|_s / (|f|_s^{N1} + |f|_s^{N2})."""
    if nl.is_zero:
        return 0.0
    worst = 0.0
    for f in probes:
        nf = _state_norm(f, s, grid)
        if nf == 0:
            continue
        np_ = _state_norm(nl.evaluate(np.asarray(f, dtype=complex), grid), s, grid)
        worst = max(worst, np_ / (nf**nl.n1 + nf**nl.n2))
    return worst


def measure_lipschitz_constant(nl: Nonlinearity, s: float, probe_pairs,
                               grid: Grid | None = None) -> float:
    """max of |P(f)-P(g)|_s over the product-estimate denominator."""
    if nl.is_zero:
        return 0.0
    worst = 0.0
    for f, g in probe_pairs:
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        dn = _state_norm(f - g, s, grid)
        if dn == 0:
            continue
        nf, ng = _state_norm(f, s, grid), _state_norm(g, s, grid)
        denom = (nf ** (nl.n1 - 1) + nf ** (nl.n2 - 1)
                 + ng ** (nl.n1 - 1) + ng ** (nl.n2 - 1)) * dn
        diff = _state_norm(nl.evaluate(f, grid) - nl.evaluate(g, grid), s, grid)
        worst = max(worst, diff / denom)
    return worst


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


def _time_grid(t_final: float, dt: float) -> np.ndarray:
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be positive")
    n_steps = max(int(round(t_final / dt)), 1)
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


def _monitor_norms(states, grid, s):
    weight = 1.0 if grid is None else grid.spacing ** (grid.dim / 2.0)
    return np.linalg.norm(states, axis=1) * weight, _state_norm(states.T, s, grid)


def picard_solve(
    dec: SpectralDecomposition,
    alpha: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 60,
    grid: Grid | None = None,
    s: float = 2.0,
    c_est: float | None = None,
) -> Trajectory:
    """Solve the Duhamel fixed point on [0, T] by global Picard iteration.

    Each sweep evaluates u(t_k) = e^{i t_k L^alpha} u0
    + i * integral_0^{t_k} e^{i (t_k - t') L^alpha} P(u)(t') dt' with the
    composite trapezoid on the dt grid; the propagators are exact, so dt
    is the only time-discretization error source.
    """
    if nonlinearity.kind != "polynomial":
        raise ValueError("picard_solve takes a polynomial (non-gradient) nonlinearity")
    times = _time_grid(t_final, dt)
    if c_est is not None:
        t_star = estimate_t_star(u0, s, nonlinearity.n1 or 2, nonlinearity.n2 or 2,
                                 c_est, grid)
        if times[-1] > t_star:
            warnings.warn(
                f"horizon T = {times[-1]:.4g} exceeds the contraction estimate "
                f"T* = {t_star:.4g}; the iteration may not contract",
                stacklevel=2,
            )
    lam_a = _clean_spectrum(dec.eigenvalues) ** alpha
    u0 = np.asarray(u0, dtype=complex)
    u0_modes = dec.eigenvectors.T @ u0
    forward = np.exp(1j * times[:, None] * lam_a[None, :])   # e^{+i t_k lam^a}
    free = (forward * u0_modes[None, :]) @ dec.eigenvectors.T
    states = free.copy()

    history = []
    if nonlinearity.is_zero:
        iterations = 0
    else:
        iterations = None
        for sweep in range(1, max_iter + 1):
            p_modes = nonlinearity.evaluate(states.T, grid).T @ dec.eigenvectors
            w = np.conj(forward) * p_modes                   # e^{-i t' lam^a} P
            cs = np.cumsum(w, axis=0)
            integral = dt * (cs - 0.5 * (w[0][None, :] + w))
            new_states = free + 1j * (forward * integral) @ dec.eigenvectors.T
            diff = float(_state_norm((new_states - states).T, s, grid).max())
            history.append(diff)
            states = new_states
            if not np.isfinite(diff):
                raise PicardConvergenceError(history)
            if diff < tol:
                iterations = sweep
                break
        if iterations is None:
            raise PicardConvergenceError(history)

    l2, sob = _monitor_norms(states, grid, s)
    residual = _equation_residual(dec, 1j * lam_a, states, times,
                                  1j * nonlinearity.evaluate(states.T, grid).T, grid)
    return Trajectory(
        times=times,
        states=states,
        monitors={
            "l2_norm": l2,
            "sobolev_norm_s": sob,
            "picard_iterations": np.full(len(times), float(iterations)),
            "equation_residual": residual,
        },
        picard_residual_history=tuple(history),
    )


def _equation_residual(dec, symbol, states, times, forcing, grid):
    """h^{d/2} |du/dt - V diag(symbol) V^T u - forcing|_2 by centered differencing.

    Evaluated at interior output times; the end values repeat their
    neighbors. Picard passes symbol i lam^alpha and forcing i P(u), the
    viscous scheme symbol -eps lam^2 + i lam^alpha and forcing Q(u).
    """
    if len(times) < 3:
        return np.zeros(len(times))
    dt = times[1] - times[0]
    lsym = (states @ dec.eigenvectors * symbol[None, :]) @ dec.eigenvectors.T
    du = (states[2:] - states[:-2]) / (2.0 * dt)
    resid_interior = du - lsym[1:-1] - forcing[1:-1]
    out = np.empty(len(times))
    weight = 1.0 if grid is None else grid.spacing ** (grid.dim / 2.0)
    out[1:-1] = np.linalg.norm(resid_interior, axis=1) * weight
    out[0], out[-1] = out[1], out[-2]
    return out


def viscous_solve(
    dec: SpectralDecomposition,
    alpha: float,
    eps: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    dt: float,
    grid: Grid | None = None,
    s: int = 2,
    c_est: float = 1.0,
    blowup_factor: float = 10.0,
    growth_factor: float = 10.0,
) -> Trajectory:
    """Step the dissipative Duhamel equation with the exact linear propagator.

    Monitors the energy quantity |L^{s/2} u| and flags steps whose growth
    rate exceeds the measured bound c (|u|_s^2 + |u|_s^{N2}) by more than
    ``growth_factor``; raises when |u(t)|_s escapes the a-priori envelope
    8 c |u0|_s by more than ``blowup_factor``.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if s % 2 != 0:
        raise ValueError(f"monitoring index s must be an even integer, got {s}")
    if (nonlinearity.kind == "gradient" and not nonlinearity.is_zero
            and nonlinearity.energy_hypothesis is False):
        warnings.warn("gradient nonlinearity fails the energy hypothesis; "
                      "the a-priori envelope is not guaranteed", stacklevel=2)
    times = _time_grid(t_final, dt)
    lam = _clean_spectrum(dec.eigenvalues)
    symbol = -eps * lam**2 + 1j * lam**alpha
    step_mult = np.exp(dt * symbol)
    half_s = lam ** (s / 2.0)

    u0 = np.asarray(u0, dtype=complex)
    envelope = 8.0 * c_est * _state_norm(u0, s, grid)
    v = dec.eigenvectors.T @ u0  # modal state
    states = np.empty((len(times), dec.n_dof), dtype=complex)
    states[0] = u0
    energy = np.empty(len(times))
    energy[0] = np.linalg.norm(half_s * v)
    flags = []

    for k in range(1, len(times)):
        if nonlinearity.is_zero:
            v = step_mult * v
        else:
            u_phys = dec.eigenvectors @ v
            q0 = dec.eigenvectors.T @ nonlinearity.evaluate(u_phys, grid)
            predictor = step_mult * (v + dt * q0)
            q1 = dec.eigenvectors.T @ nonlinearity.evaluate(
                dec.eigenvectors @ predictor, grid
            )
            v = step_mult * v + 0.5 * dt * (step_mult * q0 + q1)
        states[k] = dec.eigenvectors @ v
        energy[k] = np.linalg.norm(half_s * v)

        norm_s = _state_norm(states[k], s, grid)
        if envelope > 0 and norm_s > blowup_factor * envelope:
            raise BlowUpError(times[k], norm_s, blowup_factor * envelope)
        growth = (energy[k] - energy[k - 1]) / dt
        n2 = nonlinearity.n2 if nonlinearity.n2 else 2
        bound = c_est * (norm_s**2 + norm_s**n2)
        if growth > growth_factor * max(bound, 1e-300):
            flags.append(times[k])

    l2, sob = _monitor_norms(states, grid, s)
    residual = _equation_residual(dec, symbol, states, times,
                                  nonlinearity.evaluate(states.T, grid).T, grid)
    return Trajectory(
        times=times,
        states=states,
        monitors={
            "l2_norm": l2,
            "sobolev_norm_s": sob,
            "energy_half_s": energy,
            "viscosity_epsilon": np.full(len(times), eps),
            "equation_residual": residual,
        },
        energy_flags=tuple(flags),
    )


@dataclass(frozen=True)
class ViscosityConvergenceTable:
    rows: tuple  # (eps, eps_prime, sup_t |u^eps - u^eps'|_{2,2})
    k_est: float
    r_squared: float


def viscosity_convergence(
    dec: SpectralDecomposition,
    alpha: float,
    u0: np.ndarray,
    nonlinearity: Nonlinearity,
    t_final: float,
    epsilons,
    dt: float,
    grid: Grid | None = None,
    s: int = 2,
    c_est: float = 1.0,
) -> ViscosityConvergenceTable:
    """Pairwise trajectory distances against (eps - eps'), with a linear fit."""
    epsilons = list(epsilons)
    if len(epsilons) < 2:
        raise ValueError("need at least two viscosity values")
    if any(b > a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be nonincreasing")
    runs = [viscous_solve(dec, alpha, e, u0, nonlinearity, t_final, dt,
                          grid=grid, s=s, c_est=c_est) for e in epsilons]
    rows = []
    for i in range(len(epsilons)):
        for j in range(i + 1, len(epsilons)):
            diff = runs[i].states - runs[j].states
            sup = _state_norm(diff.T, 2.0, grid).max()
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
    if l <= 0:
        raise ValueError("order l must be positive")
    f = np.asarray(f)
    g = np.asarray(g)
    if not f.any() or not g.any():
        return 0.0
    jfg, jg, jf = np.linalg.norm(bessel_apply(grid, l, np.column_stack([f * g, g, f])), axis=0)
    return float(jfg / (np.abs(f).max() * jg + np.abs(g).max() * jf))
