"""The transformed v-equation, energy/absorbing diagnostics, and pullback
estimation of the random attractor.

v solves dv/dt = A(theta_t w) v + F(v + sigma Z(theta_t w)) + f by exponential
Euler; u = v + sigma Z recovers the original solution.  The pullback estimate
integrates an ensemble forward against the pre-shifted path (time 0 on the
theta_{-T} fiber), which realizes phi(T, theta_{-T} w, .) with the forward
machinery verbatim.  Each horizon has its own chain, built just before
its march and dropped once the march ends.  The ensemble crosses each chain
block by block, and each block forms its own noise increments, so neither
the steps nor the noise a horizon holds grow with its length.

The energy monitor and its calibration reduce one envelope recurrence
(``_energy_terms``); cloud diameters and Hausdorff distances read one table
of squared X_alpha distances (``_squared_distances``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .evolution import PropagatorChain, build_chain, span_grid
from .noise import WienerPath, _as_index, wiener_shift
from .operators import (
    DiffusionField,
    FractionalNormSpec,
    fixed_laplacian_symbols,
    fractional_norm,
)
from .ou import construct_initial, propagate
from .pathwise import (
    NonlinearitySpec,
    SemilinearProblem,
    Trajectory,
    _march,
    integrate_semilinear,
)


def integrate_v(
    nonlinearity: NonlinearitySpec,
    forcing: np.ndarray | None,
    sigma: float,
    v0: np.ndarray,
    chain: PropagatorChain,
    z_states: np.ndarray | None,
) -> Trajectory:
    """March v over the chain grid; z_states[k] is Z(theta_{t_k} w).

    The chain is marched, so a caller that reads it again joins it first
    (``PropagatorChain.steps``).
    """
    shifts = None if (z_states is None or sigma == 0.0) else sigma * z_states
    v0 = np.asarray(v0, dtype=float)
    return _march(chain, v0, nonlinearity, forcing, shifts, None)


def transform_consistency(
    problem: SemilinearProblem,
    path: WienerPath,
    horizon: float,
    a: float,
    m: int,
    n_checkpoints: int = 8,
) -> float:
    """sup over checkpoints of ||u_direct(t) - (v(t) + sigma Z(theta_t w))||_{L2},
    relative to the direct solution's sup norm.

    v is stepped against the propagated Z; the comparison re-evaluates the
    stationary state on the shifted fiber at each checkpoint, so the value
    measures how consistently both representations discretize the same
    pathwise mild solution (it decreases under dt refinement).
    """
    grid = span_grid(0.0, horizon, path.dt)
    chain = build_chain(problem.field, path, grid, m)
    chain.steps  # marched three times (Z, u and v): joined once
    state0 = construct_initial(problem.field, path, a, m)
    z_traj = propagate(state0, chain)
    u_traj = integrate_semilinear(problem, chain)
    v0 = problem.u0 - problem.sigma * state0.z0
    v_traj = integrate_v(
        problem.nonlinearity,
        problem.forcing,
        problem.sigma,
        v0,
        chain,
        z_traj.states,
    )
    u_norm = float(u_traj.l2_norms().max())
    checkpoints = [
        grid.n_steps * (i + 1) // n_checkpoints for i in range(n_checkpoints)
    ]
    worst = 0.0
    for k in sorted(set(checkpoints)):
        t = k * grid.dt
        fiber = wiener_shift(path, path.index_of(t))
        z_here = construct_initial(problem.field, fiber, a, m).z0
        recomposed = v_traj.states[k] + problem.sigma * z_here
        worst = max(worst, float(np.linalg.norm(u_traj.states[k] - recomposed)))
    return worst / max(u_norm, 1e-30)


@dataclass(frozen=True)
class EnergyReport:
    """Lyapunov-envelope flags of an energy run."""

    flagged: np.ndarray  # steps where the monitored bound fails
    margin: float  # min over steps of bound / ||v||^2 (>= 1 passes)


def _energy_terms(v_traj: Trajectory, rate: float, z_pow: np.ndarray | None):
    """(k, ||v_k||^2, e^{-rate t_k} ||v_0||^2, B_k) for k = 1..K, with B_k the
    discrete exponentially weighted convolution of (z_pow + 1) (z_pow = 0
    when None): the one recurrence the monitor and its calibration read."""
    dt = v_traj.grid.dt
    times = v_traj.times
    v2 = np.einsum("ij,ij->i", v_traj.states, v_traj.states)
    decay = math.exp(-rate * dt)
    b = 0.0
    for k in range(1, v2.shape[0]):
        b = decay * b + dt * ((0.0 if z_pow is None else z_pow[k]) + 1.0)
        yield k, v2[k], math.exp(-rate * times[k]) * v2[0], b


def energy_monitor(
    v_traj: Trajectory,
    z_alpha_norms: np.ndarray | None,
    field: DiffusionField,
    nonlinearity: NonlinearitySpec,
    monitor_constant: float,
) -> EnergyReport:
    """Check ||v(t_k)||^2 <= exp(-delta lambda_1 t_k) ||v0||^2 + C_mon * B_k,

    with B_k the discrete exponentially weighted convolution of
    (||Z||_{X_alpha}^{rho+1} + 1).  Pure diagnostic: flags, never raises.
    """
    n = v_traj.states.shape[0]
    z_pow = (
        None
        if z_alpha_norms is None
        else np.asarray(z_alpha_norms[:n]) ** (nonlinearity.rho + 1.0)
    )
    flagged = np.zeros(n, dtype=bool)
    worst_margin = math.inf
    for k, v2, envelope, b in _energy_terms(v_traj, field.poincare_rate, z_pow):
        bound = envelope + monitor_constant * b
        flagged[k] = v2 > bound
        if v2 > 0:
            worst_margin = min(worst_margin, bound / v2)
    return EnergyReport(flagged, float(worst_margin))


def calibrate_monitor(v_traj: Trajectory, field: DiffusionField) -> float:
    """Monitor constant from a sigma = 0 run: smallest C making the bound hold
    there with margin 2, i.e. bound_k >= 2 ||v_k||^2 (then frozen).
    """
    needed = 0.0
    for _, v2, envelope, b in _energy_terms(v_traj, field.poincare_rate, None):
        needed = max(needed, (2.0 * v2 - envelope) / b)
    return max(needed, 0.0)


@dataclass(frozen=True)
class AbsorbingDiagnostics:
    """Attractor-scale functionals (the certified radii hide unnamed constants,
    so only the computable integrals and norms are reported)."""

    r2_integral: float
    rrho_integral: float
    z_l2: float
    z_eta: float


def absorbing_diagnostics(
    field: DiffusionField,
    path: WienerPath,
    a: float,
    rho: float,
    alpha: float,
    eta: float,
    m: int,
) -> AbsorbingDiagnostics:
    """Exponentially weighted history integrals of ||Z(theta_tau w)||_{X_alpha}.

    Z on [-a, 0] is produced by propagating the stationary state of the
    theta_{-a}-fiber forward, which matches the shift exactly on aligned grids.
    """
    k_a = path.index_of(-a)
    fiber = wiener_shift(path, k_a)
    state = construct_initial(field, fiber, a, m)
    grid = span_grid(0.0, a, fiber.dt)
    traj = propagate(state, build_chain(field, fiber, grid, m))
    weighted = traj.states * fixed_laplacian_symbols(m, alpha)
    z_alpha = np.sqrt(np.einsum("ij,ij->i", weighted, weighted))
    rate = field.poincare_rate
    taus = traj.grid.times - a  # tau in [-a, 0]
    weights = np.full(taus.shape, traj.grid.dt)
    weights[0] = weights[-1] = traj.grid.dt / 2.0
    envelope = np.exp(rate * taus)
    r2 = float(np.sum(weights * envelope * z_alpha ** (rho + 1.0)))
    rrho = float(np.sum(weights * envelope * z_alpha ** (2.0 * rho)))
    z_now = traj.states[-1]
    eta_spec = FractionalNormSpec(alpha=eta)
    return AbsorbingDiagnostics(
        r2_integral=r2,
        rrho_integral=rrho,
        z_l2=float(np.linalg.norm(z_now)),
        z_eta=fractional_norm(z_now, eta_spec),
    )


@dataclass(eq=False)
class PullbackEstimate:
    """Ensemble endpoints at time 0 for a ladder of pullback horizons."""

    horizons: tuple[float, ...]
    endpoints: list[np.ndarray]  # per horizon: (n_members, m), NaN rows blew up
    survivors: list[np.ndarray]  # boolean masks
    diameters: list[float]  # X_alpha diameter of the survivor cloud, NaN below 2
    eta_norms: list[float]  # max X_eta norm over survivors
    hausdorff_steps: list[float]  # d_H between successive survivor clouds
    flagged: bool  # any member blew up
    note: str = (
        "ensemble ball is a fixed surrogate for the tempered-set collection"
    )


def _squared_distances(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Squared X_alpha distances between the rows of ``a`` and of ``b``, by
    direct differences (|a|^2 + |b|^2 - 2ab cancels on collapsed clouds)."""
    symbols = fixed_laplacian_symbols(a.shape[1], alpha)
    diff = (a * symbols)[:, None, :] - (b * symbols)[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def cloud_diameter(cloud: np.ndarray, alpha: float) -> float:
    """Largest X_alpha distance between two points of the cloud: the square
    root of the largest of its pairwise squared distances.

    NaN for fewer than two points: one survivor (or none) shows no spread,
    and 0.0 would read as a collapsed cloud.
    """
    if cloud.shape[0] < 2:
        return math.nan
    return float(np.sqrt(_squared_distances(cloud, cloud, alpha).max()))


def hausdorff_distance(a: np.ndarray, b: np.ndarray, alpha: float) -> float:
    """Symmetric Hausdorff distance between coefficient clouds in the X_alpha
    metric (brute-force pairwise distances)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return math.nan
    d2 = _squared_distances(a, b, alpha)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def default_ensemble(
    m: int, alpha: float, radius: float = 2.0, n_random: int = 16, seed: int = 2024
) -> np.ndarray:
    """0, +-R e_n for n = 1..8, and random draws inside the X_alpha R-ball."""
    members = [np.zeros(m)]
    for n in range(1, min(8, m) + 1):
        e = np.zeros(m)
        e[n - 1] = radius
        members.append(e.copy())
        members.append(-e)
    rng = np.random.default_rng([seed, 77])
    symbols = fixed_laplacian_symbols(m, alpha)
    for _ in range(n_random):
        g = rng.standard_normal(m)
        norm = float(np.linalg.norm(g * symbols))
        members.append(g * (radius * rng.uniform() / norm))
    return np.stack(members)


def _check_horizons(horizons, key: str = "horizons") -> None:
    """Pullback horizons must be nonempty, positive and strictly increasing."""
    ladder = list(horizons)
    if not ladder or not ladder[0] > 0 or any(
        not later > earlier for earlier, later in zip(ladder, ladder[1:])
    ):
        raise ConfigurationError(
            f"{key} must be positive and strictly increasing, got {tuple(horizons)!r}"
        )


def _pullback_cloud(
    problem: SemilinearProblem, chain: PropagatorChain, ensemble: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints phi(t_j, theta_{-t_j} w, u_i) on the horizon's chain (NaN
    rows blew up) and the survivor mask.

    The chain is marched block by block (``PropagatorChain.blocks``): every
    surviving member crosses one block before the next is read, and the
    first member forms the block's noise increments, which the others read
    from the block (``corrected_increments``); a member that blows up is
    frozen there.  A block is waited for only when the march reaches it, so
    with chain workers the march starts while later blocks are still being
    built.  The chain is read once: each block releases the blocks below
    it, so a horizon holds a few blocks of its chain, and of their
    increments, whatever its length.
    """
    cloud = np.array(ensemble, dtype=float)
    alive = np.ones(ensemble.shape[0], dtype=bool)
    # one problem per member for the whole horizon: its u0 is the member's
    # row of the cloud, which each block's endpoint overwrites
    members = [dataclasses.replace(problem, u0=row) for row in cloud]
    for block in chain.blocks():
        for i in np.flatnonzero(alive):
            traj = integrate_semilinear(members[i], block)
            if traj.status == "completed":
                cloud[i] = traj.states[-1]
            else:
                alive[i] = False
    cloud[~alive] = np.nan
    return cloud, alive


def pullback_estimate(
    problem: SemilinearProblem,
    path: WienerPath,
    horizons: list[float],
    ensemble: np.ndarray,
    eta: float,
    m: int,
) -> PullbackEstimate:
    """phi(T_j, theta_{-T_j} w, u_i) for each horizon, with cloud statistics.

    Implemented by pre-shifting the path by -T_j and integrating the forward
    problem on [0, T_j]; blow-ups are recorded per member and the estimate
    proceeds with survivors (the run is flagged).  The horizons are taken
    in order: each one's chain is built on its pre-shifted fiber, marched
    once and dropped.
    """
    _check_horizons(horizons)
    alpha = problem.norm_spec.alpha
    endpoints: list[np.ndarray] = []
    survivors: list[np.ndarray] = []
    diameters: list[float] = []
    eta_norms: list[float] = []
    flagged = False
    eta_spec = FractionalNormSpec(alpha=eta)
    for t_j in horizons:
        fiber = wiener_shift(path, -_as_index(t_j, path.dt, "horizon"))
        grid = span_grid(0.0, t_j, path.dt)
        # the chain is held by _pullback_cloud alone, and dropped with it
        cloud, alive = _pullback_cloud(
            problem, build_chain(problem.field, fiber, grid, m), ensemble
        )
        flagged = flagged or not alive.all()
        endpoints.append(cloud)
        survivors.append(alive)
        living = cloud[alive]
        diameters.append(cloud_diameter(living, alpha))
        eta_norms.append(
            max((fractional_norm(x, eta_spec) for x in living), default=math.nan)
        )
    hausdorff_steps = [
        hausdorff_distance(
            endpoints[j][survivors[j]], endpoints[j + 1][survivors[j + 1]], alpha
        )
        for j in range(len(horizons) - 1)
    ]
    return PullbackEstimate(
        tuple(horizons),
        endpoints,
        survivors,
        diameters,
        eta_norms,
        hausdorff_steps,
        flagged,
    )
