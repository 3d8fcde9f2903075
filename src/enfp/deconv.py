"""Semi-parametric deconvolution of the effect-size prior (g-modeling).

The prior g(theta) over a uniform grid is parameterized through a natural
cubic spline basis Q: g(alpha) = softmax(Q @ alpha).  Fitting maximizes
the penalized log-likelihood

    sum_i log f_i(alpha) - c0 * ||alpha||,

where f_i is the mixture likelihood of observation i: phi(z - theta_j)
averaged over the prior for an exact z, and the normal interval
probability for an interval-censored observation.  The penalty is the
Euclidean norm of the coefficient vector, which shrinks the fit toward
the uniform prior (alpha = 0).

Optimization is Newton ascent with a ridge fallback and a backtracking
line search; see ``fit_g`` for the convergence contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from enfp import _fields
from enfp.hcurve import ZERO_TOLERANCE, h_values
from enfp.special import log_norm_pdf, norm_interval_prob

MODEL_FORMAT = "enfp-prior-model/1"

_LOG_FLOOR = 1e-300  # guards log of the mixture likelihood


@dataclass(frozen=True)
class ObservationSet:
    """A sample of standardized statistics, exact and interval-censored.

    Args:
        exact_z: observed z values.
        censored: (low, high) intervals in z-space for observations known
            only up to an interval.
    """

    exact_z: Tuple[float, ...] = ()
    censored: Tuple[Tuple[float, float], ...] = ()
    # Likelihood matrices already built for this set, keyed by the bytes
    # of the theta grid; see ``_likelihood``.
    _matrices: Dict[bytes, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        exact = tuple(float(z) for z in self.exact_z)
        if any(map(math.isnan, exact)):
            raise ValueError("exact_z must not contain NaN")
        cens = []
        for low, high in self.censored:
            low, high = float(low), float(high)
            if not low < high:
                raise ValueError(
                    f"censored interval must satisfy low < high, "
                    f"got ({low}, {high})"
                )
            cens.append((low, high))
        object.__setattr__(self, "exact_z", exact)
        object.__setattr__(self, "censored", tuple(cens))

    @property
    def n_total(self) -> int:
        return len(self.exact_z) + len(self.censored)

    def resample(self, rng: np.random.Generator) -> "ObservationSet":
        """Draw a bootstrap resample of the pooled observation multiset.

        Exact and censored observations are resampled jointly, so the
        censoring fraction varies naturally across replicates.
        """
        rows = self._resample_rows(rng)
        n_exact = int(np.count_nonzero(rows < len(self.exact_z)))
        pooled = self.exact_z + self.censored
        return ObservationSet(
            exact_z=tuple(pooled[i] for i in rows[:n_exact]),
            censored=tuple(pooled[i] for i in rows[n_exact:]),
        )

    def _resample_rows(self, rng: np.random.Generator) -> np.ndarray:
        """Pooled row indices of one bootstrap draw: the exact draws
        first, then the censored ones, each in draw order.

        This is the row order ``likelihood_matrix`` gives the resampled
        set, so ``self._likelihood(theta)[rows]`` equals the resample's
        own likelihood matrix bit for bit.
        """
        n = self.n_total
        idx = rng.integers(0, n, size=n)
        is_exact = idx < len(self.exact_z)
        return np.concatenate((idx[is_exact], idx[~is_exact]))

    def _likelihood(self, theta: np.ndarray) -> np.ndarray:
        """``likelihood_matrix(self, theta)``, built once per grid and
        kept read-only, since the set itself is immutable."""
        theta = np.ascontiguousarray(theta, dtype=float)
        key = theta.tobytes()
        p_matrix = self._matrices.get(key)
        if p_matrix is None:
            p_matrix = likelihood_matrix(self, theta)
            p_matrix.flags.writeable = False
            self._matrices[key] = p_matrix
        return p_matrix


@dataclass(frozen=True)
class FitConfig:
    """Configuration for prior fitting.

    Grid defaults cover Phase III superiority statistics with slack:
    theta in [-6, 15], step 0.05.  The penalty c0 applies to the
    Euclidean norm of the spline coefficients.
    """

    grid_low: float = -6.0
    grid_high: float = 15.0
    grid_step: float = 0.05
    basis_df: int = 6
    penalty_c0: float = 1.0
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    min_observations: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("grid_low", "grid_high", "grid_step", "penalty_c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.grid_low < 0.0 < self.grid_high:
            raise ValueError("grid must satisfy grid_low < 0 < grid_high")
        if self.grid_step <= 0.0:
            raise ValueError("grid_step must be > 0")
        if self.basis_df < 2:
            raise ValueError("basis_df must be >= 2")
        if self.penalty_c0 < 0.0:
            raise ValueError("penalty_c0 must be >= 0")
        if not 0.0 < self.gradient_tolerance < math.inf:
            raise ValueError("gradient_tolerance must be finite and > 0")
        for name in ("max_iterations", "min_observations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def theta_grid(self) -> np.ndarray:
        """Uniform theta grid; points are exact integer multiples of the
        step so that a grid point lands exactly on 0 whenever grid_low is
        a multiple of grid_step."""
        n_steps = int(round((self.grid_high - self.grid_low) / self.grid_step))
        k0 = int(round(self.grid_low / self.grid_step))
        return (k0 + np.arange(n_steps + 1)) * self.grid_step

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FitConfig":
        """Read a ``fit_config`` object strictly: a field has the type
        of its default and takes it when absent; no other key is allowed."""
        defaults = {f.name: f.default for f in fields(cls)}
        for key in _fields.document(data).keys() - defaults.keys():
            raise ValueError(f"fit_config.{key}: unknown field")
        return cls(**{
            name: _fields.read(data, name, type(value), "fit_config.", value)
            for name, value in defaults.items()
        })


@dataclass(frozen=True)
class PriorModel:
    """A discrete prior: its support, a strictly ascending theta grid,
    and the mass at each point, with fit provenance.

    A fit lays the grid out uniformly (``FitConfig``); any other
    ascending grid, such as a simulator's own support, is equally valid.
    Masses are nonnegative and sum to one (renormalized exactly at
    construction).  ``log_likelihood`` is the unpenalized value at the
    optimum when the model came from a fit; ``coefficients`` are the
    fitted spline coefficients, or None for hand-built models.
    """

    theta_grid: np.ndarray
    masses: np.ndarray
    basis_df: int = 0
    penalty_c0: float = 0.0
    coefficients: Optional[np.ndarray] = None
    log_likelihood: Optional[float] = None
    converged: bool = True
    fit_config: Optional[FitConfig] = None
    diagnostics: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_grid, dtype=float).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        if theta.size < 1 or theta.shape != masses.shape:
            raise ValueError("theta_grid and masses must be congruent")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_grid must be finite")
        if np.any(np.diff(theta) <= 0):
            raise ValueError("theta_grid must be strictly ascending")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        total = masses.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("masses must have positive finite total")
        if abs(total - 1.0) > 1e-6:
            raise ValueError("masses must sum to 1 (got %r)" % total)
        masses = masses / total
        theta = theta.copy()
        theta.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "theta_grid", theta)
        object.__setattr__(self, "masses", masses)
        if self.coefficients is not None:
            coef = np.asarray(self.coefficients, dtype=float).copy()
            coef.flags.writeable = False
            object.__setattr__(self, "coefficients", coef)

    @classmethod
    def from_masses(cls, theta_points, masses) -> "PriorModel":
        """Build a model directly from grid points and masses.

        Points must be strictly ascending; masses are normalized to sum
        to one.
        """
        masses = np.asarray(masses, dtype=float)
        total = masses.sum()  # a zero, infinite or NaN one is refused
        return cls(
            theta_grid=np.asarray(theta_points, dtype=float),
            masses=masses / total if 0.0 < total < math.inf else masses,
        )

    @property
    def model_id(self) -> str:
        """Stable 12-hex-digit content hash of grid and masses."""
        return _content_id(self.theta_grid, self.masses)

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            **_jsonable(asdict(self)),
            "model_id": self.model_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PriorModel":
        """Inverse of :meth:`to_dict`, reading every field strictly.
        ``diagnostics`` is opaque but for the bootstrap bands.  A stored
        ``model_id`` must hash the stored grid and masses, which the
        model then keeps bit for bit, so its ``model_id`` survives."""
        fmt = _fields.document(data).get("format")
        if fmt != MODEL_FORMAT:
            raise ValueError(f"unsupported model format: {fmt!r}")
        theta = np.array(_fields.numbers(data, "theta_grid"))
        masses = np.array(_fields.numbers(data, "masses"))
        stored_id = _fields.read(data, "model_id", str, default=None)
        if stored_id not in (None, _content_id(theta, masses)):
            raise ValueError(
                f"model_id: {stored_id!r} is not the hash of the stored "
                "theta_grid and masses"
            )
        config = _fields.read(data, "fit_config", dict, default=None)
        model = cls(
            theta_grid=theta,
            masses=masses,
            basis_df=_fields.read(data, "basis_df", int, default=0),
            penalty_c0=_fields.read(data, "penalty_c0", float, default=0.0),
            coefficients=_fields.numbers(data, "coefficients", "", None),
            log_likelihood=_fields.read(
                data, "log_likelihood", float, default=None
            ),
            converged=_fields.read(data, "converged", bool, default=True),
            fit_config=None if config is None else FitConfig.from_dict(config),
            diagnostics=_read_diagnostics(data),
        )
        if stored_id is not None:
            # Renormalizing written masses can move their last bits.
            masses.flags.writeable = False
            object.__setattr__(model, "masses", masses)
        return model

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "PriorModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _content_id(theta: np.ndarray, masses: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(theta).tobytes())
    digest.update(np.ascontiguousarray(masses).tobytes())
    return digest.hexdigest()[:12]


def _read_diagnostics(data: dict) -> dict:
    """A model's ``diagnostics``, opaque but for the bootstrap h bands:
    none, or ``h_low`` and ``h_high`` in [0, 1] on an ascending
    ``z_grid`` of their length."""
    diagnostics = _fields.read(data, "diagnostics", dict, "", {})
    where = "diagnostics.bootstrap."
    boot = _fields.read(diagnostics, "bootstrap", dict, "diagnostics.", {})
    z, low, high = (
        _fields.numbers(boot, key, where, [])
        for key in ("z_grid", "h_low", "h_high")
    )
    if not len(z) == len(low) == len(high):
        raise ValueError(f"{where}h_low and h_high need one value per z")
    if any(b <= a for a, b in zip(z, z[1:])):
        raise ValueError(f"{where}z_grid must be strictly ascending")
    if not all(0.0 <= h <= 1.0 for h in low + high):
        raise ValueError(f"{where}h_low and h_high must lie in [0, 1]")
    return dict(diagnostics)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def natural_spline_basis(x: np.ndarray, df: int) -> np.ndarray:
    """Natural cubic spline basis on x with the given degrees of freedom.

    Uses the truncated-power construction with df + 1 knots spaced
    uniformly over the range of x; the constant function is dropped
    (softmax is invariant to it) and columns are centered and scaled to
    unit standard deviation for conditioning.

    Args:
        x: evaluation points (the theta grid).
        df: number of basis columns returned.

    Returns:
        Array of shape (len(x), df).
    """
    x = np.asarray(x, dtype=float)
    n_knots = df + 1
    if n_knots < 3:
        raise ValueError("df must be >= 2 for a natural cubic spline")
    knots = np.linspace(x[0], x[-1], n_knots)

    def d_term(k_idx: int) -> np.ndarray:
        num = (
            np.maximum(x - knots[k_idx], 0.0) ** 3
            - np.maximum(x - knots[-1], 0.0) ** 3
        )
        return num / (knots[-1] - knots[k_idx])

    cols = [x]
    d_last = d_term(n_knots - 2)
    for k in range(n_knots - 2):
        cols.append(d_term(k) - d_last)
    basis = np.column_stack(cols)
    basis = basis - basis.mean(axis=0)
    scale = basis.std(axis=0)
    scale[scale == 0.0] = 1.0
    return basis / scale


def likelihood_matrix(obs: ObservationSet, theta: np.ndarray) -> np.ndarray:
    """Per-observation likelihood over grid points, exact rows first.

    Row i, column j holds the likelihood of observation i when the true
    effect is theta_j: phi(z_i - theta_j) for exact observations,
    Phi(high - theta_j) - Phi(low - theta_j) for censored intervals.
    """
    theta = np.asarray(theta, dtype=float)
    blocks = []
    if obs.exact_z:
        z = np.asarray(obs.exact_z, dtype=float)
        blocks.append(np.exp(log_norm_pdf(z[:, None] - theta[None, :])))
    if obs.censored:
        intervals = np.asarray(obs.censored, dtype=float)
        low = intervals[:, 0][:, None] - theta[None, :]
        high = intervals[:, 1][:, None] - theta[None, :]
        blocks.append(norm_interval_prob(low, high))
    if not blocks:
        return np.zeros((0, theta.size))
    return np.vstack(blocks)


def _masses_from_coefficients(
    basis: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    eta = basis @ alpha
    eta -= eta.max()
    g = np.exp(eta)
    return g / g.sum()


def _fit_alpha(
    p_matrix: np.ndarray,
    basis: np.ndarray,
    cfg: FitConfig,
    alpha0: Optional[np.ndarray] = None,
) -> dict:
    """Newton ascent on the penalized log-likelihood in coefficient space.

    Each iteration steps along the first of the Newton direction,
    increasingly ridged Newton directions and steepest ascent on which a
    backtracking line search finds an Armijo increase (Boyd &
    Vandenberghe 2004, section 9.5).

    Returns a dict with keys alpha, masses, converged, iterations,
    gradient_norm, objective_trace and stop_reason:
    ``gradient_tolerance`` (the only converged one), ``stall_window``
    (see the stagnation guard), ``no_acceptable_step`` (no direction
    gave an Armijo step) or ``max_iterations``.
    """
    n_obs, n_grid = p_matrix.shape
    df = basis.shape[1]
    c0 = cfg.penalty_c0
    alpha = (
        np.zeros(df) if alpha0 is None else np.asarray(alpha0, dtype=float)
    ).copy()
    # w = P * g / f, rewritten in place by every penalized_gradient call;
    # the Hessian reads the one made at the current alpha.
    w = np.empty(p_matrix.shape)
    # The Hessian's w @ basis contracts over the long grid axis; OpenBLAS
    # multiplies a C-ordered (n_obs, n_grid) matrix by an F-ordered
    # (n_grid, df) one an order of magnitude faster than by a C-ordered
    # one (0.5 ms instead of 5.9 ms at 1393 x 321 x 20 with two threads on
    # a 2-vCPU x86-64 VM), with the same result.
    basis_f = np.asfortranarray(basis)

    def evaluate(a: np.ndarray):
        g = _masses_from_coefficients(basis, a)
        f = np.maximum(p_matrix @ g, _LOG_FLOOR)
        obj = float(np.sum(np.log(f))) - c0 * float(np.linalg.norm(a))
        return obj, g, f

    def penalized_gradient(a: np.ndarray, g: np.ndarray, f: np.ndarray):
        np.multiply(p_matrix, g, out=w)
        np.divide(w, f[:, None], out=w)
        s = w.sum(axis=0)
        grad_l = basis.T @ (s - n_obs * g)
        r = float(np.linalg.norm(a))
        if r > 0.0:
            grad = grad_l - c0 * a / r
            gnorm = float(np.linalg.norm(grad))
        else:
            # Subgradient optimality at the kink: distance from the
            # c0-ball to the smooth gradient.
            grad = grad_l
            gnorm = max(float(np.linalg.norm(grad_l)) - c0, 0.0)
        return grad, gnorm, s, grad_l, r

    obj, g, f = evaluate(alpha)
    trace = [obj]
    stop_reason = "max_iterations"
    iterations = 0
    grad, gnorm, s, grad_l, r = penalized_gradient(alpha, g, f)

    # Stagnation guard: a healthy Newton endgame halves the gradient
    # norm every step or two, while near-singular Hessian directions
    # can leave the optimizer polishing float noise for hundreds of
    # iterations (objective flat to machine resolution, gradient norm
    # creeping down by a few percent per step).  Stop once a window of
    # iterations passes with neither real objective progress nor a
    # halving of the gradient norm.
    stall_limit = 25
    stall_count = 0
    stall_obj = obj
    stall_gnorm = gnorm

    for iterations in range(1, cfg.max_iterations + 1):
        if gnorm < cfg.gradient_tolerance:
            iterations -= 1
            break

        # Hessian of the penalized objective.
        a_mat = w @ basis_f
        qbar = basis.T @ g
        hess = (
            basis.T @ (basis * s[:, None])
            - a_mat.T @ a_mat
            - n_obs * (basis.T @ (basis * g[:, None]) - np.outer(qbar, qbar))
        )
        if r > 0.0:
            hess = hess - (c0 / r) * (
                np.eye(df) - np.outer(alpha, alpha) / r**2
            )

        def directional_derivative(d: np.ndarray) -> float:
            if r > 0.0:
                return float(grad @ d)
            return float(grad_l @ d) - c0 * float(np.linalg.norm(d))

        scale = max(float(np.trace(-hess)) / df, 1e-8)

        def candidate_directions():
            for ridge in (0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4):
                try:
                    d = np.linalg.solve(
                        -hess + ridge * scale * np.eye(df), grad
                    )
                except np.linalg.LinAlgError:
                    continue
                if np.all(np.isfinite(d)) and directional_derivative(d) > 0:
                    yield d
            d = grad / max(gnorm, 1e-30)
            if directional_derivative(d) > 0:
                yield d

        accepted = False
        for direction in candidate_directions():
            dirderiv = directional_derivative(direction)
            t = 1.0
            while t >= 1e-10:
                cand_alpha = alpha + t * direction
                cand_obj, cand_g, cand_f = evaluate(cand_alpha)
                if cand_obj >= obj + 1e-4 * t * dirderiv:
                    alpha, obj, g, f = cand_alpha, cand_obj, cand_g, cand_f
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                break

        if not accepted:
            stop_reason = "no_acceptable_step"
            break

        trace.append(obj)
        grad, gnorm, s, grad_l, r = penalized_gradient(alpha, g, f)

        noise = 256.0 * np.finfo(float).eps * (1.0 + abs(obj))
        if obj > stall_obj + noise or gnorm < 0.5 * stall_gnorm:
            stall_count = 0
            stall_obj = obj
            stall_gnorm = gnorm
        else:
            stall_count += 1
            if stall_count >= stall_limit:
                stop_reason = "stall_window"
                break

    converged = gnorm < cfg.gradient_tolerance
    if converged:
        stop_reason = "gradient_tolerance"

    return {
        "alpha": alpha,
        "masses": _masses_from_coefficients(basis, alpha),
        "converged": converged,
        "iterations": iterations,
        "gradient_norm": gnorm,
        "objective_trace": trace,
        "stop_reason": stop_reason,
    }


def fit_g(
    obs: ObservationSet,
    cfg: Optional[FitConfig] = None,
    warm_start: Optional[np.ndarray] = None,
) -> PriorModel:
    """Fit the prior g(theta) by penalized maximum likelihood.

    Args:
        obs: exact and censored observations; at least
            cfg.min_observations in total.
        cfg: fit configuration (grid, basis, penalty, optimizer).
        warm_start: optional initial coefficients (used by the
            bootstrap); defaults to zero, i.e. the uniform prior.

    Returns:
        PriorModel with converged flag, unpenalized log-likelihood at
        the optimum, and optimizer diagnostics (iterations, final
        gradient norm, objective trace).

    Raises:
        ValueError: on empty or undersized observation sets, or a
            warm start that is not basis_df finite coefficients.
    """
    cfg = cfg or FitConfig()
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (cfg.basis_df,):
            raise ValueError(
                f"warm_start must hold basis_df={cfg.basis_df} "
                f"coefficients, got shape {warm_start.shape}"
            )
        if not np.all(np.isfinite(warm_start)):
            raise ValueError("warm_start coefficients must be finite")
    if obs.n_total == 0:
        raise ValueError("cannot fit an empty observation set")
    if obs.n_total < cfg.min_observations:
        raise ValueError(
            f"need at least {cfg.min_observations} observations, "
            f"got {obs.n_total}"
        )
    theta = cfg.theta_grid()
    basis = natural_spline_basis(theta, cfg.basis_df)
    p_matrix = obs._likelihood(theta)
    result = _fit_alpha(p_matrix, basis, cfg, alpha0=warm_start)
    masses = result["masses"]
    return PriorModel(
        theta_grid=theta,
        masses=masses,
        basis_df=cfg.basis_df,
        penalty_c0=cfg.penalty_c0,
        coefficients=result["alpha"],
        log_likelihood=_log_likelihood(p_matrix, masses),
        converged=result["converged"],
        fit_config=cfg,
        diagnostics={
            "iterations": result["iterations"],
            "gradient_norm": result["gradient_norm"],
            "objective_trace": result["objective_trace"],
            "stop_reason": result["stop_reason"],
            "n_exact": len(obs.exact_z),
            "n_censored": len(obs.censored),
        },
    )


def fit_g_path(
    obs: ObservationSet,
    cfg: Optional[FitConfig] = None,
    penalty_path: Sequence[float] = (1.0, 0.25, 0.05),
) -> PriorModel:
    """Fit with penalty continuation down to cfg.penalty_c0.

    Lightly penalized fits (small c0) can be ill-conditioned when
    started cold.  One stage runs per entry above cfg.penalty_c0, largest
    first, then one at cfg.penalty_c0, each started where the one before
    ended.
    The first starts at the normal prior with the finite exact z's mean
    and variance var(z) - 1 floored at 0.25 (z = theta + N(0, 1)),
    projected onto the basis by least squares; with under two finite
    exact z, at the uniform prior.  Stages before the last only hand on
    a start: they stop at a penalized gradient norm of 0.1 (or
    cfg.gradient_tolerance, if larger).

    Args:
        obs: observation set.
        cfg: fit configuration; cfg.penalty_c0 is the target penalty.
        penalty_path: penalties to pass through, each finite and >= 0.

    Returns:
        The PriorModel at cfg.penalty_c0, with the last stage's
        diagnostics plus ``path``: each stage's ``penalty_c0``,
        ``iterations`` and ``stop_reason``.
    """
    cfg = cfg or FitConfig()
    if not all(math.isfinite(c0) and c0 >= 0.0 for c0 in penalty_path):
        raise ValueError("penalty_path entries must be finite and >= 0, "
                         f"got {list(penalty_path)}")
    # The stages' shared matrix, built first so the start adds no peak.
    obs._likelihood(cfg.theta_grid())
    warm, records = _moment_start(obs, cfg), []
    stages = sorted(c for c in penalty_path if c > cfg.penalty_c0)[::-1]
    for c0 in stages + [None]:  # None: the last stage, at cfg itself
        stage = cfg if c0 is None else replace(cfg, penalty_c0=c0,
            gradient_tolerance=max(0.1, cfg.gradient_tolerance))
        model = fit_g(obs, stage, warm_start=warm)
        warm = model.coefficients
        records.append({"penalty_c0": stage.penalty_c0, **{
            k: model.diagnostics[k] for k in ("iterations", "stop_reason")}})
    model.diagnostics["path"] = records
    return model


def _moment_start(obs: ObservationSet, cfg: FitConfig):
    z = np.array([z for z in obs.exact_z if math.isfinite(z)])
    if z.size < 2:
        return None
    theta = cfg.theta_grid()
    basis = natural_spline_basis(theta, cfg.basis_df)
    with np.errstate(all="ignore"):  # a z too large to square gives None
        eta = -0.5 * (theta - z.mean()) ** 2 / max(z.var() - 1.0, 0.25)
        # Normal equations: lstsq's SVD would add 0.9 MB to peak RSS.
        alpha = np.linalg.solve(basis.T @ basis, basis.T @ (eta - eta.mean()))
    return alpha if np.all(np.isfinite(alpha)) else None


def rho_from_g(model: PriorModel) -> float:
    """Null-mass probability rho = sum of masses at theta <= 0.

    A grid point exactly at zero counts toward rho (null includes the
    boundary), complementing the strict theta > 0 of the h numerator.
    """
    theta = np.asarray(model.theta_grid, dtype=float)
    return float(model.masses[theta <= ZERO_TOLERANCE].sum())


def log_likelihood(model: PriorModel, obs: ObservationSet) -> float:
    """Unpenalized mixture log-likelihood of the observations."""
    return _log_likelihood(obs._likelihood(model.theta_grid), model.masses)


def _log_likelihood(p_matrix: np.ndarray, masses: np.ndarray) -> float:
    f = np.maximum(p_matrix @ masses, _LOG_FLOOR)
    return float(np.sum(np.log(f)))


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution of (rho, h-curve) with percentile bands.

    ``rho_samples`` and the band arrays cover converged replicates only;
    ``n_failed`` counts excluded non-convergent refits,
    ``failed_replicates`` holds their replicate indices, ascending, and
    ``failed_stop_reasons`` each one's optimizer ``stop_reason``.
    """

    replicates: int
    n_converged: int
    n_failed: int
    rho_samples: np.ndarray
    rho_ci: Tuple[float, float]
    z_grid: Optional[np.ndarray] = None
    h_low: Optional[np.ndarray] = None
    h_high: Optional[np.ndarray] = None
    seed: int = 0
    failed_replicates: Tuple[int, ...] = ()
    failed_stop_reasons: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def bootstrap(
    obs: ObservationSet,
    cfg: Optional[FitConfig] = None,
    replicates: int = 500,
    z_grid: Optional[np.ndarray] = None,
) -> BootstrapResult:
    """Nonparametric bootstrap of the prior fit.

    Observations (exact and censored pooled) are resampled with
    replacement; each replicate is refit warm-started from the full-data
    coefficients.  Replicates use independent seeded substreams, so the
    result is deterministic given cfg.seed and independent of execution
    order.  Non-convergent replicates are excluded and counted.

    Args:
        obs: observation set to resample.
        cfg: fit configuration; cfg.seed seeds the resampling.
        replicates: number of bootstrap replicates (>= 2).
        z_grid: optional z grid on which to record per-z percentile
            bands of the h-curve.

    Returns:
        BootstrapResult with the rho 2.5/97.5 percentile CI and, when
        z_grid is given, pointwise h bands.

    Raises:
        RuntimeError: if the full-data fit, which every replicate starts
            from, does not converge, or if no replicate converges.
    """
    cfg = cfg or FitConfig()
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    base = fit_g(obs, cfg)
    if not base.converged:
        raise RuntimeError(
            "the full-data fit did not converge "
            f"({base.diagnostics['stop_reason']} after "
            f"{base.diagnostics['iterations']} iterations); "
            "cannot start the bootstrap replicates"
        )
    theta = cfg.theta_grid()
    basis = natural_spline_basis(theta, cfg.basis_df)
    warm = np.asarray(base.coefficients, dtype=float)
    # A replicate's likelihood matrix is the full-data one's rows in
    # resample order, equal bit for bit to building it from the resample.
    p_full = obs._likelihood(theta)

    rhos: List[float] = []
    h_rows: List[np.ndarray] = []
    failed: List[int] = []
    failed_reasons: List[str] = []
    for rep in range(replicates):
        rng = np.random.default_rng([cfg.seed, rep])
        p_matrix = p_full[obs._resample_rows(rng)]
        result = _fit_alpha(p_matrix, basis, cfg, alpha0=warm)
        if not result["converged"]:
            failed.append(rep)
            failed_reasons.append(result["stop_reason"])
            continue
        model = PriorModel(
            theta_grid=theta,
            masses=result["masses"],
            basis_df=cfg.basis_df,
            penalty_c0=cfg.penalty_c0,
            coefficients=result["alpha"],
        )
        rhos.append(rho_from_g(model))
        if z_grid is not None:
            h_rows.append(h_values(model, np.asarray(z_grid, dtype=float)))

    rho_samples = np.asarray(rhos, dtype=float)
    if rho_samples.size == 0:
        raise RuntimeError(
            "no bootstrap replicate converged; cannot form intervals"
        )
    ci = np.percentile(rho_samples, [2.5, 97.5])
    h_low = h_high = None
    out_grid = None
    if z_grid is not None and h_rows:
        stacked = np.vstack(h_rows)
        h_low = np.percentile(stacked, 2.5, axis=0)
        h_high = np.percentile(stacked, 97.5, axis=0)
        out_grid = np.asarray(z_grid, dtype=float)
    return BootstrapResult(
        replicates=replicates,
        n_converged=int(rho_samples.size),
        n_failed=len(failed),
        rho_samples=rho_samples,
        rho_ci=(float(ci[0]), float(ci[1])),
        z_grid=out_grid,
        h_low=h_low,
        h_high=h_high,
        seed=cfg.seed,
        failed_replicates=tuple(failed),
        failed_stop_reasons=tuple(failed_reasons),
    )
