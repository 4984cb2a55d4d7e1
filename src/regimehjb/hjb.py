"""Explicit finite-difference solver for the coupled two-regime system.

The value function splits into a post-switch surface (a plain one-regime
dynamic-programming PDE) and a pre-switch surface whose equation carries the
hazard coupling term h * (V_after(jump target) - V_pre). Both are stepped
backward in time with an explicit monotone scheme: first derivatives
upwinded by drift sign, central second derivatives, one-sided first
derivatives and zero curvature at the state boundaries (linear
extrapolation), pointwise exhaustive minimization over a fixed control
grid. Jump targets are evaluated on the post-switch surface by linear
interpolation, clamped to the grid.

One step kernel per regime serves both solves and the public Hamiltonians.
It is built once per solve and keeps each coefficient in the shape it
broadcasts to (a control-only drift stays one row, a constant post-switch
regime one column), writes every mesh-sized temporary into buffers reused
across steps, and reads the post-switch surface at the jump targets
through a cached (index, offset) stencil that reproduces np.interp bit for
bit; the stencil is rebuilt only when the targets change. Each step also
checks the CFL bound on the coefficients it evaluated and that the new row
is finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import NumericalError, RegimeControlProblem

# hazard * dt above this triggers a warning: the scheme drops the
# O((h dt)^2) correction of the switch probability over one step
HAZARD_DT_WARN = 0.1


class CflViolationError(ValueError):
    """Explicit-scheme stability bound dt <= dx^2 / max(vol^2) is violated."""

    def __init__(self, message: str, min_n_t: int):
        super().__init__(message)
        self.min_n_t = min_n_t


@dataclass(frozen=True)
class GridSpec:
    """Uniform time/state grid plus the discrete control set.

    n_x state nodes on [x_min, x_max], n_t time steps (n_t + 1 rows),
    control_nodes ascending and inside the problem's control bounds
    (checked when grid and problem meet, at solve time -- the CFL bound
    needs the problem's coefficients too).
    """

    x_min: float
    x_max: float
    n_x: int
    n_t: int
    control_nodes: np.ndarray

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_x < 3:
            raise ValueError("need at least 3 state nodes")
        if self.n_t < 1:
            raise ValueError("need at least 1 time step")
        nodes = np.asarray(self.control_nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("control_nodes must be a non-empty 1-D array")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0.0):
            raise ValueError("control_nodes must be strictly ascending")
        nodes.setflags(write=False)
        object.__setattr__(self, "control_nodes", nodes)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def dt(self, horizon: float) -> float:
        return horizon / self.n_t

    def times(self, horizon: float) -> np.ndarray:
        return np.linspace(0.0, horizon, self.n_t + 1)

    def interior_mask(self, margin_lo: float, margin_hi: float) -> np.ndarray:
        """Nodes at least margin_lo above x_min and margin_hi below x_max."""
        x = self.x_nodes
        return (x >= self.x_min + margin_lo) & (x <= self.x_max - margin_hi)


@dataclass(frozen=True)
class ValueSurface:
    """Solved surfaces: (n_t+1, n_x) values per regime plus the policy grid."""

    v_pre: np.ndarray
    v_after: np.ndarray
    policy: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        shape = (self.grid.n_t + 1, self.grid.n_x)
        for name in ("v_pre", "v_after", "policy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _max_sq_vol(problem: RegimeControlProblem, grid: GridSpec, regime: str) -> float:
    fn = problem.vol_pre if regime == "pre" else problem.vol_post
    x_col = grid.x_nodes[:, None]
    u_row = grid.control_nodes[None, :]
    # an overflowing square is inf and a NaN propagates; _check_cfl rejects both
    with np.errstate(over="ignore"):
        sq = [np.max(np.square(np.asarray(fn(t, x_col, u_row), dtype=float)))
              for t in (0.0, 0.5 * problem.horizon, problem.horizon)]
    return float(np.max(sq))


def _check_cfl(sq: float, dt: float, dx: float, horizon: float, regime: str,
               t: float = None) -> None:
    """Raise unless max(vol^2) = sq (at time t, if given) is finite and dt <= dx^2 / sq."""
    if math.isfinite(sq) and not (sq > 0.0 and dt > dx ** 2 / sq):
        return
    where = f"the {regime} regime" + ("" if t is None else f" at t={t:.6g}")
    if not math.isfinite(sq):
        raise NumericalError(f"vol is not finite for {where}")
    min_n_t = int(np.ceil(horizon * sq / dx ** 2))
    raise CflViolationError(
        f"CFL violation for {where}: dt={dt:.3e} exceeds "
        f"dx^2/max(vol^2)={dx ** 2 / sq:.3e}; need n_t >= {min_n_t}",
        min_n_t=min_n_t,
    )


def validate_grid_for(problem: RegimeControlProblem, grid: GridSpec, regime: str) -> None:
    """Control-bounds membership plus the explicit-scheme CFL bound.

    Raises CflViolationError naming the minimal admissible n_t when
    dt > dx^2 / max(vol^2) for the requested regime's diffusion at t = 0,
    T/2 or T. The solvers check the bound again at every step time.
    """
    lo, hi = problem.control_bounds
    nodes = grid.control_nodes
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if nodes[0] < lo - tol or nodes[-1] > hi + tol:
        raise ValueError("control_nodes fall outside the problem's control_bounds")
    _check_cfl(_max_sq_vol(problem, grid, regime), grid.dt(problem.horizon), grid.dx,
               problem.horizon, regime)


class _Kernel:
    """Discrete Hamiltonian of one regime, built once per solve.

    Calling it returns the Hamiltonian in the shape its terms broadcast to
    ((n_x, 1) when nothing depends on the control, else (n_x, n_u)). The
    result lives in a reused buffer and is overwritten by the next call.
    Operations run in the same order as a plain full-mesh evaluation, so
    results are bitwise those of np.where/np.interp on broadcast arrays.
    """

    def __init__(self, problem: RegimeControlProblem, grid: GridSpec, regime: str):
        pre = regime == "pre"
        self.drift = problem.drift_pre if pre else problem.drift_post
        self.vol = problem.vol_pre if pre else problem.vol_post
        self.cost = problem.running_cost
        self.jump_map = problem.jump_map
        # with zero hazard the jump map and the post surface are never read
        self.hazard = problem.hazard if pre else 0.0
        self.x = grid.x_nodes
        self.x_col = self.x[:, None]
        self.u_row = grid.control_nodes[None, :]
        self.mesh = (grid.n_x, grid.control_nodes.size)
        self.dx = grid.dx
        self.max_sq_vol = 0.0    # max(vol^2) of the last call
        n_x = grid.n_x
        # grad[:-1] is the backward, grad[1:] the forward first difference
        self._grad = np.empty(n_x + 1)
        self._d2 = np.zeros(n_x)
        self._bufs = {}
        self._shapes = set()     # coefficient shapes known to fit the mesh
        self._rows = np.arange(n_x)
        self._flat = np.empty(n_x, dtype=np.intp)
        self._pick = np.empty(n_x, dtype=np.intp)
        self._best = np.empty(n_x)
        # jump stencil: post[j] + slope[s] * off, slope[0] = 0 serving every
        # target that clamps or hits a node (offset -0.0 keeps post[j] exact)
        self._x_gap = self.x[1:] - self.x[:-1]
        self._slope = np.zeros(n_x)
        self._targets = None

    def _buf(self, name: str, shape, dtype=float) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape:
            buf = self._bufs[name] = np.empty(shape, dtype=dtype)
        return buf

    def _coeff(self, fn, t) -> np.ndarray:
        out = np.asarray(fn(t, self.x_col, self.u_row), dtype=float)
        if out.shape not in self._shapes:
            if np.broadcast_shapes(out.shape, self.mesh) != self.mesh:
                raise ValueError(f"coefficient of shape {out.shape} does not broadcast "
                                 f"to the (state, control) mesh {self.mesh}")
            self._shapes.add(out.shape)
        return out

    def _derivatives(self, v_row: np.ndarray) -> None:
        """One-sided first differences and the central second difference.

        At the boundary where a stencil arm is missing, the available
        one-sided difference serves both directions and the second
        difference is zero (linear extrapolation beyond the grid).
        """
        grad, d2 = self._grad, self._d2[1:-1]
        np.subtract(v_row[1:], v_row[:-1], out=grad[1:-1])
        np.divide(grad[1:-1], self.dx, out=grad[1:-1])
        grad[0], grad[-1] = grad[1], grad[-2]
        np.multiply(v_row[1:-1], 2.0, out=d2)
        np.subtract(v_row[2:], d2, out=d2)
        np.add(d2, v_row[:-2], out=d2)
        np.divide(d2, self.dx * self.dx, out=d2)

    def _stencil(self, targets: np.ndarray) -> None:
        """(node, slope slot, offset) of each target, as np.interp resolves it."""
        if not np.isfinite(targets).all():
            raise NumericalError("jump_map produced a non-finite target")
        x, shape = self.x, targets.shape
        j = np.searchsorted(x, targets, side="right") - 1   # x[j] <= target < x[j+1]
        self._node = np.clip(j, 0, x.size - 1, out=self._buf("node", shape, np.intp))
        exact = (j < 0) | (j >= x.size - 1) | (targets == x[self._node])
        self._slot = np.add(j, 1, out=self._buf("slot", shape, np.intp))
        self._slot[exact] = 0
        self._off = np.subtract(targets, x[self._node], out=self._buf("off", shape))
        self._off[exact] = -0.0
        self._targets = targets.copy()

    def _coupling(self, t, v_row: np.ndarray, v_after_row: np.ndarray) -> np.ndarray:
        """hazard * (V_after(jump target) - V_pre) in the targets' shape."""
        targets = self._coeff(self.jump_map, t)
        if targets.ndim < 2 or targets.shape[0] != self.mesh[0]:
            # the coupling varies with x through V_pre even where the targets do not
            cols = targets.shape[-1] if targets.ndim else 1
            targets = np.broadcast_to(targets, (self.mesh[0], cols))
        # targets equal to the last set passed its finiteness check already
        if self._targets is None or not np.array_equal(targets, self._targets):
            self._stencil(targets)
        slope = self._slope[1:]
        np.subtract(v_after_row[1:], v_after_row[:-1], out=slope)
        np.divide(slope, self._x_gap, out=slope)
        # the indices are in range by construction; mode="clip" skips the
        # buffered bounds check of mode="raise"
        out = np.take(self._slope, self._slot, out=self._buf("jump", targets.shape),
                      mode="clip")
        np.multiply(out, self._off, out=out)
        post = np.take(v_after_row, self._node, out=self._buf("post", targets.shape),
                       mode="clip")
        np.add(out, post, out=out)
        np.subtract(out, v_row[:, None], out=out)
        return np.multiply(out, self.hazard, out=out)

    def __call__(self, t: float, v_row: np.ndarray,
                 v_after_row: np.ndarray = None) -> np.ndarray:
        drift = self._coeff(self.drift, t)
        vol = self._coeff(self.vol, t)
        cost = self._coeff(self.cost, t)
        coupled = self.hazard > 0.0
        jump = self._coupling(t, v_row, v_after_row) if coupled else None
        # every term fits the mesh: n_x rows and one column or one per control
        terms = (drift, vol, cost) if jump is None else (drift, vol, cost, jump)
        shape = (self.mesh[0], max(a.shape[-1] if a.ndim else 1 for a in terms))
        self._derivatives(v_row)
        # upwind first difference: forward where drift >= 0, else backward
        ham = self._buf("ham", shape)
        np.copyto(ham, self._grad[:-1, None])
        np.copyto(ham, self._grad[1:, None], where=drift >= 0.0)
        np.multiply(drift, ham, out=ham)
        half_sq = np.multiply(0.5, vol, out=self._buf("half_sq", vol.shape))
        np.multiply(half_sq, vol, out=half_sq)
        # (0.5 vol) vol = 0.5 vol^2 exactly unless it underflows, where the
        # bound is moot
        self.max_sq_vol = 2.0 * float(half_sq.max())
        diffusion = np.multiply(half_sq, self._d2[:, None], out=self._buf("diffusion", shape))
        np.add(ham, diffusion, out=ham)
        np.add(ham, cost, out=ham)
        if jump is not None:
            np.add(ham, jump, out=ham)
        return ham

    def minimize(self, ham: np.ndarray):
        """Per-node minimum of ham over controls and its first minimizer.

        The minimum is read at argmin, which is cheaper than a second
        reduction and returns the same value.
        """
        pick = ham.argmin(axis=1, out=self._pick)
        flat = np.multiply(self._rows, ham.shape[1], out=self._flat)
        np.add(flat, pick, out=flat)
        return np.take(ham, flat, out=self._best, mode="clip"), pick


def _full_mesh(ham: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.broadcast_to(ham, (grid.n_x, grid.control_nodes.size)).copy()


def post_hamiltonian(problem: RegimeControlProblem, grid: GridSpec, t: float,
                     v_row: np.ndarray) -> np.ndarray:
    """Discrete post-switch Hamiltonian on the (state, control) mesh."""
    return _full_mesh(_Kernel(problem, grid, "post")(t, v_row), grid)


def pre_hamiltonian(problem: RegimeControlProblem, grid: GridSpec, t: float,
                    v_pre_row: np.ndarray, v_after_row: np.ndarray) -> np.ndarray:
    """Discrete pre-switch Hamiltonian including the hazard coupling term.

    The post-switch surface is read at the jump target by linear
    interpolation in x; targets outside the grid clamp to the boundary
    node. With zero hazard the coupling (and the jump map) is never
    evaluated, so the pre solve is bitwise independent of the post regime.
    """
    return _full_mesh(_Kernel(problem, grid, "pre")(t, v_pre_row, v_after_row), grid)


def _terminal_row(problem: RegimeControlProblem, grid: GridSpec) -> np.ndarray:
    row = np.asarray(problem.terminal_cost(grid.x_nodes), dtype=float)
    return np.broadcast_to(row, (grid.n_x,)).copy()


def _march(problem: RegimeControlProblem, grid: GridSpec, regime: str,
           v_after: np.ndarray = None):
    """Backward explicit steps v[i] = v[i+1] + dt * min_u H, H read at t[i+1].

    Returns (v, policy); the policy (see solve_pre) is None for the post
    regime, which is the one called without v_after.
    """
    kernel = _Kernel(problem, grid, regime)
    T = problem.horizon
    dt = grid.dt(T)
    times = grid.times(T)
    nodes = grid.control_nodes
    v = np.empty((grid.n_t + 1, grid.n_x))
    v[-1] = _terminal_row(problem, grid)
    policy = None
    if v_after is not None:
        if problem.hazard * dt > HAZARD_DT_WARN:
            warnings.warn(
                f"hazard*dt = {problem.hazard * dt:.3g} > {HAZARD_DT_WARN}; the one-step "
                "switch probability is too coarse for the explicit coupling",
                RuntimeWarning,
            )
        policy = np.empty_like(v)
    for i in range(grid.n_t - 1, -1, -1):
        t = times[i + 1]
        ham = kernel(t, v[i + 1], None if v_after is None else v_after[i + 1])
        _check_cfl(kernel.max_sq_vol, dt, grid.dx, T, regime, t)
        best, pick = kernel.minimize(ham)
        np.add(v[i + 1], np.multiply(best, dt, out=best), out=v[i])
        if not np.isfinite(v[i]).all():
            raise NumericalError(f"the {regime} surface is not finite at t={times[i]:.6g}")
        if policy is not None:
            np.take(nodes, pick, out=policy[i])
    if policy is not None:
        # the terminal row's Hamiltonian is the one the first step minimized
        policy[-1] = policy[-2]
    return v, policy


def solve_after(problem: RegimeControlProblem, grid: GridSpec) -> np.ndarray:
    """Backward explicit solve of the post-switch surface.

    Each step reads the known later row: v[i] = v[i+1] + dt * min_u H,
    with coefficients evaluated at the known row's time.
    """
    validate_grid_for(problem, grid, "post")
    return _march(problem, grid, "post")[0]


def solve_pre(problem: RegimeControlProblem, v_after: np.ndarray,
              grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Backward explicit solve of the coupled pre-switch surface.

    Returns (v_pre, policy); policy[i] holds the per-node minimizing
    control chosen while stepping onto row i (argmin ties resolve to the
    smallest control), and the terminal row's policy is the minimizer of
    the Hamiltonian evaluated on the terminal data itself.
    """
    validate_grid_for(problem, grid, "pre")
    v_after = np.asarray(v_after, dtype=float)
    if v_after.shape != (grid.n_t + 1, grid.n_x):
        raise ValueError("v_after was not produced on this grid")
    return _march(problem, grid, "pre", v_after)


def solve_system(problem: RegimeControlProblem, grid: GridSpec) -> ValueSurface:
    """Post-switch solve followed by the coupled pre-switch solve.

    Each regime is validated once, just before its own stepping.
    """
    v_after = solve_after(problem, grid)
    v_pre, policy = solve_pre(problem, v_after, grid)
    return ValueSurface(v_pre=v_pre, v_after=v_after, policy=policy, grid=grid)
