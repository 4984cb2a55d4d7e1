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
bit; the stencil is rebuilt only when the targets change. Its step method
takes a whole backward step and checks the CFL bound on the coefficients it
evaluated; the loop around it checks that each new row is finite.

The system is coupled one way: a pre-switch step at row i reads only row
i+1 of the post-switch surface. So on Linux, with no second Python thread
alive, solve_system marches a post regime whose first step minimized over
more than one control column in a forked child process, while the caller
marches the pre regime, waiting only until the post row it reads has been
signalled. The post surface lives in an anonymous shared map that becomes
the solved surface's v_after without a copy. Either way the surfaces are
bitwise those of solve_after followed by solve_pre, and so are the errors
and the hazard*dt warning: if either march fails, the child is killed and
reaped and the post regime is solved again in the caller, which raises its
error, if it has one, before the pre error is re-raised. A control-free post regime (such as
merton_as_generic's) is too cheap to overlap and stays in the caller.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import ConfigError, NumericalError, RegimeControlProblem

# hazard * dt above this triggers a warning: the scheme drops the
# O((h dt)^2) correction of the switch probability over one step
HAZARD_DT_WARN = 0.1


class CflViolationError(ConfigError):
    """Explicit-scheme stability bound dt <= dx^2 / max(vol^2) is violated."""

    def __init__(self, message: str, min_n_t: int):
        super().__init__(message)
        self.min_n_t = min_n_t


@dataclass(frozen=True)
class GridSpec:
    """Uniform time/state grid plus the discrete control set.

    n_x state nodes on a finite [x_min, x_max], n_t time steps (n_t + 1
    rows), control_nodes finite, ascending and inside the control bounds
    (checked when grid and problem meet, at solve time; every step then
    checks the CFL bound on the coefficients it evaluated).
    """

    x_min: float
    x_max: float
    n_x: int
    n_t: int
    control_nodes: np.ndarray

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not math.isfinite(self.x_max - self.x_min):    # and so is dx
            raise ValueError("x_min, x_max and x_max - x_min must be finite")
        if self.n_x < 3:
            raise ValueError("need at least 3 state nodes")
        if not 0.0 < self.dx * self.dx < math.inf:       # the scheme divides by dx^2
            raise ValueError(f"x_min, x_max and n_x give a node spacing dx={self.dx!r} "
                             "whose square is not a finite positive float")
        if self.n_t < 1:
            raise ValueError("need at least 1 time step")
        nodes = np.array(self.control_nodes, dtype=float)   # a private copy to freeze
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("control_nodes must be a non-empty 1-D array")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0.0):
            raise ValueError("control_nodes must be strictly ascending")
        if not np.isfinite(nodes).all():
            raise ValueError("control_nodes must be finite")
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
    """Solved surfaces: (n_t+1, n_x) values per regime plus the policy grid.

    The arrays given are frozen in place, not copied: the solver hands over
    surfaces of its own, and a copy would double their memory.
    """

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


def validate_grid_for(problem: RegimeControlProblem, grid: GridSpec) -> None:
    """Raise ConfigError unless the control nodes lie inside the control bounds.

    No coefficient is evaluated here: the solvers check the CFL bound
    dt <= dx^2 / max(vol^2) at every step, on the coefficients of that step.
    """
    lo, hi = problem.control_bounds
    nodes = grid.control_nodes
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if nodes[0] < lo - tol or nodes[-1] > hi + tol:
        raise ConfigError("control_nodes fall outside the problem's control_bounds")


class _Kernel:
    """Discrete Hamiltonian and backward step of one regime, built once per solve.

    Calling it returns max(vol^2) and the Hamiltonian, in the shape its terms
    broadcast to ((n_x, 1) when nothing depends on the control, else
    (n_x, n_u)) and in a buffer the next call overwrites. Operations run in
    the same order as a plain full-mesh evaluation, so results are bitwise
    those of np.where/np.interp on broadcast arrays.
    """

    def __init__(self, problem: RegimeControlProblem, grid: GridSpec, regime: str):
        pre = regime == "pre"
        self.where = f"the {regime} regime"
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
        self.horizon = problem.horizon
        self.dt = grid.dt(problem.horizon)
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
                 v_after_row: np.ndarray = None) -> Tuple[np.ndarray, float]:
        drift = self._coeff(self.drift, t)
        vol = self._coeff(self.vol, t)
        cost = self._coeff(self.cost, t)
        coupled = self.hazard > 0.0
        jump = self._coupling(t, v_row, v_after_row) if coupled else None
        # every term fits the mesh: n_x rows and one column or one per control
        terms = (drift, vol, cost) if jump is None else (drift, vol, cost, jump)
        shape = (self.mesh[0], max(a.shape[-1] if a.ndim else 1 for a in terms))
        self.width = shape[1]
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
        sq = 2.0 * float(half_sq.max())
        diffusion = np.multiply(half_sq, self._d2[:, None], out=self._buf("diffusion", shape))
        np.add(ham, diffusion, out=ham)
        np.add(ham, cost, out=ham)
        if jump is not None:
            np.add(ham, jump, out=ham)
        return ham, sq

    def step(self, t: float, v_next: np.ndarray, v_after_next: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """out = v_next + dt * min_u H(t); returns the first minimizer per node.

        Raises unless max(vol^2) = sq at t is finite and dt <= dx^2 / sq. The
        minimum is read at argmin, which is cheaper than a second reduction
        and returns the same value.
        """
        ham, sq = self(t, v_next, v_after_next)
        if not math.isfinite(sq):
            raise NumericalError(f"vol is not finite for {self.where} at t={t:.6g}")
        if sq > 0.0 and self.dt > self.dx ** 2 / sq:
            min_n_t = int(np.ceil(self.horizon * sq / self.dx ** 2))
            raise CflViolationError(f"CFL violation for {self.where} at t={t:.6g}: "
                                    f"dt={self.dt:.3e} exceeds dx^2/max(vol^2)="
                                    f"{self.dx ** 2 / sq:.3e}; need n_t >= {min_n_t}",
                                    min_n_t=min_n_t)
        pick = ham.argmin(axis=1, out=self._pick)
        flat = np.multiply(self._rows, ham.shape[1], out=self._flat)
        np.add(flat, pick, out=flat)
        best = np.take(ham, flat, out=self._best, mode="clip")
        np.add(v_next, np.multiply(best, self.dt, out=best), out=out)
        return pick


def _full_mesh(ham: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.broadcast_to(ham, (grid.n_x, grid.control_nodes.size)).copy()


def post_hamiltonian(problem: RegimeControlProblem, grid: GridSpec, t: float,
                     v_row: np.ndarray) -> np.ndarray:
    """Discrete post-switch Hamiltonian on the (state, control) mesh."""
    return _full_mesh(_Kernel(problem, grid, "post")(t, v_row)[0], grid)


def pre_hamiltonian(problem: RegimeControlProblem, grid: GridSpec, t: float,
                    v_pre_row: np.ndarray, v_after_row: np.ndarray) -> np.ndarray:
    """Discrete pre-switch Hamiltonian including the hazard coupling term.

    The post-switch surface is read at the jump target by linear
    interpolation in x; targets outside the grid clamp to the boundary
    node. With zero hazard the coupling (and the jump map) is never
    evaluated, so the pre solve is bitwise independent of the post regime.
    """
    return _full_mesh(_Kernel(problem, grid, "pre")(t, v_pre_row, v_after_row)[0], grid)


def _warn_coarse_hazard(problem: RegimeControlProblem, grid: GridSpec) -> None:
    """Warn, just before a pre march would step, that hazard * dt is coarse."""
    hazard_dt = problem.hazard * grid.dt(problem.horizon)
    if hazard_dt > HAZARD_DT_WARN:
        warnings.warn(
            f"hazard*dt = {hazard_dt:.3g} > {HAZARD_DT_WARN}; the one-step "
            "switch probability is too coarse for the explicit coupling",
            RuntimeWarning,
        )


def _march(problem: RegimeControlProblem, grid: GridSpec, v_after: np.ndarray = None,
           out: np.ndarray = None, handoff=None):
    """Backward explicit steps v[i] = v[i+1] + dt * min_u H, H read at t[i+1].

    Returns (v, policy); policy is None for the post regime, called without
    v_after. v is written into out when it is given. handoff(i, kernel), when
    given, runs once row i is stepped and checked; the march stops there if it
    returns True.
    """
    regime = "post" if v_after is None else "pre"
    kernel = _Kernel(problem, grid, regime)
    times = grid.times(problem.horizon)
    v = np.empty((grid.n_t + 1, grid.n_x)) if out is None else out
    v[-1] = problem.terminal_cost(grid.x_nodes)
    policy = None if v_after is None else np.empty_like(v)
    # an overflow or a NaN reaches max(vol^2) or the row, whose checks raise on it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_t - 1, -1, -1):
            pick = kernel.step(times[i + 1], v[i + 1],
                               None if v_after is None else v_after[i + 1], v[i])
            if not np.isfinite(v[i]).all():
                raise NumericalError(f"the {regime} surface is not finite at t={times[i]:.6g}")
            if policy is not None:
                np.take(grid.control_nodes, pick, out=policy[i])
            if handoff is not None and handoff(i, kernel):
                break
    if policy is not None:
        # the terminal row's Hamiltonian is the one the first step minimized
        policy[-1] = policy[-2]
    return v, policy


class _WorkerLost(Exception):
    """The post-switch worker ended before it signalled every row."""


class _PostWorker:
    """Marches a controlled post regime in a forked child, ahead of the pre march.

    post_row, the post march's hand-off, forks after the first row unless its
    Hamiltonian had one control column; the child then writes its rows into
    the shared map and signals every 16 of them over a pipe, one byte a row.
    pre_row, the pre march's, waits for the post row the next pre step reads.
    """

    def __init__(self, grid: GridSpec):
        shape = (grid.n_t + 1, grid.n_x)
        try:
            buf = mmap.mmap(-1, 8 * shape[0] * shape[1])
        except (OSError, OverflowError) as exc:
            raise MemoryError(f"cannot map a post-switch surface of shape {shape}") from exc
        self.rows = np.frombuffer(buf, dtype=float).reshape(shape)
        self.pid = None            # 0 in the child
        self.fd = None             # the child's write end, the caller's read end
        self.ready = grid.n_t - 1  # the lowest post row the caller may read
        self.unsent = 0

    def post_row(self, i: int, kernel: _Kernel) -> bool:
        if self.pid == 0:
            self.unsent += 1
            if i % 16 == 0:
                os.write(self.fd, bytes(self.unsent))
                self.unsent = 0
            return False
        if i < self.ready or kernel.width == 1:
            return False
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:            # no process to spare: march on alone
            os.close(read_fd)
            os.close(write_fd)
            return False
        self.fd = write_fd if self.pid == 0 else read_fd
        os.close(read_fd if self.pid == 0 else write_fd)
        return self.pid > 0

    def pre_row(self, i: int, kernel: _Kernel) -> bool:
        while self.ready > i:
            got = os.read(self.fd, 4096)
            if not got:
                raise _WorkerLost
            self.ready -= len(got)
        return False

    def stop(self) -> None:
        """End the child: it exits here; the caller kills and reaps it."""
        if self.pid == 0:
            os._exit(0)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            os.close(self.fd)
            self.pid = None


def solve_after(problem: RegimeControlProblem, grid: GridSpec) -> np.ndarray:
    """Backward explicit solve of the post-switch surface.

    Each step reads the known later row: v[i] = v[i+1] + dt * min_u H,
    with coefficients evaluated at the known row's time.
    """
    validate_grid_for(problem, grid)
    return _march(problem, grid)[0]


def solve_pre(problem: RegimeControlProblem, v_after: np.ndarray,
              grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Backward explicit solve of the coupled pre-switch surface.

    Returns (v_pre, policy); policy[i] holds the per-node minimizing
    control chosen while stepping onto row i (argmin ties resolve to the
    smallest control), and the terminal row's policy is the minimizer of
    the Hamiltonian evaluated on the terminal data itself.
    """
    validate_grid_for(problem, grid)
    v_after = np.asarray(v_after, dtype=float)
    if v_after.shape != (grid.n_t + 1, grid.n_x):
        raise ValueError("v_after was not produced on this grid")
    # checked before stepping, where the coupling would meet it through a bare
    # RuntimeWarning; min and max need no mesh-sized temporary
    if not (math.isfinite(v_after.min()) and math.isfinite(v_after.max())):
        raise NumericalError("v_after is not finite")
    _warn_coarse_hazard(problem, grid)
    return _march(problem, grid, v_after)


def solve_system(problem: RegimeControlProblem, grid: GridSpec) -> ValueSurface:
    """Post-switch solve and the coupled pre-switch solve.

    Each solve checks the control nodes; its steps check CFL and finiteness.
    Surfaces and errors are those of solve_after followed by solve_pre, also
    when a controlled post regime is marched in a forked worker (see the
    module docstring).
    """
    v_pre = error = None
    if (sys.platform.startswith("linux") and hasattr(os, "fork")
            and threading.active_count() == 1):
        validate_grid_for(problem, grid)
        worker = _PostWorker(grid)
        try:
            v_after = _march(problem, grid, out=worker.rows, handoff=worker.post_row)[0]
            if worker.pid is None:        # a control-free post regime, marched here
                v_pre, policy = solve_pre(problem, v_after, grid)
            elif worker.pid > 0:
                try:
                    v_pre, policy = _march(problem, grid, v_after, handoff=worker.pre_row)
                except Exception as exc:  # settled below, in the serial order
                    error = exc
                else:                     # every post row arrived: the post solved
                    _warn_coarse_hazard(problem, grid)
        finally:
            worker.stop()
    if v_pre is None:
        v_after = solve_after(problem, grid)
        if error is not None and not isinstance(error, _WorkerLost):
            _warn_coarse_hazard(problem, grid)
            raise error
        v_pre, policy = solve_pre(problem, v_after, grid)
    return ValueSurface(v_pre=v_pre, v_after=v_after, policy=policy, grid=grid)
