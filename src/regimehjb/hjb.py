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
i+1 of the post-switch surface, through V_after at the jump targets, which
does not depend on V_pre. So on Linux, with no second Python thread alive,
solve_system takes the first post step, then marches the rest of the post
regime in a forked child process, while the caller marches the pre regime,
waiting only until the post row it reads has been signalled. The post
surface lives in an anonymous shared map that becomes the solved surface's
v_after without a copy. The child also evaluates V_after at the jump
targets of rows the caller reaches next (_PostWorker), so jump_map, which
must be pure, may run there too, more than once per step time. The
surfaces are bitwise those of solve_after followed by solve_pre; whenever
this path does not run to its end (no process to fork, a lost child, an
error in the caller's pre march other than a warning, which the serial path
would raise too), the child is killed and reaped and solve_system runs
those two, with their errors; a finished pre march warns.

The pre march records each row's minimizer as the index of its control
node, in the narrowest unsigned integer type that holds n_u - 1 (one byte
up to 256 nodes), not as a float surface eight times its size: the solved
surface keeps these indices, and its policy property builds the float
surface from them, anew on each access.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
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
    """The explicit step breaks its stability (positive-coefficient) bound
    dt * (max|drift|/dx + max(vol^2)/dx^2 + hazard) <= 1."""

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
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in (self.n_x, self.n_t)):
            raise ValueError("n_x and n_t must be integers")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not math.isfinite(self.x_max - self.x_min):    # and so is dx
            raise ValueError("x_min, x_max and x_max - x_min must be finite")
        if not 3 <= self.n_x <= sys.float_info.max:     # dx divides by n_x - 1 as a float
            raise ValueError("need at least 3 state nodes, and an n_x that a float holds")
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

    The policy is held as policy_index, the index into grid.control_nodes
    of each node's minimizing control, in an unsigned integer type; the
    policy property builds the float surface grid.control_nodes[policy_index]
    on each access, so a reader of one value should index the nodes itself.
    The arrays given are frozen in place, not copied: the solver hands over
    surfaces of its own, and a copy would double their memory.
    """

    v_pre: np.ndarray
    v_after: np.ndarray
    policy_index: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        for arr in (self.v_pre, self.v_after, self.policy_index):
            arr.setflags(write=False)

    @property
    def policy(self) -> np.ndarray:
        """The minimizing control per node, as a new read-only float surface."""
        policy = self.grid.control_nodes[self.policy_index]
        policy.setflags(write=False)
        return policy


def validate_grid_for(problem: RegimeControlProblem, grid: GridSpec) -> None:
    """Raise ConfigError unless the control nodes lie inside the control bounds.

    No coefficient is evaluated here: the solvers check the CFL bound
    (see CflViolationError) at every step, on the coefficients of that step.
    """
    lo, hi = problem.control_bounds
    nodes = grid.control_nodes
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if nodes[0] < lo - tol or nodes[-1] > hi + tol:
        raise ConfigError("control_nodes fall outside the problem's control_bounds")


class _Kernel:
    """Discrete Hamiltonian and backward step of one regime, built once per solve.

    Calling it returns the Hamiltonian, max(vol^2) and max|drift|; the
    Hamiltonian has the shape its terms broadcast to ((n_x, 1) when nothing
    depends on the control, else (n_x, n_u)) and lives in a buffer the next
    call overwrites. Operations run in the same order as a plain full-mesh
    evaluation, so results are bitwise those of np.where/np.interp on
    broadcast arrays.
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
        self.n_t = grid.n_t
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
        # at_jump's result for the next step, when another process evaluated it
        self.jump_values = None

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

    def at_jump(self, t, v_after_row: np.ndarray) -> np.ndarray:
        """V_after at the jump targets of t (np.interp's slope[slot] * off + post[node]),
        free of V_pre, in the targets' shape and the kernel's own "jump" buffer."""
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
        return np.add(out, post, out=out)

    def __call__(self, t: float, v_row: np.ndarray,
                 v_after_row: np.ndarray = None) -> Tuple[np.ndarray, float, float]:
        """(H, max(vol^2), max|drift|) at t; H is read at jump_values if they are set."""
        drift = self._coeff(self.drift, t)
        vol = self._coeff(self.vol, t)
        cost = self._coeff(self.cost, t)
        max_b = max(float(drift.max()), -float(drift.min()))
        values, self.jump_values = self.jump_values, None
        jump = None
        if self.hazard > 0.0:
            # hazard * (V_after(target) - V_pre), in at_jump's own "jump" buffer
            if values is None:
                values = self.at_jump(t, v_after_row)
            jump = np.subtract(values, v_row[:, None], out=self._buf("jump", values.shape))
            np.multiply(jump, self.hazard, out=jump)
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
        sq = 2.0 * float(half_sq.max())
        diffusion = np.multiply(half_sq, self._d2[:, None], out=self._buf("diffusion", shape))
        np.add(ham, diffusion, out=ham)
        np.add(ham, cost, out=ham)
        if jump is not None:
            np.add(ham, jump, out=ham)
        return ham, sq, max_b

    def step(self, t: float, v_next: np.ndarray, v_after_next: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """out = v_next + dt * min_u H(t); returns the first minimizer per node.

        Raises unless max(vol^2) = sq at t is finite and the interior update
        weighs v_next non-negatively: T (max|drift|/dx + sq/dx^2 + hazard) <= n_t,
        so the n_t it names passes; a NaN drift is left to the row's check. The
        minimum is read at argmin: cheaper than a second reduction, same value.
        """
        ham, sq, max_b = self(t, v_next, v_after_next)
        if not math.isfinite(sq):
            raise NumericalError(f"vol is not finite for {self.where} at t={t:.6g}")
        need = self.horizon * (max_b / self.dx + sq / self.dx ** 2 + self.hazard)
        if need > self.n_t:
            if need == math.inf:
                raise NumericalError(f"drift is not finite, or its stability bound "
                                     f"overflows, for {self.where} at t={t:.6g}")
            min_n_t = math.ceil(need)
            raise CflViolationError(f"CFL violation for {self.where} at t={t:.6g}: "
                                    f"dt={self.dt:.3e} exceeds 1/(max|drift|/dx + "
                                    f"max(vol^2)/dx^2 + hazard)={self.horizon / need:.3e}; "
                                    f"need n_t >= {min_n_t}", min_n_t=min_n_t)
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


def _march(problem: RegimeControlProblem, grid: GridSpec, v_after: np.ndarray = None,
           out: np.ndarray = None, handoff=None):
    """Backward explicit steps v[i] = v[i+1] + dt * min_u H, H read at t[i+1].

    Returns (v, index): index[i] holds the node index of each state node's
    minimizing control, in the narrowest unsigned type that indexes the
    control nodes, and is None for the post regime, called without v_after.
    v is written into out when it is given. handoff(i, kernel), when
    given, runs once row i is stepped and checked; the march stops there if it
    returns True. A pre march that finishes warns if hazard * dt is coarse.
    """
    regime = "post" if v_after is None else "pre"
    kernel = _Kernel(problem, grid, regime)
    times = grid.times(problem.horizon)
    v = np.empty((grid.n_t + 1, grid.n_x)) if out is None else out
    v[-1] = problem.terminal_cost(grid.x_nodes)
    index = None if v_after is None else np.empty(
        v.shape, dtype=np.min_scalar_type(grid.control_nodes.size - 1))
    # an overflow or a NaN reaches max(vol^2) or the row, whose checks raise on it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_t - 1, -1, -1):
            pick = kernel.step(times[i + 1], v[i + 1],
                               None if v_after is None else v_after[i + 1], v[i])
            if not np.isfinite(v[i]).all():
                raise NumericalError(f"the {regime} surface is not finite at t={times[i]:.6g}")
            if index is not None:
                index[i] = pick
            if handoff is not None and handoff(i, kernel):
                break
    if index is not None:
        # the terminal row's Hamiltonian is the one the first step minimized
        index[-1] = index[-2]
        hazard_dt = problem.hazard * kernel.dt
        if hazard_dt > HAZARD_DT_WARN:
            warnings.warn(f"hazard*dt = {hazard_dt:.3g} > {HAZARD_DT_WARN}; the one-step "
                          "switch probability is too coarse for the explicit coupling",
                          RuntimeWarning)
    return v, index


# slots in the post worker's ring of jump rows; rows next to the caller's last
# reported one that the worker leaves to the caller; caller steps per report
RING, LEAD, REPORT = 4, 2, 2


class _PostWorker:
    """Marches the post regime in a forked child, ahead of the pre march.

    post_row, the post march's hand-off, forks after the first row and ends
    the caller's post march there; the child then writes its rows into the
    shared map and signals each over a pipe with one byte. pre_row, the pre
    march's, waits for the post row the next pre step reads; it raises
    ChildProcessError if the child ended first.

    With a hazard, the child also fills RING mesh-sized slots of a second map,
    after each post row and then until the caller passes row 1, with at_jump
    of the rows [next - RING + 1, next - LEAD] (next: the caller's last
    report, every REPORT steps over a third pipe), descending, each announced
    over a second pipe. The caller never waits for one: it reads a slot whose
    row was announced and is still held, else evaluates the row itself. Rows
    are filled once, descending, so a slot is reused only after the caller
    passed its row.
    """

    def __init__(self, problem: RegimeControlProblem, grid: GridSpec):
        self.problem, self.grid = problem, grid
        shape = (grid.n_t + 1, grid.n_x)
        ring = RING * grid.n_x * grid.control_nodes.size if problem.hazard > 0.0 else 0
        try:
            buf = mmap.mmap(-1, 8 * shape[0] * shape[1])
            self.ring = (np.frombuffer(mmap.mmap(-1, 8 * ring)).reshape(RING, -1)
                         if ring else None)
        except (OSError, OverflowError) as exc:
            raise MemoryError(f"cannot map a post-switch surface of shape {shape}") from exc
        self.rows = np.frombuffer(buf, dtype=float).reshape(shape)
        self.pid = None            # 0 in the child
        self.fds = []              # this process's ends of the rows, news and progress pipes
        self.ready = grid.n_t - 1  # the lowest post row the caller may read
        self.next = grid.n_t       # the jump row the caller reads next, as last reported
        self.filled = grid.n_t + 1     # the lowest jump row the child filled
        self.held = [(-1, 0)] * RING   # the (row, width) of each slot, as announced

    def post_row(self, i: int, kernel: _Kernel) -> bool:
        if self.pid == 0:
            os.write(self.fds[0], b"\0")
            # an error here ends the child like one in its post march
            if self.ring is not None and self._fill(i) and i == 0:
                os.set_blocking(self.fds[2], True)     # the march is done: wait for reports
                while self._fill(0):
                    pass
            return False
        pipes = [os.pipe() for _ in range(1 if self.ring is None else 3)]
        try:
            self.pid = os.fork()
        except OSError:            # no process to spare: solved serially
            for fd in sum(pipes, ()):
                os.close(fd)
            return True
        # the child keeps the write ends of rows and news and the read end of
        # progress, the caller the other ends
        child = self.pid == 0
        self.fds = [fds[child == (k < 2)] for k, fds in enumerate(pipes)]
        for fd in set(sum(pipes, ())) - set(self.fds):
            os.close(fd)
        if self.ring is not None:
            os.set_blocking(self.fds[2 if child else 1], False)
            if child:
                self.times = self.grid.times(self.problem.horizon)
                self.kernel = _Kernel(self.problem, self.grid, "pre")
        return self.pid > 0

    def _fill(self, low: int) -> bool:
        """Fill the window's rows down to post row low; False once none is left."""
        with contextlib.suppress(BlockingIOError):
            got = os.read(self.fds[2], 4096)
            if not got:            # the caller is gone
                return False
            self.next -= REPORT * len(got)
        for k in range(min(self.filled - 1, self.next - LEAD),
                       max(low, self.next - RING + 1, 1) - 1, -1):
            values = self.kernel.at_jump(self.times[k], self.rows[k])
            self.ring[k % RING, :values.size] = values.ravel()
            os.write(self.fds[1], np.array([k, values.shape[1]]).tobytes())
            self.filled = k
        return min(self.filled - 1, self.next - LEAD) >= 1

    def pre_row(self, i: int, kernel: _Kernel) -> bool:
        while self.ready > i:
            got = os.read(self.fds[0], 4096)
            if not got:
                raise ChildProcessError("the post-switch worker ended early")
            self.ready -= len(got)
        if self.ring is not None:
            with contextlib.suppress(BlockingIOError):  # whole records, each written at once
                news = np.frombuffer(os.read(self.fds[1], 4096), dtype=np.int64)
                for row, width in news.reshape(-1, 2).tolist():
                    self.held[row % RING] = (row, width)
            row, width = self.held[i % RING]
            if row == i:
                slot = self.ring[i % RING, :self.grid.n_x * width]
                kernel.jump_values = slot.reshape(-1, width)
            if (self.grid.n_t - i) % REPORT == 0:
                with contextlib.suppress(BrokenPipeError):  # the child was killed from outside
                    os.write(self.fds[2], b"\0")
        return False

    def stop(self) -> None:
        """End the child: it exits here; the caller kills and reaps it."""
        if self.pid == 0:
            try:   # a reader stays on progress until the kill, so no report breaks the pipe
                for fd in self.fds[:2]:
                    os.close(fd)
                if self.fds[2:]:
                    os.set_blocking(self.fds[2], True)
                    while os.read(self.fds[2], 4096):
                        pass
            finally:
                os._exit(0)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            for fd in self.fds:
                os.close(fd)
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
    the Hamiltonian evaluated on the terminal data itself. A march that ends
    warns if hazard * dt > HAZARD_DT_WARN; one that fails raises, unwarned.
    """
    v_pre, index = _solve_pre(problem, v_after, grid)
    return v_pre, grid.control_nodes[index]


def _solve_pre(problem: RegimeControlProblem, v_after: np.ndarray,
               grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """solve_pre with the policy as control node indices (see _march)."""
    validate_grid_for(problem, grid)
    v_after = np.asarray(v_after, dtype=float)
    if v_after.shape != (grid.n_t + 1, grid.n_x):
        raise ValueError("v_after was not produced on this grid")
    # checked before stepping, where the coupling would meet it through a bare
    # RuntimeWarning; min and max need no mesh-sized temporary
    if not (math.isfinite(v_after.min()) and math.isfinite(v_after.max())):
        raise NumericalError("v_after is not finite")
    return _march(problem, grid, v_after)


def solve_system(problem: RegimeControlProblem, grid: GridSpec) -> ValueSurface:
    """Post-switch solve and the coupled pre-switch solve.

    Each solve checks the control nodes; its steps check CFL and finiteness.
    The post regime is marched in a forked worker beside the pre march;
    whenever that does not run to its end, solve_after then solve_pre give
    the result (see the module docstring), the policy kept as node indices.
    """
    v_pre = None
    if (sys.platform.startswith("linux") and hasattr(os, "fork")
            and threading.active_count() == 1):
        validate_grid_for(problem, grid)
        worker = _PostWorker(problem, grid)
        try:
            v_after = _march(problem, grid, out=worker.rows, handoff=worker.post_row)[0]
            if worker.pid:            # the caller, beside a forked worker
                try:
                    v_pre, index = _march(problem, grid, v_after, handoff=worker.pre_row)
                except Warning:     # raised as an error: the serial path would raise it too
                    raise
                except Exception:   # solved again below
                    pass
        finally:
            worker.stop()
    if v_pre is None:
        v_after = solve_after(problem, grid)
        v_pre, index = _solve_pre(problem, v_after, grid)
    return ValueSurface(v_pre=v_pre, v_after=v_after, policy_index=index, grid=grid)
