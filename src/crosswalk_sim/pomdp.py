"""Discretized crosswalk decision process solved by QMDP-style value iteration.

The comparison controller plans over a coarse grid of (speed, pedestrian
in crosswalk, distance, previous action). Vehicle motion is a deterministic
point mass; the crosswalk flag follows a hazard derived from the same
gap-acceptance distribution the simulator's pedestrian uses, so the planner
and the world share one behavioral model. With the pedestrian posture fixed
and the crosswalk flag directly observed, the belief is a point mass and the
QMDP policy reduces to a greedy lookup on the solved Q-table.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (ControllerParams, WorldGeometry, require_finite, require_finite_fields,
                   whole_ticks, write_output)
from .hybrid import in_crosswalk
from .pedestrian import GapAcceptanceModel

if TYPE_CHECKING:
    from .simulator import BatchState, TrialState

log = logging.getLogger(__name__)

_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))


def _sup_norm(d: np.ndarray) -> float:
    """``float(np.max(np.abs(d)))`` bit for bit, NaN and zeros included, without the abs pass."""
    return abs(max(float(d.max()), -float(d.min())))


@dataclass(frozen=True)
class RewardWeights:
    """Relative importance of the four reward terms; shapes are fixed."""

    w_legality: float
    w_safety: float
    w_efficient: float
    w_smooth: float

    def __post_init__(self) -> None:
        require_finite_fields(self)


class PomdpModel:
    """Grids, transition kernel, and reward table for the planner."""

    def __init__(
        self,
        params: ControllerParams,
        geometry: WorldGeometry,
        gap_model: GapAcceptanceModel,
        weights: RewardWeights,
        dt: float,
        discount: float,
        n_v_bins: int,
        n_d_bins: int,
        d_range: tuple[float, float],
        actions: tuple[float, ...],
    ):
        require_finite(dt=dt, discount=discount, d_range=d_range, actions=actions)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if n_v_bins < 2 or n_d_bins < 2 or not actions:
            raise ValueError("grids must be non-empty")
        if len(set(actions)) != len(actions):  # -0.0 == 0.0
            raise ValueError(f"actions must not repeat, got {actions!r}")
        if d_range[1] <= d_range[0]:
            raise ValueError("inconsistent d_range")

        self.params = params
        self.geometry = geometry
        self.gap_model = gap_model
        self.weights = weights
        self.dt = dt
        self.discount = discount
        v_max = max(6.0, params.v_speedlimit + 1.5)
        self.v_grid = np.linspace(0.0, v_max, n_v_bins)
        self.d_grid = np.linspace(d_range[0], d_range[1], n_d_bins)
        self.a_grid = np.array(sorted(actions), dtype=float)
        if self.a_grid.min() < -params.a_max or self.a_grid.max() > params.a_cmf:
            raise ValueError("action grid exceeds [-a_max, +a_cmf]")
        self.crossing_exit_prob = dt / (geometry.roadway_width / gap_model.walk_speed)

        self._build()

    # -- grid helpers --------------------------------------------------------

    def v_bin(self, v):
        return self._snap(v, self.v_grid)

    def d_bin(self, d):
        return self._snap(d, self.d_grid)

    def a_bin(self, a: float) -> int:
        return int(np.argmin(np.abs(self.a_grid - a)))

    @staticmethod
    def _snap(x, grid: np.ndarray):
        """Nearest grid index (ties to even), clamped to the grid; takes a float or an array."""
        step = grid[1] - grid[0]
        i = np.rint((x - grid[0]) / step)
        return np.minimum(np.maximum(i, 0), len(grid) - 1).astype(np.int64)

    def state_index(self, v_bin, c, d_bin, a_prev_bin):
        """Flat C-order index over (v, c, d, a_prev); takes ints or NumPy arrays."""
        nd, na = len(self.d_grid), len(self.a_grid)
        return ((v_bin * 2 + c) * nd + d_bin) * na + a_prev_bin

    @property
    def n_states(self) -> int:
        return len(self.v_grid) * 2 * len(self.d_grid) * len(self.a_grid)

    @property
    def n_actions(self) -> int:
        return len(self.a_grid)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        gm, geo = self.gap_model, self.geometry
        nv, nd, na = len(self.v_grid), len(self.d_grid), len(self.a_grid)
        v = self.v_grid[:, None, None]
        d = self.d_grid[None, :, None]
        a = self.a_grid[None, None, :]

        v_next = np.clip(v + a * self.dt, self.v_grid[0], self.v_grid[-1])
        d_next = d - v * self.dt - 0.5 * a * self.dt * self.dt
        self._v_next_idx = self.v_bin(v_next)
        self._d_next_idx = self.d_bin(d_next)

        # Entry hazard: probability that the sampled accepted gap falls inside
        # the gap interval swept during this step, zero once the vehicle has
        # reached the walking line and capped at the largest actionable gap.
        v_step = self.v_grid[1] - self.v_grid[0]
        v_eff = np.maximum(v, 0.5 * v_step)
        v_eff_next = np.maximum(v_next, 0.5 * v_step)
        g_now = np.broadcast_to((d + geo.delta) / v_eff, (nv, nd, na))
        g_next = (d_next + geo.delta) / v_eff_next

        def z(g):
            return (np.minimum(g, gm.max_trigger_gap) - gm.mu_gap) / gm.sigma_gap

        hazard = _normal_cdf(z(g_now)) - _normal_cdf(z(g_next))
        past = np.broadcast_to(d + geo.delta <= 0.0, (nv, nd, na))
        self._entry_p = np.clip(np.where(past, 0.0, hazard), 0.0, 1.0)

        # Reward table over (v, c, d, a_prev, a), flattened to (S, A).
        w = self.weights
        vv = self.v_grid[:, None, None, None]
        dd = self.d_grid[None, :, None, None]
        aa_prev = self.a_grid[None, None, :, None]
        aa = self.a_grid[None, None, None, :]
        moving = vv > 0.3
        legality = -1.0 * (moving & (dd >= -1.0) & (dd <= 12.0))
        safety = -1.0 * (moving & (dd >= -1.0) & (dd <= 6.0))
        efficient = -np.abs(vv - self.params.v_speedlimit) / self.params.v_speedlimit
        smooth = -np.abs(aa - aa_prev)
        full = (nv, nd, na, na)
        with np.errstate(over="ignore"):  # reported below
            r_c = np.broadcast_to(
                w.w_legality * legality + w.w_safety * safety + w.w_smooth * smooth, full
            )
            r_nc = np.broadcast_to(w.w_efficient * efficient + w.w_smooth * smooth, full)
        r = np.stack([r_nc, r_c], axis=1)  # c axis sits after v
        self.reward_table = r.reshape(self.n_states, na).copy()
        if not math.isfinite(_sup_norm(self.reward_table)):
            raise ValueError(f"reward weights {w} overflow the reward table")

        # The kernel, once, on the axes it depends on (none is a_prev): next-state
        # indices for c'=0/1 over (v, d, a), and P(c'=1) over (v, c, d, a).
        self._ns0 = self.state_index(self._v_next_idx, 0, self._d_next_idx, np.arange(na))
        self._ns1 = self._ns0 + nd * na
        self._p_c1 = np.stack(
            [self._entry_p, np.full_like(self._entry_p, 1.0 - self.crossing_exit_prob)], axis=1
        )

        # The key covers everything `qmdp_solve` reads, so any change to the
        # model, reward shapes included, selects a different cached policy.
        h = hashlib.sha256(repr(self.discount).encode())
        for arr in (self.reward_table, self._ns0, self._ns1, self._p_c1):
            h.update(arr)
        self.cache_key = h.hexdigest()[:16]


class ConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(f"value iteration residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


@dataclass
class QTable:
    """Converged state-action values plus the greedy policy."""

    q: np.ndarray
    residuals: list[float] = field(default_factory=list)


def qmdp_solve(model: PomdpModel, tol: float, max_iters: int = 5000) -> QTable:
    """Value-iterate Q to a sup-norm residual below ``tol``.

    During the sweeps Q is held as (a_prev, a, v·c·d), because NumPy reduces
    and broadcasts over a trailing axis of length ``n_actions`` (6) slowly.
    V is a max over the middle (action) axis. The next-state values of both
    crosswalk flags come from one flat ``np.take`` with a (c', a, v·c·d)
    index built here, and the discounted continuation value ``x``, of shape
    (a, v·c·d), broadcasts over the leading a_prev axis as whole contiguous
    blocks: each sweep sets Q to ``r + x``. Every step writes into a buffer
    made once, and Q is the only table of Q's size that a sweep writes.

    The residual ``max|q_new - q|`` needs no second table either. Q before
    the sweep was ``r + y``, with ``y`` the last sweep's ``x``, and rounding
    keeps each ``|fl(r + x) - fl(r + y)|`` close to ``|x - y|``, so the
    residual is taken exactly, from the max and min of the signed
    difference, over the few (a, v·c·d) columns whose ``|x - y|`` comes near
    the largest.

    Each element of Q and of the residual goes through the same IEEE
    operations in the same order as on the (S, A) layout, so Q and every
    residual are bitwise the same as the plain (S, A) update's. The returned
    ``q`` is (S, A), C-contiguous.

    Raises ``ConvergenceError`` at the first residual that is not finite (a
    Q that overflows) or, carrying the final residual, if the budget runs out
    first.
    """
    na = model.n_actions
    n_vcd = model.n_states // na
    # Model arrays moved once into V's (a_prev, v·c·d) layout: a flat state
    # (v·c·d)·na + a_prev becomes a_prev·n_vcd + v·c·d.
    r = np.ascontiguousarray(
        model.reward_table.reshape(n_vcd, na, na).transpose(1, 2, 0)).reshape(na, na * n_vcd)
    r_max = _sup_norm(r)
    p_c1 = np.moveaxis(model._p_c1, 3, 0).reshape(-1)  # (a·v·c·d)
    p = np.stack([1.0 - p_c1, p_c1])
    # Next-state indices over (a, v, d), broadcast over c to the same (c', a·v·c·d).
    full = (na, *model._p_c1.shape[:3])  # (a, v, c, d)
    idx = np.stack([np.broadcast_to(np.moveaxis(ns % na * n_vcd + ns // na, 2, 0)[:, :, None, :],
                                    full).reshape(-1)
                    for ns in (model._ns0, model._ns1)])
    gamma = model.discount
    # Buffers reused by every sweep; fresh temporaries re-fault trimmed heap pages (~20% slower).
    q = np.zeros_like(r)  # (a_prev, a·v·c·d)
    v = np.empty(na * n_vcd)  # (a_prev·v·c·d)
    g = np.empty_like(p)
    g0, g1 = g
    x, y, delta = np.empty((3, na * n_vcd))
    q3, v2 = q.reshape(na, na, n_vcd), v.reshape(na, n_vcd)
    residuals: list[float] = []
    y_max = 0.0
    # A Q that overflows shows as a non-finite residual, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(max_iters):
            q3.max(axis=1, out=v2)
            np.take(v, idx, out=g, mode="clip")
            np.multiply(p, g, out=g)
            np.add(g0, g1, out=x)
            np.multiply(gamma, x, out=x)
            np.add(r, x, out=q)
            x_max = _sup_norm(x)
            if sweep == 0:
                residual = _sup_norm(q)  # from Q = 0
            else:
                # With u = 2**-53 and R, X, Y, D the largest |r|, |x|, |y| and
                # fl(|x - y|), every |fl(r + x) - fl(r + y)| lies within
                # 2.01·u·(2R + X + Y + D) of its column's fl(|x - y|) unless a sum
                # overflows. So a column whose fl(|x - y|) falls short of D by more
                # than twice that cannot hold the largest difference. The slack is
                # 16·u·(...), which also covers its own rounding.
                np.abs(np.subtract(x, y, out=delta), out=delta)
                d_max = float(delta.max())
                slack = 2.0 ** -49 * (2.0 * r_max + x_max + y_max + d_max)
                if math.isfinite(slack):
                    cols = np.flatnonzero(delta >= d_max - slack)
                    residual = _sup_norm(q[:, cols] - (r[:, cols] + y[cols]))
                else:  # an overflow or NaN: every column
                    residual = _sup_norm(q - (r + y))
            residuals.append(residual)
            if not math.isfinite(residual):
                raise ConvergenceError(residual, len(residuals))
            if residual < tol:
                out = np.ascontiguousarray(q3.transpose(2, 0, 1))
                return QTable(q=out.reshape(model.n_states, na), residuals=residuals)
            x, y, y_max = y, x, x_max
    raise ConvergenceError(residuals[-1], max_iters)


def greedy_action_table(model: PomdpModel, qtable: QTable) -> np.ndarray:
    """Per-state greedy action index; ties go to the lowest-|a| action."""
    order = np.argsort(np.abs(model.a_grid), kind="stable")
    best_in_order = np.argmax(qtable.q[:, order], axis=1)
    return order[best_in_order].astype(np.int64)


def pomdp_step(greedy: np.ndarray, model: PomdpModel, s: TrialState, a_prev_bin: int) -> int:
    """The action bin ``greedy_action_table`` picks for trial ``s``'s observed state."""
    if not (model.d_grid[0] <= s.d <= model.d_grid[-1]) or not (
        model.v_grid[0] <= s.v <= model.v_grid[-1]
    ):
        log.debug("state outside grid, clamping: d=%.2f v=%.2f", s.d, s.v)
    state = model.state_index(
        model.v_bin(s.v),
        in_crosswalk(s, model.geometry),
        model.d_bin(s.d),
        a_prev_bin,
    )
    return int(greedy[state])


class PomdpController:
    """Solved-policy controller behind the same per-tick step interface.

    The policy was optimized at the model's coarser decision period, so the
    command is re-evaluated on that period and held between decisions. The
    held action is the trial's ``a_prev_idx``, which is also the previous
    action of its next decision; the controller keeps no per-trial state. The
    policy has one mode and raises no safety events.
    """

    modes = ("pomdp",)

    def __init__(self, model: PomdpModel, qtable: QTable, sim_dt: float):
        self.model = model
        self.greedy = greedy_action_table(model, qtable)
        self.hold_ticks = max(1, whole_ticks(model.dt, sim_dt, "model.dt"))
        self.commands = tuple(model.a_grid.tolist())  # each action as a Python float

    def step(self, s: TrialState, tick: int) -> float:
        if tick == 0:
            s.a_prev_idx = self.model.a_bin(0.0)  # start
        if tick % self.hold_ticks == 0:
            s.a_prev_idx = pomdp_step(self.greedy, self.model, s, s.a_prev_idx)
        return self.commands[s.a_prev_idx]

    def step_batch(self, s: BatchState, tick: int) -> np.ndarray:
        """``step`` for every row of a lockstep batch; returns the commands.

        Every row starts at tick 0, so the decision ticks line up and each
        decision is one gather from the greedy table. The bins clamp to the
        grid, so a finished row that ticks on still indexes the table.
        """
        m = self.model
        if tick == 0:
            s.a_prev_idx[:] = m.a_bin(0.0)  # start
        if tick % self.hold_ticks == 0:
            c = in_crosswalk(s, m.geometry)
            state = m.state_index(m.v_bin(s.v), c, m.d_bin(s.d), s.a_prev_idx)
            s.a_prev_idx[:] = self.greedy[state]
        return m.a_grid[s.a_prev_idx]


def save_policy(path: Path, model: PomdpModel, qtable: QTable) -> None:
    """Write through a temporary file so a reader never sees a partial policy.

    The archive is stored, not deflated: Q's float64 bits compress poorly
    (382 KB to 149 KB on the default model) and deflate is most of a save's and
    a load's time. Zip's CRC-32 still guards every member, and ``load_policy``
    reads compressed caches as well."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez(f, q=qtable.q, cache_key=np.array(model.cache_key))
    os.replace(tmp, path)


def load_policy(path: Path, model: PomdpModel) -> Optional[QTable]:
    """The cached table matching ``model``'s key and shape; None if missing, unreadable or stale."""
    try:
        with np.load(path, allow_pickle=False) as data:
            key, q = str(data["cache_key"]), data["q"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    if key != model.cache_key or q.shape != (model.n_states, model.n_actions):
        return None
    return QTable(q=q)


def policy_cache_path(cache_dir: Path, model: PomdpModel) -> Path:
    return Path(cache_dir) / f"pomdp_policy_{model.cache_key}.npz"


def solve_or_load(model: PomdpModel, cache_dir: Path, tol: float) -> QTable:
    """The cached policy for ``model``, else a fresh solve (the only kind with ``residuals``)."""
    path = policy_cache_path(cache_dir, model)
    cached = load_policy(path, model)
    if cached is not None:
        return cached
    table = qmdp_solve(model, tol=tol)
    save_policy(path, model, table)
    return table


def export_policy_csv(path: Path, model: PomdpModel, qtable: QTable) -> None:
    """Flat (state index, action index, Q-value) table for external tooling."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ["%d,%d,%.9g\n" % (s, a, q) for s, row in enumerate(qtable.q.tolist())
            for a, q in enumerate(row)]
    write_output(path, "state_index,action_index,q_value\n" + "".join(rows))
