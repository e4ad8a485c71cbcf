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

from .core import (ControllerParams, PedestrianState, VehicleState, WorldGeometry, require_finite,
                   require_finite_fields, whole_ticks, write_output)
from .hybrid import in_crosswalk
from .pedestrian import GapAcceptanceModel

if TYPE_CHECKING:
    from .simulator import BatchState

log = logging.getLogger(__name__)

_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))


@dataclass(frozen=True)
class RewardWeights:
    """Relative importance of the four reward terms; shapes are fixed."""

    w_legality: float = 10.0
    w_safety: float = 50.0
    w_efficient: float = 1.0
    w_smooth: float = 2.0

    def __post_init__(self) -> None:
        require_finite_fields(self)


class PomdpModel:
    """Grids, transition kernel, and reward table for the planner."""

    def __init__(
        self,
        params: ControllerParams,
        geometry: WorldGeometry,
        gap_model: GapAcceptanceModel,
        weights: RewardWeights = RewardWeights(),
        dt: float = 0.25,
        discount: float = 0.99,
        n_v_bins: int = 13,
        n_d_bins: int = 51,
        d_range: tuple[float, float] = (-5.0, 45.0),
        actions: tuple[float, ...] = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0),
    ):
        require_finite(dt=dt, discount=discount, d_range=d_range, actions=actions)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if n_v_bins < 2 or n_d_bins < 2 or not actions:
            raise ValueError("grids must be non-empty")
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
        v_step = self.v_grid[1] - self.v_grid[0]
        d_step = self.d_grid[1] - self.d_grid[0]
        self._v_next_idx = np.clip(
            np.round((v_next - self.v_grid[0]) / v_step), 0, nv - 1
        ).astype(np.int64)
        self._d_next_idx = np.clip(
            np.round((d_next - self.d_grid[0]) / d_step), 0, nd - 1
        ).astype(np.int64)

        # Entry hazard: probability that the sampled accepted gap falls inside
        # the gap interval swept during this step, zero once the vehicle has
        # reached the walking line and capped at the largest actionable gap.
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
        r_c = np.broadcast_to(
            w.w_legality * legality + w.w_safety * safety + w.w_smooth * smooth, full
        )
        r_nc = np.broadcast_to(w.w_efficient * efficient + w.w_smooth * smooth, full)
        r = np.stack([r_nc, r_c], axis=1)  # c axis sits after v
        self.reward_table = r.reshape(self.n_states, na).copy()

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


def qmdp_solve(model: PomdpModel, tol: float = 1e-6, max_iters: int = 5000) -> QTable:
    """Value-iterate Q to a sup-norm residual below ``tol``.

    During the sweeps Q is held action-first, as (a, a_prev, v·c·d), because
    NumPy reduces and broadcasts over a trailing axis of length ``n_actions``
    (6) slowly. V is then a max over the leading axis, an elementwise
    ``np.maximum`` of contiguous action slices, and the continuation value
    broadcasts over the outer a_prev axis. Each element goes through the same
    IEEE operations in the same order as on the (S, A) layout, so Q is
    bitwise the same. The returned ``q`` is (S, A), C-contiguous.

    Raises ``ConvergenceError`` carrying the final residual if the budget
    runs out first.
    """
    na = model.n_actions
    n_vcd = model.n_states // na
    # Model arrays moved once into V's (a_prev, v·c·d) layout: a flat state
    # (v·c·d)·na + a_prev becomes a_prev·n_vcd + v·c·d.
    r = np.ascontiguousarray(model.reward_table.reshape(n_vcd, na, na).transpose(2, 1, 0))
    p_c1 = np.ascontiguousarray(np.moveaxis(model._p_c1, 3, 0))  # (a, v, c, d)
    p_c0 = 1.0 - p_c1
    ns0, ns1 = (np.moveaxis(ns % na * n_vcd + ns // na, 2, 0)[:, :, None, :]
                for ns in (model._ns0, model._ns1))  # (a, v, 1, d)
    gamma = model.discount
    # Reused (a, a_prev, v·c·d) buffers, action-first so no sweep reduces or broadcasts
    # a length-6 trailing axis; fresh temporaries re-fault trimmed heap pages (~20% slower).
    q = np.zeros_like(r)
    q_new = np.empty_like(r)
    diff = np.empty_like(r)
    vbuf = np.empty((na, n_vcd))
    residuals: list[float] = []
    for _ in range(max_iters):
        v = q.max(axis=0, out=vbuf).ravel()
        cont = p_c0 * v[ns0] + p_c1 * v[ns1]
        np.add(r, (gamma * cont).reshape(na, 1, n_vcd), out=q_new)
        np.abs(np.subtract(q_new, q, out=diff), out=diff)
        residual = float(diff.max())
        residuals.append(residual)
        q, q_new = q_new, q
        if residual < tol:
            if not np.all(np.isfinite(q)):
                raise ConvergenceError(residual, len(residuals))
            # `diff` is free now; reuse it for the (S, A) copy.
            out = diff.reshape(n_vcd, na, na)
            np.copyto(out, q.transpose(2, 1, 0))
            return QTable(q=out.reshape(model.n_states, na), residuals=residuals)
    raise ConvergenceError(residuals[-1], max_iters)


def greedy_action_table(model: PomdpModel, qtable: QTable) -> np.ndarray:
    """Per-state greedy action index; ties go to the lowest-|a| action."""
    order = np.argsort(np.abs(model.a_grid), kind="stable")
    best_in_order = np.argmax(qtable.q[:, order], axis=1)
    return order[best_in_order].astype(np.int64)


def pomdp_step(
    greedy: np.ndarray,
    model: PomdpModel,
    vehicle: VehicleState,
    ped: PedestrianState,
    a_prev_bin: int,
) -> tuple[float, int]:
    """Command from ``greedy_action_table`` for the observed state; returns (command, action bin)."""
    if not (model.d_grid[0] <= vehicle.d <= model.d_grid[-1]) or not (
        model.v_grid[0] <= vehicle.v <= model.v_grid[-1]
    ):
        log.debug("state outside grid, clamping: d=%.2f v=%.2f", vehicle.d, vehicle.v)
    state = model.state_index(
        model.v_bin(vehicle.v),
        in_crosswalk(ped, model.geometry),
        model.d_bin(vehicle.d),
        a_prev_bin,
    )
    a_idx = int(greedy[state])
    return float(model.a_grid[a_idx]), a_idx


class PomdpController:
    """Solved-policy controller behind the same per-tick step interface.

    The policy was optimized at the model's coarser decision period, so the
    command is re-evaluated on that period and held between decisions.
    The policy has no modes and raises no safety events.
    """

    label = "pomdp"
    modes = (label,)
    safety_events: tuple[str, ...] = ()

    def __init__(self, model: PomdpModel, qtable: QTable, sim_dt: float):
        self.model = model
        self.greedy = greedy_action_table(model, qtable)
        self.hold_ticks = max(1, whole_ticks(model.dt, sim_dt, "model.dt"))
        self.reset()

    def reset(self) -> None:
        self._a_idx = self.model.a_bin(0.0)
        self._a = 0.0
        self._tick = 0

    def step(self, vehicle: VehicleState, ped: PedestrianState) -> float:
        if self._tick % self.hold_ticks == 0:
            self._a, self._a_idx = pomdp_step(self.greedy, self.model, vehicle, ped, self._a_idx)
        self._tick += 1
        return self._a

    def step_batch(self, s: BatchState, tick: int) -> np.ndarray:
        """``step`` for every live trial of a lockstep batch; returns the commands.

        Every trial starts at tick 0, so the decision ticks line up and each
        decision is one gather from the greedy table.
        """
        m = self.model
        if tick == 0:
            s.a_prev_idx[:] = m.a_bin(0.0)  # reset
        if tick % self.hold_ticks == 0:
            c = in_crosswalk(s, m.geometry)
            s.a_prev_idx = self.greedy[m.state_index(m.v_bin(s.v), c, m.d_bin(s.d), s.a_prev_idx)]
        return m.a_grid[s.a_prev_idx]


def save_policy(path: Path, model: PomdpModel, qtable: QTable) -> None:
    """Write through a temporary file so a reader never sees a partial policy."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez_compressed(f, q=qtable.q, cache_key=np.array(model.cache_key))
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
