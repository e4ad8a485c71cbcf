"""Discretized crosswalk decision process, solved exactly one distance layer at a time.

The comparison controller plans over a coarse grid of (speed, pedestrian
in crosswalk, distance, previous action). Vehicle motion is a deterministic
point mass; the crosswalk flag follows a hazard derived from the same
gap-acceptance distribution the simulator's pedestrian uses, so the planner
and the world share one behavioral model. With the pedestrian posture fixed
and the crosswalk flag directly observed, the belief is a point mass and the
QMDP policy reduces to a greedy lookup on the Q-table ``qmdp_solve`` certifies.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (ControllerParams, WorldGeometry, bound, require_finite, require_finite_fields,
                   whole_ticks, write_output)
from .pedestrian import GapAcceptanceModel

if TYPE_CHECKING:
    from .simulator import BatchState, TrialState

log = logging.getLogger(__name__)

_erf = np.frompyfunc(math.erf, 1, 1)
_ROUNDING = 2.0 ** -50  # qmdp_solve's allowance for the rounding of a policy's values


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

    def __init__(self, params: ControllerParams, geometry: WorldGeometry,
                 gap_model: GapAcceptanceModel, weights: RewardWeights, dt: float,
                 discount: float, n_v_bins: int, n_d_bins: int, d_range: tuple[float, float],
                 actions: tuple[float, ...]):
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
        # Each grid's first point, step, last index and last point as Python floats,
        # so that ``pomdp_step`` bins one state with no NumPy call.
        self.v_snap, self.d_snap = ((float(g[0]), float(g[1] - g[0]), len(g) - 1.0, float(g[-1]))
                                    for g in (self.v_grid, self.d_grid))

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

        with np.errstate(over="ignore"):  # checked below
            v_next = np.clip(v + a * self.dt, self.v_grid[0], self.v_grid[-1])
            d_next = d - v * self.dt - 0.5 * a * self.dt * self.dt
        if not np.isfinite(d_next).all():
            raise ValueError(f"dt = {self.dt!r} s overflows the distance covered in one step")
        self._v_next_idx = self.v_bin(v_next)
        # Never up a bin, as the plant never reverses (braking at v = 0 would); see qmdp_solve.
        self._d_next_idx = np.minimum(self.d_bin(d_next), np.arange(nd)[:, None])

        # Entry hazard: probability that the sampled accepted gap falls inside
        # the gap interval swept during this step, zero once the vehicle has
        # reached the walking line and capped at the largest actionable gap.
        v_step = self.v_grid[1] - self.v_grid[0]
        v_eff = np.maximum(v, 0.5 * v_step)
        v_eff_next = np.maximum(v_next, 0.5 * v_step)
        with np.errstate(over="ignore"):  # an infinite gap is capped at max_trigger_gap below
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
        # Each transition's two weights, p and 1 - p, form a distribution; NaN fails too.
        if not ((self._p_c1 >= 0.0) & (self._p_c1 <= 1.0)).all():
            raise ValueError(
                f"dt = {self.dt!r} s, the decision period, is longer than the crossing time "
                f"{geo.roadway_width / gm.walk_speed!r} s (roadway_width / walk_speed), "
                "so P(c'=1) leaves [0, 1]")

        # The key covers everything `qmdp_solve` reads, so any change to the
        # model, reward shapes included, selects a different cached policy.
        h = hashlib.sha256(repr(self.discount).encode())
        for arr in (self.reward_table, self._ns0, self._ns1, self._p_c1):
            h.update(arr)
        self.cache_key = h.hexdigest()[:16]


class ConvergenceError(RuntimeError):
    def __init__(self, residual: float, tol: float, layers: int, rounds: int):
        super().__init__(f"not solved exactly ({layers} layers, {rounds} policy-iteration rounds, "
                         f"residual {residual:.3e} not below tol {tol:g})")
        self.residual = residual


@dataclass
class QTable:
    """Solved state-action values; a fresh solve also carries its certificate and round count."""

    q: np.ndarray
    residuals: list[float] = field(default_factory=list)
    rounds: int = 0


def _evaluate(v, rows, ns, w, rr) -> None:
    """Set ``v[rows]`` to a fixed policy's values, ``rr + w[0]·v[ns[0]] + w[1]·v[ns[1]]``.

    A row is solved as ``(rr + (t0 + t1)) / den`` once each successor is known, is
    the row itself or has weight 0.0 (those two go into ``den``). The rows are swept
    in Python floats, at this size much cheaper than NumPy calls, until a sweep
    solves none; a row's value depends only on its successors' final values, so the
    sweep order changes no bit. The rows left, on or behind a longer cycle, go to
    ``_eliminate``. Python floats and elementwise NumPy round the same IEEE
    operations the same way, and no BLAS runs, so V has the same bits on every
    platform and NumPy build.
    """
    rows_l = rows.tolist()
    at = {s: i for i, s in enumerate(rows_l)}
    val, wait = [None] * len(rows_l), []
    for i, row, s0, s1, w0, w1, v0, v1, r in zip(range(len(rows_l)), rows_l, *ns.tolist(),
                                                  *w.tolist(), *v[ns].tolist(), rr.tolist()):
        # A successor's t is w·V if it is known, its w while it is an unsolved row j, and
        # 0.0 if it is the row itself or w is 0.0; den is 1 - the weight of those last.
        if s0 == row or w0 == 0.0:
            j0, t0, own = None, 0.0, w0
        else:
            j0 = at.get(s0)
            t0, own = (w0 * v0 if j0 is None else w0), 0.0
        if s1 == row or w1 == 0.0:
            j1, t1, own = None, 0.0, own + w1
        else:
            j1 = at.get(s1)
            t1 = w1 * v1 if j1 is None else w1
        wait.append((i, j0, t0, j1, t1, r, 1.0 - own))
    while wait:
        left = []
        for item in wait:
            i, j0, t0, j1, t1, r, den = item
            if j0 is not None:
                if (y := val[j0]) is None:
                    left.append(item)
                    continue
                t0 *= y
            if j1 is not None:
                if (y := val[j1]) is None:
                    left.append(item)
                    continue
                t1 *= y
            val[i] = (r + (t0 + t1)) / den
        if len(left) == len(wait):
            break
        wait = left
    if not wait:
        v[rows] = val
        return
    k = np.array([item[0] for item in wait])
    solved = np.ones(len(rows_l), dtype=bool)
    solved[k] = False
    v[rows[solved]] = [y for y in val if y is not None]
    _eliminate(v, rows[k], ns[:, k], w[:, k], rr[k])


def _eliminate(v, rows, ns, w, rr) -> None:
    """Set ``v[rows]`` as ``_evaluate`` does, where each successor is one of ``rows``
    or has its value in ``v``, by Gauss-Jordan elimination in NumPy: unpivoted, as
    I - w is row diagonally dominant, and elementwise, so no BLAS."""
    m = len(rows)
    col = (ns[:, :, None] == rows).argmax(axis=-1)  # which row a successor is; 0 if none
    open_ = rows[col] == ns
    a, t = np.eye(m, m + 1), np.where(open_, 0.0, w * v[ns])
    a[:, m] = rr + (t[0] + t[1])
    np.subtract.at(a, (np.arange(m), col), np.where(open_, w, 0.0))
    for i in range(m):
        a[i] /= a[i, i]
        a -= np.multiply.outer(np.where(np.arange(m) == i, 0.0, a[:, i]), a[i])
    v[rows] = a[:, m]


def qmdp_solve(model: PomdpModel, tol: float) -> QTable:
    """Solve Q exactly, one distance layer at a time, and certify it.

    The model never moves the vehicle up a distance bin, so a distance bin's states
    (a layer) read only their layer and those below, and the layers are solved from
    the lowest up (topological value iteration, Dai & Goldsmith 2007). The speeds
    that can stay in a layer, all of them in the clamped lowest layer, are solved by
    policy iteration (Howard 1960), seeded with the layer below. One backup of all a
    layer's speeds gives the final X of those whose every action leaves the layer
    and round 1's X of those that can stay; ``_evaluate`` runs each round's policy
    in Python floats. X, the discounted next-state value, does not depend on a_prev,
    so it is held over (v, c, d, a), and Q is built once as R + X. ``residuals``' one
    entry is the certificate: the sup-norm change of one Bellman backup of Q. Raises
    ``ConvergenceError`` if it is not finite or not below ``tol``.
    """
    nv, nd, na = len(model.v_grid), len(model.d_grid), model.n_actions
    gamma, p_c1, ns0, ns1 = model.discount, model._p_c1, model._ns0, model._ns1
    r = model.reward_table.reshape(nv, 2, nd, na, na)  # (v, c, d, a_prev, a)
    r_max = _sup_norm(r)
    v = np.zeros((nv, 2, nd, na))  # V over (v, c, d, a_prev): v.flat is V by state index
    x = np.empty_like(v)  # X over (v, c, d, a)
    rounds = 0
    stays = model._d_next_idx == np.arange(nd)[:, None]  # (v, d, a)
    can_stay = stays.any(axis=2)  # (v, d)
    # The layers where a move that stays reaches a speed that cannot stay (none on the
    # presets; a grid with no braking action has them): round 1 there must read that
    # speed's final V, which is set after the layer's backup.
    reread = (stays & ~can_stay[model._v_next_idx[:, 0][:, None], np.arange(nd)[:, None]]).any(
        axis=(0, 2))
    j_all, cc, bb = np.ix_(np.arange(nv), range(2), range(na))

    def backup(speeds, d):  # X of layer d's speeds from the current V, as (speed, c, a)
        p, v_flat = p_c1[speeds, :, d], v.reshape(-1)
        return gamma * ((1.0 - p) * v_flat[ns0[speeds, d]][:, None]
                        + p * v_flat[ns1[speeds, d]][:, None])

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the certificate
        for d in range(nd):
            cyc = np.flatnonzero(can_stay[:, d])
            if d:
                v[:, :, d] = v[:, :, d - 1]  # the first policy's guess
            x[:, :, d] = backup(slice(None), d)  # final for the speeds that cannot stay
            np.copyto(v[:, :, d], (r[:, :, d] + x[:, :, d, None]).max(axis=-1),
                      where=~can_stay[:, d, None, None])
            if not cyc.size:
                continue
            jj = j_all[:len(cyc)]
            rows = model.state_index(cyc[jj], cc, d, bb).reshape(-1)
            # A value _evaluate sets carries a few roundings (u = 2**-53) of its successors', or
            # an elimination's n·u·|M| on I - gamma·P_pi, where |M^-1| <= 1/(1 - gamma). As
            # |V| <= r_max/(1 - gamma), V is off by less than n·2**-52·r_max/(1 - gamma)**2, a
            # gain by twice that: eps. A smaller gain may be round-off, and switching on it
            # could cycle; should the bound fail, meeting a policy again ends the layer.
            eps = len(rows) * _ROUNDING * r_max / (1.0 - gamma) ** 2
            rc, pc = r[cyc, :, d], p_c1[cyc, :, d]
            # The successors' states over (c', speed, a) and weights over (c', speed, c, a).
            ns_c, w_c = np.stack([ns0[cyc, d], ns1[cyc, d]]), gamma * np.stack([1.0 - pc, pc])
            xc = backup(cyc, d) if reread[d] else x[cyc, :, d]
            policy, seen = np.zeros((len(cyc), 2, na), dtype=np.int64), set()
            while True:
                q = rc + xc[:, :, None]  # (speed, c, a_prev, a)
                gain = q.max(axis=-1) - q[jj, cc, bb, policy]  # NaN: no switch
                best = np.where(gain > eps, q.argmax(axis=-1), policy)
                if (key := best.tobytes()) in seen:  # no switch, or a cycle
                    break
                seen.add(key)
                policy = best
                _evaluate(v.reshape(-1), rows, ns_c[:, jj, policy].reshape(2, -1),
                          w_c[:, jj, cc, policy].reshape(2, -1), rc[jj, cc, bb, policy].reshape(-1))
                rounds += 1
                xc = backup(cyc, d)
            x[cyc, :, d] = xc
            v[cyc, :, d] = q.max(axis=-1)

        q5 = r + x[:, :, :, None]
        q = q5.reshape(model.n_states, na)
        # One Bellman backup of Q, compared an a_prev slice at a time: no temporary is Q's size.
        v_q = q.max(axis=1)
        x_q = gamma * ((1.0 - p_c1) * v_q[ns0][:, None] + p_c1 * v_q[ns1][:, None])
        residual = float(np.max([_sup_norm(r[..., b, :] + x_q - q5[..., b, :]) for b in range(na)]))
    if not residual < tol:  # also NaN
        raise ConvergenceError(residual, tol, nd, rounds)
    return QTable(q=q, residuals=[residual], rounds=rounds)


def greedy_action_table(model: PomdpModel, qtable: QTable) -> np.ndarray:
    """Per-state greedy action index; ties go to the lowest-|a| action."""
    order = np.argsort(np.abs(model.a_grid), kind="stable")
    best_in_order = np.argmax(qtable.q[:, order], axis=1)
    return order[best_in_order].astype(np.int64)


def pomdp_step(greedy: np.ndarray, model: PomdpModel, s: TrialState, a_prev_bin: int) -> int:
    """The action bin ``greedy_action_table`` picks for trial ``s``'s observed state,
    whose crosswalk flag is ``s.right_of_way``.

    ``_snap`` of one state in Python floats: the same quotient, clamped, then
    ``round``, which ties to even as ``np.rint`` does (clamping first keeps an
    infinite quotient from ``round``).
    """
    v, d = s.v, s.d
    v_lo, v_step, v_top, v_hi = model.v_snap
    d_lo, d_step, d_top, d_hi = model.d_snap
    if not (d_lo <= d <= d_hi and v_lo <= v <= v_hi):
        log.debug("state outside grid, clamping: d=%.2f v=%.2f", d, v)
    v_bin = round(min(max((v - v_lo) / v_step, 0.0), v_top))
    d_bin = round(min(max((d - d_lo) / d_step, 0.0), d_top))
    return int(greedy[model.state_index(v_bin, s.right_of_way, d_bin, a_prev_bin)])


def decision_ticks(dt: float, sim_dt: float, name: str) -> int:
    """The decision period ``dt`` in whole ticks of ``sim_dt`` (``whole_ticks``);
    ``ValueError`` naming ``name`` if it is shorter than one tick, since no
    controller decides more than once a tick."""
    n = whole_ticks(dt, sim_dt, name)
    if n < 1:
        raise ValueError(f"{name} = {dt!r} s is shorter than one {sim_dt!r} s tick")
    return n


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
        self.hold_ticks = decision_ticks(model.dt, sim_dt, "model.dt")
        self.commands = tuple(model.a_grid.tolist())  # each action as a Python float
        self.start_bin = model.a_bin(0.0)  # the previous action at a trial's start

    def step(self, s: TrialState, tick: int) -> float:
        if tick == 0:
            s.a_prev_idx = self.start_bin
        if tick % self.hold_ticks == 0:
            s.a_prev_idx = pomdp_step(self.greedy, self.model, s, s.a_prev_idx)
        return self.commands[s.a_prev_idx]

    @cached_property
    def _operands(self) -> SimpleNamespace:
        """``step_batch``'s scalar operands, each a read-only 0-d array, bound on
        its first call: ``_snap``'s grid constants and ``state_index``'s sizes. A
        controller that only serves ``step`` builds none."""
        m, index = self.model, np.intp
        v, d = m.v_grid, m.d_grid
        return SimpleNamespace(
            v_lo=bound(v[0]), v_step=bound(v[1] - v[0]), v_top=bound(len(v) - 1.0),
            d_lo=bound(d[0]), d_step=bound(d[1] - d[0]), d_top=bound(len(d) - 1.0),
            zero=bound(0.0), two=bound(2, index), n_d=bound(len(d), index),
            n_a=bound(m.n_actions, index))

    def step_batch(self, s: BatchState, tick: int) -> np.ndarray:
        """``step`` for every row of a lockstep batch; returns the commands.

        Every row is on one tick, so the decision ticks line up. A decision is
        ``_snap`` and ``state_index`` of every row, on operands bound once
        (``_operands``), and one gather from the greedy table; between
        decisions it writes nothing and returns the held commands. Its first call
        may come on a tick after 0, when ``step`` has started the rows, and inside
        a hold. The bins clamp to the grid, so a finished row that ticks on still
        indexes the table.
        """
        if tick == 0:
            s.a_prev_idx[:] = self.start_bin
        if tick % self.hold_ticks == 0:
            k = self._operands
            v_bin = np.minimum(np.maximum(np.rint((s.v - k.v_lo) / k.v_step), k.zero), k.v_top)
            d_bin = np.minimum(np.maximum(np.rint((s.d - k.d_lo) / k.d_step), k.zero), k.d_top)
            c = s.right_of_way  # adds as 0 or 1
            state = ((v_bin.astype(np.intp) * k.two + c) * k.n_d + d_bin.astype(np.intp)) * k.n_a
            s.a_prev_idx[:] = self.greedy[state + s.a_prev_idx]
        return self.model.a_grid[s.a_prev_idx]


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
    """The cached table matching ``model``'s key and shape; None if missing, unreadable or stale.

    The file is opened here, so it is closed whatever ``np.load`` makes of it,
    a truncated archive included; a file that holds no archive is a miss too."""
    try:
        with open(path, "rb") as f:
            data = np.load(f, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a plain .npy array
                return None
            with data:
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
    if (cached := load_policy(path, model)) is not None:
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
