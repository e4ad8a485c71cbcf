"""Oracles for ``qmdp_solve``: one dense (S, A) Bellman backup, value iteration built on
it, and a NumPy policy evaluation and dense elimination that ``pomdp._evaluate`` and
``pomdp._eliminate`` must match bit for bit."""

import numpy as np


def bellman_backup(m):
    """The map Q -> R + gamma·E[max_a Q(s', a)], on the kernel broadcast to (S, A) tables."""
    nv, nd, na = len(m.v_grid), len(m.d_grid), len(m.a_grid)
    full = (nv, 2, nd, na, na)  # v, c, d, a_prev, a
    s_v = m._v_next_idx[:, None, :, None, :]
    s_d = m._d_next_idx[:, None, :, None, :]
    a = np.arange(na)
    ns0 = np.broadcast_to(m.state_index(s_v, 0, s_d, a), full).reshape(m.n_states, na)
    ns1 = np.broadcast_to(m.state_index(s_v, 1, s_d, a), full).reshape(m.n_states, na)
    block = (nv, 1, nd, na, na)
    p1 = np.concatenate(
        [np.broadcast_to(m._entry_p[:, None, :, None, :], block),
         np.broadcast_to(1.0 - m.crossing_exit_prob, block)],
        axis=1,
    ).reshape(m.n_states, na)

    def backup(q):
        v = q.max(axis=1)
        return m.reward_table + m.discount * ((1.0 - p1) * v[ns0] + p1 * v[ns1])

    return backup


def dense_reference(m, tol):
    """Plain value iteration from Q = 0 until the sup-norm change is below ``tol``.

    Returns (Q, residuals). Its Q lies within gamma·residuals[-1]/(1 - gamma) of
    the exact one, up to rounding."""
    backup = bellman_backup(m)
    q = np.zeros_like(m.reward_table)
    residuals = [np.inf]
    while residuals[-1] >= tol:
        q_new = backup(q)
        residuals.append(float(np.max(np.abs(q_new - q))))
        q = q_new
    return q, residuals[1:]


def backup_change(m, q):
    """The sup-norm change of one dense Bellman backup of ``q``."""
    return float(np.max(np.abs(bellman_backup(m)(q) - q)))


def assert_near_value_iteration(m, table, tol):
    """Assert that ``table``'s Q lies within value iteration's own bound of the
    oracle's, and return the oracle's Q.

    Value iteration stops within gamma·res/(1 - gamma) of the exact Q, and the table
    within certificate/(1 - gamma) of it. The slack, 32 ulps of max|r|/(1 - gamma)
    summed by the contraction, covers the rounding of the oracle's sweeps."""
    q_vi, res = dense_reference(m, tol)
    gamma, scale = m.discount, np.abs(m.reward_table).max() / (1.0 - m.discount)
    bound = (gamma * res[-1] + table.residuals[0] + 2.0 ** -48 * scale) / (1.0 - gamma)
    assert np.abs(table.q - q_vi).max() <= bound
    return q_vi


def wavefront_evaluate(v, rows, ns, w, rr):
    """``pomdp._evaluate`` in NumPy arrays: each wavefront level, the rows whose
    successors are solved, is one round of array operations. It applies the same
    IEEE operations to each value, so it sets the same bits."""
    done = np.ones(len(v), dtype=bool)
    done[rows] = False
    loop = (ns == rows) | (w == 0.0)  # a successor a row need not wait for
    den = 1.0 - (np.where(loop[0], w[0], 0.0) + np.where(loop[1], w[1], 0.0))
    while (ready := ~done[rows] & (done[ns[0]] | loop[0]) & (done[ns[1]] | loop[1])).any():
        t, solved = np.where(loop, 0.0, w * v[ns]), rows[ready]
        v[solved], done[solved] = ((rr + (t[0] + t[1])) / den)[ready], True
    if (k := np.flatnonzero(~done[rows])).size:  # the rows on or behind a longer cycle
        dense_eliminate(v, rows[k], ns[:, k], w[:, k], rr[k])


def dense_eliminate(v, rows, ns, w, rr):
    """``pomdp._eliminate`` on the dense matrix, which it must match bit for bit:
    Gauss-Jordan elimination in NumPy, unpivoted and elementwise, so no BLAS."""
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
