"""The plain (S, A) QMDP update, which ``qmdp_solve`` must match bit for bit."""

import numpy as np


def dense_reference(m, tol=1e-6):
    """The plain update on the kernel broadcast to (S, A) tables; returns (Q, residuals)."""
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

    q = np.zeros_like(m.reward_table)
    residuals = [np.inf]
    while residuals[-1] >= tol:
        v = q.max(axis=1)
        q_new = m.reward_table + m.discount * ((1.0 - p1) * v[ns0] + p1 * v[ns1])
        residuals.append(float(np.max(np.abs(q_new - q))))
        q = q_new
    return q, residuals[1:]
