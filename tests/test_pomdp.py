import numpy as np
import pytest

from crosswalk_sim.pomdp import (
    ConvergenceError,
    PomdpController,
    PomdpModel,
    QTable,
    RewardWeights,
    greedy_action_table,
    load_policy,
    policy_cache_path,
    pomdp_step,
    qmdp_solve,
    save_policy,
    solve_or_load,
)

from qmdp_reference import dense_reference
from states import trial_state


def small_model(params, geometry, gap_model, **kwargs):
    defaults = dict(n_v_bins=5, n_d_bins=11, discount=0.9)
    defaults.update(kwargs)
    return PomdpModel(params, geometry, gap_model, **defaults)


@pytest.fixture(scope="module")
def greedy(pomdp_model, solved_policy):
    return greedy_action_table(pomdp_model, solved_policy)


class TestModelConstruction:
    def test_transition_rows_sum_to_one(self, pomdp_model):
        p1 = pomdp_model._p_c1
        assert np.all(p1 >= 0.0) and np.all(p1 <= 1.0)
        row_sums = (1.0 - p1) + p1
        assert np.allclose(row_sums, 1.0, atol=1e-9)

    def test_stationary_fixed_point(self, pomdp_model):
        m = pomdp_model
        v0 = m.v_bin(0.0)
        a0 = m.a_bin(0.0)
        for d_bin in range(len(m.d_grid)):
            assert m._v_next_idx[v0, 0, a0] == v0
            assert m._d_next_idx[v0, d_bin, a0] == d_bin

    def test_entry_prob_peaks_near_mean_gap(self, pomdp_model):
        m = pomdp_model
        v_bin = m.v_bin(4.5)
        a0 = m.a_bin(0.0)
        at_mean = m._entry_p[v_bin, m.d_bin(4.0 * 4.5 - 5.0), a0]
        at_eight = m._entry_p[v_bin, m.d_bin(8.0 * 4.5 - 5.0), a0]
        assert at_mean > at_eight

    def test_exit_prob_matches_crossing_time(self, pomdp_model, geometry, gap_model):
        expected = pomdp_model.dt / (geometry.roadway_width / gap_model.walk_speed)
        assert pomdp_model.crossing_exit_prob == pytest.approx(expected)

    def test_grid_validation(self, params, geometry, gap_model):
        with pytest.raises(ValueError):
            PomdpModel(params, geometry, gap_model, dt=0.0)
        with pytest.raises(ValueError):
            PomdpModel(params, geometry, gap_model, discount=1.0)
        with pytest.raises(ValueError):
            PomdpModel(params, geometry, gap_model, n_d_bins=1)
        with pytest.raises(ValueError):
            PomdpModel(params, geometry, gap_model, d_range=(10.0, -10.0))
        with pytest.raises(ValueError):
            PomdpModel(params, geometry, gap_model, actions=(-20.0, 0.0))

    def test_state_index_bijection(self, pomdp_model):
        m = pomdp_model
        cells = np.meshgrid(
            np.arange(len(m.v_grid)), np.arange(2), np.arange(len(m.d_grid)),
            np.arange(len(m.a_grid)), indexing="ij",
        )
        assert np.array_equal(m.state_index(*cells).ravel(), np.arange(m.n_states))


class TestRewardShape:
    def test_no_penalty_at_cruise(self, pomdp_model):
        m = pomdp_model
        s = m.state_index(m.v_bin(4.5), False, m.d_bin(30.0), m.a_bin(0.0))
        assert m.reward_table[s, m.a_bin(0.0)] == 0.0

    def test_crossing_at_speed_is_penalized(self, pomdp_model):
        m = pomdp_model
        s = m.state_index(m.v_bin(4.5), True, m.d_bin(3.0), m.a_bin(0.0))
        assert m.reward_table[s, m.a_bin(0.0)] < -50.0

    def test_smoothness_monotone_in_accel_change(self, pomdp_model):
        m = pomdp_model
        s = m.state_index(m.v_bin(4.5), False, m.d_bin(30.0), m.a_bin(0.0))
        r_small = m.reward_table[s, m.a_bin(-1.0)]
        r_large = m.reward_table[s, m.a_bin(-4.0)]
        assert r_large < r_small < 0.0


class TestSolver:
    def test_converges_below_tol(self, solved_policy):
        assert solved_policy.residuals[-1] < 1e-6
        assert np.all(np.isfinite(solved_policy.q))

    def test_residuals_non_increasing_after_first(self, solved_policy):
        res = solved_policy.residuals
        assert all(res[i + 1] <= res[i] + 1e-12 for i in range(1, len(res) - 1))

    def test_zero_discount_gives_reward(self, params, geometry, gap_model):
        m = small_model(params, geometry, gap_model, discount=0.0)
        table = qmdp_solve(m, tol=1e-9)
        assert np.array_equal(table.q, m.reward_table)

    def test_zero_reward_gives_zero_q(self, params, geometry, gap_model):
        m = small_model(params, geometry, gap_model, weights=RewardWeights(0, 0, 0, 0))
        table = qmdp_solve(m)
        assert np.all(table.q == 0.0)

    def test_non_convergence_raises(self, params, geometry, gap_model):
        m = small_model(params, geometry, gap_model, discount=0.99)
        with pytest.raises(ConvergenceError) as err:
            qmdp_solve(m, tol=1e-12, max_iters=3)
        assert err.value.residual > 0.0

    def test_overflow_stops_at_first_non_finite_residual(self, params, geometry, gap_model):
        # A finite weight whose Q overflows: sweep 1 gives 1e308, sweep 2 inf. The
        # solve stops there, without a NumPy warning, not after 5000 NaN sweeps.
        m = small_model(params, geometry, gap_model, weights=RewardWeights(w_safety=1e308))
        with pytest.raises(ConvergenceError) as err:
            qmdp_solve(m)
        assert err.value.iterations == 2 and err.value.residual == np.inf

    def test_overflowing_reward_table_is_rejected(self, params, geometry, gap_model):
        with pytest.raises(ValueError, match="overflow the reward table"):
            small_model(params, geometry, gap_model,
                        weights=RewardWeights(w_legality=1e308, w_safety=1e308))

    def test_weight_rescaling_preserves_policy(self, params, geometry, gap_model):
        m1 = small_model(params, geometry, gap_model)
        m2 = small_model(
            params, geometry, gap_model,
            weights=RewardWeights(10.0 * 3.7, 50.0 * 3.7, 1.0 * 3.7, 2.0 * 3.7),
        )
        g1 = greedy_action_table(m1, qmdp_solve(m1))
        g2 = greedy_action_table(m2, qmdp_solve(m2))
        assert np.array_equal(g1, g2)

    dense_reference = staticmethod(dense_reference)

    def test_matches_dense_reference(self, params, geometry, gap_model):
        m = small_model(params, geometry, gap_model)
        q, residuals = self.dense_reference(m)
        table = qmdp_solve(m, tol=1e-6)
        assert np.array_equal(table.q, q)
        assert table.residuals == residuals

    def test_matches_dense_reference_on_asymmetric_rewards(self, params, geometry, gap_model):
        # The model's only action-pair term, -|a - a_prev|, is symmetric, so an
        # (a, a_prev) mix-up would pass the case above; random rewards and a
        # 4-action grid expose it and any hard-coded action count.
        m = small_model(params, geometry, gap_model, actions=(-2.0, -1.0, 0.0, 1.0))
        m.reward_table = np.random.default_rng(7).normal(size=(m.n_states, m.n_actions))
        q, residuals = self.dense_reference(m)
        table = qmdp_solve(m, tol=1e-6)
        assert np.array_equal(table.q, q)
        assert table.residuals == residuals

    def test_actions_within_limits(self, pomdp_model, params):
        assert pomdp_model.a_grid.min() >= -params.a_max
        assert pomdp_model.a_grid.max() <= params.a_cmf


class TestPolicy:
    def test_cruise_far_from_crosswalk(self, pomdp_model, greedy):
        s = trial_state(d=44.0, v=4.5, x_p=-2.5, xdot_p=0.0)
        a = pomdp_model.a_grid[pomdp_step(greedy, pomdp_model, s, pomdp_model.a_bin(0.0))]
        assert a == 0.0

    def test_brakes_for_crossing_pedestrian(self, pomdp_model, greedy):
        s = trial_state(d=15.0, v=4.5, x_p=2.0, xdot_p=1.2)
        a = pomdp_model.a_grid[pomdp_step(greedy, pomdp_model, s, pomdp_model.a_bin(0.0))]
        assert a < 0.0

    def test_lookup_is_pure(self, pomdp_model, greedy):
        s = trial_state(d=12.0, v=3.0, x_p=1.0, xdot_p=1.2)
        first = pomdp_step(greedy, pomdp_model, s, 2)
        assert all(pomdp_step(greedy, pomdp_model, s, 2) == first for _ in range(5))

    def test_out_of_grid_clamps(self, pomdp_model, greedy):
        s = trial_state(d=500.0, v=20.0, x_p=-2.5, xdot_p=0.0)
        idx = pomdp_step(greedy, pomdp_model, s, 0)
        assert type(idx) is int and 0 <= idx < pomdp_model.n_actions

    def test_controller_holds_between_decisions(self, pomdp_model, solved_policy):
        ctrl = PomdpController(pomdp_model, solved_policy, sim_dt=0.05)
        assert ctrl.hold_ticks == 5
        s = trial_state(d=30.0, v=4.5, x_p=-2.5, xdot_p=0.0)
        commands = [ctrl.step(s, k) for k in range(10)]
        assert len(set(commands[:5])) == 1
        assert all(type(a) is float for a in commands)
        # Tick 0 starts a trial afresh: the previous action is the zero command's.
        s.a_prev_idx = 0
        ctrl.step(s, 0)
        assert s.a_prev_idx == pomdp_step(ctrl.greedy, pomdp_model, s, pomdp_model.a_bin(0.0))

    def test_tie_break_prefers_small_accel(self, pomdp_model, solved_policy):
        flat = QTable(q=np.zeros_like(solved_policy.q))
        greedy = greedy_action_table(pomdp_model, flat)
        zero_idx = pomdp_model.a_bin(0.0)
        assert np.all(greedy == zero_idx)


class TestSerialization:
    def test_roundtrip(self, tmp_path, pomdp_model, solved_policy):
        # The cache, --export and greedy_action_table read q as C-contiguous (S, A) float64.
        q = solved_policy.q
        assert q.shape == (pomdp_model.n_states, pomdp_model.n_actions)
        assert q.dtype == np.float64 and q.flags.c_contiguous
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, solved_policy)
        loaded = load_policy(path, pomdp_model)
        assert loaded is not None
        assert np.array_equal(loaded.q, q)
        assert np.array_equal(greedy_action_table(pomdp_model, loaded),
                              greedy_action_table(pomdp_model, solved_policy))

    def test_key_mismatch_rejected(self, tmp_path, params, geometry, gap_model, pomdp_model, solved_policy):
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, solved_policy)
        other = PomdpModel(
            params, geometry, gap_model, weights=RewardWeights(w_safety=99.0)
        )
        assert load_policy(path, other) is None

    def test_missing_file(self, tmp_path, pomdp_model):
        assert load_policy(tmp_path / "nope.npz", pomdp_model) is None

    def test_shape_mismatch_rejected(self, tmp_path, pomdp_model, solved_policy):
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, QTable(q=solved_policy.q[:-1]))
        assert load_policy(path, pomdp_model) is None

    def test_garbage_file_is_a_miss(self, tmp_path, pomdp_model):
        path = tmp_path / "policy.npz"
        path.write_bytes(b"\x00garbage" * 50)
        assert load_policy(path, pomdp_model) is None

    def test_truncated_file_is_a_miss(self, tmp_path, pomdp_model, solved_policy):
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, solved_policy)
        path.write_bytes(path.read_bytes()[:200])
        assert load_policy(path, pomdp_model) is None

    def test_compressed_cache_still_loads(self, tmp_path, pomdp_model, solved_policy):
        # Caches written deflated, as save_policy once wrote them, stay valid.
        path = policy_cache_path(tmp_path, pomdp_model)
        with open(path, "wb") as f:
            np.savez_compressed(f, q=solved_policy.q, cache_key=np.array(pomdp_model.cache_key))
        table = solve_or_load(pomdp_model, tmp_path, tol=1e-6)
        assert table.residuals == []  # a cache hit
        assert np.array_equal(table.q, solved_policy.q)

    def test_flipped_payload_byte_is_a_miss(self, tmp_path, pomdp_model, solved_policy):
        # The archive is stored, not deflated, so Q's bytes lie in the file as they
        # are; zip's CRC-32 still catches one that changed.
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, solved_policy)
        raw = bytearray(path.read_bytes())
        payload = solved_policy.q.tobytes()
        at = raw.find(payload)
        assert at > 0
        raw[at + len(payload) // 2] ^= 0x10
        path.write_bytes(raw)
        assert load_policy(path, pomdp_model) is None

    def test_save_leaves_only_the_policy(self, tmp_path, pomdp_model, solved_policy):
        save_policy(tmp_path / "policy.npz", pomdp_model, solved_policy)
        assert [p.name for p in tmp_path.iterdir()] == ["policy.npz"]

    def test_key_covers_model_internals(self, monkeypatch, params, geometry, gap_model, pomdp_model):
        import crosswalk_sim.pomdp as pomdp

        real_cdf = pomdp._normal_cdf
        monkeypatch.setattr(pomdp, "_normal_cdf", lambda z: real_cdf(1.1 * z))
        changed = PomdpModel(params, geometry, gap_model)
        assert changed.cache_key != pomdp_model.cache_key
        monkeypatch.undo()
        assert PomdpModel(params, geometry, gap_model).cache_key == pomdp_model.cache_key
