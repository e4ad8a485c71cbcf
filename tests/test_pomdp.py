import numpy as np
import pytest

import crosswalk_sim.pomdp as pomdp
from crosswalk_sim.pomdp import (
    ConvergenceError,
    PomdpController,
    QTable,
    greedy_action_table,
    load_policy,
    policy_cache_path,
    pomdp_step,
    qmdp_solve,
    save_policy,
    solve_or_load,
)

from qmdp_reference import assert_near_value_iteration, backup_change, wavefront_evaluate
from states import CONFIG, config_with, scaled_weights, trial_state


def small_model(**pomdp):
    """A coarse model of the default config with the ``[pomdp]`` keys ``pomdp`` over it."""
    return config_with(pomdp={"n_v_bins": 5, "n_d_bins": 11, "gamma": 0.9, **pomdp}).pomdp_model()


TOL = CONFIG.pomdp["tol"]


def assert_matches_value_iteration(m):
    """The certificate is a dense backup's change; Q and the greedy table are value iteration's."""
    table = qmdp_solve(m, tol=TOL)
    assert table.residuals == [backup_change(m, table.q)]
    q_vi = assert_near_value_iteration(m, table, TOL)
    assert np.array_equal(greedy_action_table(m, table), greedy_action_table(m, QTable(q=q_vi)))


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

    def test_grid_validation(self):
        for pomdp in [dict(dt=0.0), dict(gamma=1.0), dict(n_d_bins=1),
                      dict(d_min=10.0, d_max=-10.0), dict(actions="-20,0")]:
            with pytest.raises(ValueError):
                config_with(pomdp=pomdp).pomdp_model()

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
        assert solved_policy.residuals[-1] < TOL
        assert np.all(np.isfinite(solved_policy.q))

    def test_certificate_is_one_dense_backup(self, pomdp_model, solved_policy):
        # The one residual is the sup-norm change of a dense Bellman backup of Q.
        assert solved_policy.residuals == [backup_change(pomdp_model, solved_policy.q)]
        assert solved_policy.rounds > 0
        assert solved_policy.q.flags.c_contiguous

    @pytest.mark.parametrize("preset", [None, "experiment"], ids=["default", "experiment"])
    def test_presets_match_value_iteration(self, preset):
        # The controller reads only the greedy table, which must be value iteration's.
        assert_matches_value_iteration(config_with(preset).pomdp_model())

    def test_zero_discount_gives_reward(self):
        m = small_model(gamma=0.0)
        table = qmdp_solve(m, tol=1e-9)
        assert np.array_equal(table.q, m.reward_table)

    def test_zero_reward_gives_zero_q(self):
        m = small_model(**scaled_weights(0.0))
        table = qmdp_solve(m, tol=TOL)
        assert np.all(table.q == 0.0)

    def test_non_convergence_raises(self):
        # A tol the certificate does not get below raises, carrying the certificate.
        m = small_model(gamma=0.99)
        residual = qmdp_solve(m, tol=TOL).residuals[0]
        with pytest.raises(ConvergenceError, match="not solved exactly") as err:
            qmdp_solve(m, tol=residual)
        assert err.value.residual == residual

    def test_policy_cycle_ends_the_layer(self, monkeypatch):
        # Zero rewards leave no rounding allowance (eps = 0), while this evaluation is
        # off by 1e-3, with the sign flipping each round, so the greedy policy cycles.
        # Meeting a policy again ends the layer, and the certificate raises on the
        # error it leaves.
        evaluate, calls = pomdp._evaluate, []

        def noisy(v, rows, *args):
            evaluate(v, rows, *args)
            calls.append(len(rows))
            v[rows] += 1e-3 if len(calls) % 2 else -1e-3

        monkeypatch.setattr(pomdp, "_evaluate", noisy)
        with pytest.raises(ConvergenceError) as err:
            qmdp_solve(small_model(**scaled_weights(0.0)), tol=TOL)
        assert err.value.residual >= TOL
        assert len(calls) < 100

    def test_round_one_reads_the_final_value_of_a_speed_that_cannot_stay(self):
        # With no braking action a move that stays in its layer can reach a speed that
        # cannot stay. Round 1 of that layer reads the speed's final V, not the layer
        # below's guess, which would take 34 rounds here.
        table = qmdp_solve(small_model(n_v_bins=13, n_d_bins=21, actions="0,1"), tol=TOL)
        assert table.rounds == 33

    def test_too_large_rounding_allowance_raises(self, monkeypatch):
        # An allowance above every gain stops each layer at its first policy, and the
        # certificate of a Q that is not a fixed point raises.
        monkeypatch.setattr(pomdp, "_ROUNDING", 1.0)
        with pytest.raises(ConvergenceError, match="not solved exactly"):
            qmdp_solve(small_model(), tol=TOL)

    def test_solve_calls_no_blas(self, monkeypatch, pomdp_model, solved_policy):
        # BLAS and LAPACK round differently by CPU and build; Q's bytes, which the
        # golden digests pin, must come from elementwise IEEE operations alone.
        def refuse(*args, **kwargs):
            raise AssertionError("the solve called BLAS or LAPACK")

        for name in ("dot", "vdot", "inner", "matmul", "einsum", "tensordot"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(np, "linalg", None)
        q = qmdp_solve(pomdp_model, tol=TOL).q
        monkeypatch.undo()
        assert np.array_equal(q, solved_policy.q)

    @pytest.mark.parametrize("seed", range(8))
    def test_evaluate_matches_a_dense_solve(self, seed):
        # Policies over 30 rows and 20 known states, with self loops, zero weights and
        # certain moves. Odd seeds only point forward (no cycle, no elimination); even
        # seeds point mostly at rows, and their cycles leave 11 to 28 rows to the
        # elimination. The known states keep their bits.
        rng = np.random.default_rng(seed)
        n_known, n, gamma = 20, 30, 0.99
        v = 100.0 * rng.normal(size=n_known + n)
        rows = np.arange(n_known, n_known + n)
        ns = rng.integers(n_known - 5, n_known + n, size=(2, n))
        if seed % 2:
            ns = np.where(ns >= rows, ns, rng.integers(0, n_known, size=(2, n)))
        p = rng.choice([0.0, 1.0, 0.3, 0.9], size=n)
        w, rr = gamma * np.stack([1.0 - p, p]), rng.normal(size=n)
        m, b = np.eye(n), rr.copy()
        for s in (0, 1):
            inside = ns[s] >= n_known
            np.subtract.at(m, (np.flatnonzero(inside), ns[s, inside] - n_known), w[s, inside])
            b[~inside] += w[s, ~inside] * v[ns[s, ~inside]]
        want, known = np.linalg.solve(m, b), v[:n_known].copy()
        pomdp._evaluate(v, rows, ns, w, rr)
        assert np.abs(v[rows] - want).max() <= 1e-9 * np.abs(want).max()
        assert np.array_equal(v[:n_known], known)

    @pytest.mark.parametrize("seed", range(10))
    def test_evaluate_matches_the_numpy_wavefront_bit_for_bit(self, monkeypatch, seed):
        # Policies over 60 rows, in shuffled state order, and 10 known states. State 0 is
        # infinite and reached only by weight-0 edges, which must count as 0.0, not 0·inf.
        # Every seed has self loops, p in {0, 1}, edges to later rows and a chain 20
        # levels deep; odd seeds close a cycle of 2 to 5 rows, which with the rows
        # behind it goes to _eliminate.
        rng = np.random.default_rng(seed)
        n_known, n, gamma = 10, 60, 0.99
        v = 100.0 * rng.normal(size=n_known + n)
        v[0] = np.inf
        rows, rr = n_known + rng.permutation(n), rng.normal(size=n)
        p = rng.choice([0.0, 1.0, 0.3, rng.uniform()], size=n)
        later = rows[np.minimum(np.arange(n) + rng.integers(1, 10, size=(2, n)), n - 1)]
        ns = np.where(rng.random((2, n)) < 0.3, later, rng.integers(1, n_known, size=(2, n)))
        ns = np.where(rng.random((2, n)) < 0.1, rows, ns)  # self loops
        ns[0, :20] = rows[1:21]  # the chain
        if seed % 2:
            cycle = np.arange(40, 40 + rng.integers(2, 6))
            p[cycle], ns[1, cycle] = 0.5, rows[np.roll(cycle, -1)]
        w = gamma * np.stack([1.0 - p, p])
        ns = np.where((w == 0.0) & (rng.random((2, n)) < 0.5), 0, ns)
        eliminated, eliminate = [], pomdp._eliminate
        monkeypatch.setattr(pomdp, "_eliminate", lambda v, rows, *args: (
            eliminated.append(len(rows)), eliminate(v, rows, *args)))
        want = v.copy()
        with np.errstate(invalid="ignore"):  # as in qmdp_solve: 0·inf is NaN in an elimination
            wavefront_evaluate(want, rows, ns, w, rr)
            pomdp._evaluate(v, rows, ns, w, rr)
        assert v.tobytes() == want.tobytes()
        assert bool(eliminated) == bool(seed % 2)

    def test_overflowing_q_raises(self):
        # A finite weight whose Q overflows gives a certificate that is not finite,
        # raised without a NumPy warning.
        m = small_model(w_safety=1e308)
        with pytest.raises(ConvergenceError) as err:
            qmdp_solve(m, tol=TOL)
        assert not np.isfinite(err.value.residual)

    def test_overflowing_reward_table_is_rejected(self):
        with pytest.raises(ValueError, match="overflow the reward table"):
            small_model(w_legality=1e308, w_safety=1e308)

    def test_weight_rescaling_preserves_policy(self):
        m1 = small_model()
        m2 = small_model(**scaled_weights(3.7))
        g1 = greedy_action_table(m1, qmdp_solve(m1, tol=TOL))
        g2 = greedy_action_table(m2, qmdp_solve(m2, tol=TOL))
        assert np.array_equal(g1, g2)

    def test_matches_dense_reference(self):
        assert_matches_value_iteration(small_model())

    def test_matches_dense_reference_on_asymmetric_rewards(self):
        # The model's only action-pair term, -|a - a_prev|, is symmetric, so an
        # (a, a_prev) mix-up would pass the case above; random rewards and a
        # 4-action grid expose it and any hard-coded action count.
        m = small_model(actions="-2,-1,0,1")
        m.reward_table = np.random.default_rng(7).normal(size=(m.n_states, m.n_actions))
        table = qmdp_solve(m, tol=TOL)
        assert table.residuals == [backup_change(m, table.q)]
        assert_near_value_iteration(m, table, TOL)

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

    def test_controller_rejects_a_period_under_one_tick(self, pomdp_model, solved_policy):
        # 0.25 s is within 1e-9 of 0 ticks of 1e12 s: a period of 0 ticks, not 1.
        with pytest.raises(ValueError, match="model.dt = 0.25 s is shorter than one"):
            PomdpController(pomdp_model, solved_policy, sim_dt=1e12)

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

    def test_key_mismatch_rejected(self, tmp_path, pomdp_model, solved_policy):
        path = tmp_path / "policy.npz"
        save_policy(path, pomdp_model, solved_policy)
        other = config_with(pomdp={"w_safety": 99.0}).pomdp_model()
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

    def test_npy_file_is_a_miss(self, tmp_path, pomdp_model, solved_policy):
        # np.load gives a plain .npy file's array, not an archive.
        path = tmp_path / "policy.npz"
        with open(path, "wb") as f:
            np.save(f, solved_policy.q)
        assert load_policy(path, pomdp_model) is None

    def test_compressed_cache_still_loads(self, tmp_path, pomdp_model, solved_policy):
        # Caches written deflated, as save_policy once wrote them, stay valid.
        path = policy_cache_path(tmp_path, pomdp_model)
        with open(path, "wb") as f:
            np.savez_compressed(f, q=solved_policy.q, cache_key=np.array(pomdp_model.cache_key))
        table = solve_or_load(pomdp_model, tmp_path, tol=TOL)
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

    @pytest.mark.parametrize("preset,key", [(None, "e4fe05bdd6f00d25"),
                                            ("experiment", "e566ab781fa52e70")],
                             ids=["default", "experiment"])
    def test_preset_keys_are_pinned(self, preset, key):
        # A change that moves a preset's key re-solves every user's cached policy.
        assert config_with(preset).pomdp_model().cache_key == key

    def test_key_covers_model_internals(self, monkeypatch, config, pomdp_model):
        import crosswalk_sim.pomdp as pomdp

        real_cdf = pomdp._normal_cdf
        monkeypatch.setattr(pomdp, "_normal_cdf", lambda z: real_cdf(1.1 * z))
        changed = config.pomdp_model()
        assert changed.cache_key != pomdp_model.cache_key
        monkeypatch.undo()
        assert config.pomdp_model().cache_key == pomdp_model.cache_key
