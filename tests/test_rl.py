import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratnet import rl
from ratnet.network import build_dense_network, forward
from ratnet.rl import (ACTIONS, DqnConfig, GridWorld, ReplayBuffer,
                       ScoreNormalizationError, ScoreReport, dqn_train,
                       epsilon_at, greedy_return, normalize_score,
                       optimal_return, random_return, rollout_return,
                       value_iteration)


class TestGridWorld:
    def test_step_right_from_origin(self):
        env = GridWorld()
        env.reset()
        state, reward, done = env.step(ACTIONS.index("right"))
        assert env.position == (1, 0)
        assert reward == env.step_reward
        assert not done
        assert state[env.state_index((1, 0))] == 1.0

    def test_boundary_keeps_position(self):
        env = GridWorld()
        env.reset()
        _, reward, done = env.step(ACTIONS.index("left"))
        assert env.position == (0, 0)
        assert reward == env.step_reward

    def test_wall_keeps_position(self):
        env = GridWorld(walls=frozenset({(1, 0)}))
        env.reset()
        env.step(ACTIONS.index("right"))
        assert env.position == (0, 0)

    def test_goal_pays_and_terminates(self):
        env = GridWorld(width=2, height=1, start=(0, 0), goal=(1, 0))
        env.reset()
        _, reward, done = env.step(ACTIONS.index("right"))
        assert done
        assert reward == env.step_reward + env.goal_reward

    def test_max_steps_terminates(self):
        env = GridWorld(max_steps=3)
        env.reset()
        for i in range(3):
            _, _, done = env.step(ACTIONS.index("left"))
        assert done

    def test_invalid_action_rejected(self):
        env = GridWorld()
        env.reset()
        with pytest.raises(ValueError):
            env.step(7)

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            GridWorld(start=(0, 0), goal=(0, 0))
        with pytest.raises(ValueError):
            GridWorld(walls=frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            GridWorld(goal=(99, 0))

    def test_optimal_return_matches_shortest_path(self):
        # 8 steps of -1 plus the +10 goal bonus
        env = GridWorld(width=5, height=5, start=(0, 0), goal=(4, 4),
                        step_reward=-1.0, goal_reward=10.0)
        assert optimal_return(env) == 2.0

    def test_value_iteration_respects_walls(self):
        # a wall column forces a detour: 5x1 corridor with a wall would be
        # unsolvable, so use a 3x3 with a center wall
        env = GridWorld(width=3, height=3, start=(0, 0), goal=(2, 2),
                        walls=frozenset({(1, 1)}), step_reward=-1.0,
                        goal_reward=10.0)
        assert optimal_return(env) == -4.0 + 10.0  # still 4 moves around


class TestReplayBuffer:
    def test_capacity_never_exceeded(self, rng):
        buf = ReplayBuffer(capacity=10, min_size=2, rng=rng)
        for i in range(35):
            buf.push(i, 0, 0.0, i, False)
        assert len(buf) == 10

    def test_ring_overwrites_oldest(self, rng):
        buf = ReplayBuffer(capacity=3, min_size=1, rng=rng)
        for i in range(5):
            buf.push(i, 0, 0.0, i, False)
        drawn = {int(s) for _ in range(200) for s in buf.sample(4)[0]}
        assert drawn == {2, 3, 4}

    def test_sampling_before_fill_rejected(self, rng):
        buf = ReplayBuffer(capacity=10, min_size=5, rng=rng)
        for i in range(4):
            buf.push(i, 0, 0.0, i, False)
        with pytest.raises(ValueError):
            buf.sample(2)

    def test_sampling_deterministic_per_seed(self):
        samples = []
        for _ in range(2):
            buf = ReplayBuffer(capacity=50, min_size=1,
                               rng=np.random.default_rng(4))
            for i in range(50):
                buf.push(i, i % 4, float(i), i, False)
            samples.append(buf.sample(16)[0])
        assert np.array_equal(samples[0], samples[1])

    def test_sample_golden(self):
        # 57 pushes wrap a 40-slot ring; the storage must keep the draw
        # sequence, the values and the dtypes that DQN updates consume
        buf = ReplayBuffer(capacity=40, min_size=1, rng=np.random.default_rng(11))
        for i in range(57):
            buf.push(i % 25, i % 4, -1.0 + 0.5 * (i % 3), (i * 7) % 25, i % 5 == 0)
        states, actions, rewards, nexts, dones = buf.sample(32)
        assert [a.dtype for a in (states, actions, rewards, nexts, dones)] == [
            np.int64, np.int64, np.float64, np.int64, np.float64]
        assert states.tolist() == [20, 20, 6, 19, 23, 24, 3, 16, 19, 20, 6, 12, 21, 17,
                                   21, 20, 5, 12, 14, 24, 9, 4, 20, 20, 17, 1, 14, 1,
                                   9, 20, 3, 6]
        assert actions.tolist() == [1, 1, 3, 3, 3, 0, 0, 1, 3, 1, 0, 1, 1, 2, 1, 1, 2,
                                    1, 3, 0, 2, 2, 1, 0, 1, 2, 3, 3, 2, 1, 1, 3]
        assert rewards.tolist() == [-1.0, -1.0, -0.5, -0.5, 0.0, -1.0, -0.5, 0.0, -0.5,
                                    -1.0, 0.0, -0.5, -1.0, -1.0, -1.0, -1.0, -1.0,
                                    -0.5, -1.0, -1.0, -0.5, -1.0, -1.0, 0.0, 0.0, 0.0,
                                    -1.0, -1.0, -0.5, -1.0, 0.0, -0.5]
        assert nexts.tolist() == [15, 15, 17, 8, 11, 18, 21, 12, 8, 15, 17, 9, 22, 19,
                                  22, 15, 10, 9, 23, 18, 13, 3, 15, 15, 19, 7, 23, 7,
                                  13, 15, 21, 17]
        assert dones.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                                  0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                  1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


class TestDqnConfig:
    @pytest.mark.parametrize("field, value", [
        ("train_steps", -5), ("target_update_freq", 0), ("target_update_freq", -3),
        ("eval_freq", 0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("learning_rate", 0.0)])
    def test_rejects_values_that_fail_late_or_silently(self, field, value):
        with pytest.raises(ValueError, match=field):
            DqnConfig(**{field: value})

    def test_zero_steps_allowed(self):
        assert DqnConfig(train_steps=0).train_steps == 0

    @pytest.mark.parametrize("steps", [1, 300, 499])
    def test_rejects_runs_that_never_update(self, steps):
        with pytest.raises(ValueError, match="train_steps must be 0 or >= initial_fill"):
            DqnConfig(train_steps=steps)
        assert DqnConfig(train_steps=steps, initial_fill=steps).train_steps == steps
        assert DqnConfig(train_steps=500).train_steps == 500


class TestEpsilonSchedule:
    def test_endpoints(self):
        cfg = DqnConfig(epsilon_start=1.0, epsilon_end=0.1,
                        epsilon_decay_steps=1000)
        assert epsilon_at(cfg, 0) == 1.0
        assert epsilon_at(cfg, 1000) == pytest.approx(0.1)
        assert epsilon_at(cfg, 10**9) == pytest.approx(0.1)

    def test_midpoint(self):
        cfg = DqnConfig(epsilon_start=1.0, epsilon_end=0.1,
                        epsilon_decay_steps=1000)
        assert epsilon_at(cfg, 500) == pytest.approx(0.55)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_and_clamped(self, s1, s2):
        cfg = DqnConfig(epsilon_decay_steps=5000)
        lo, hi = sorted((s1, s2))
        e_lo, e_hi = epsilon_at(cfg, lo), epsilon_at(cfg, hi)
        assert e_lo >= e_hi
        assert cfg.epsilon_end <= e_hi <= cfg.epsilon_start


class TestNormalizeScore:
    def test_formula_endpoints(self):
        assert normalize_score(15.9, -20.2, 15.9) == pytest.approx(100.0)
        assert normalize_score(-20.2, -20.2, 15.9) == pytest.approx(0.0)

    def test_published_pong_row(self):
        # raw means 18.1 / -20.2 / 15.9 normalize to about 106
        assert normalize_score(18.1, -20.2, 15.9) == pytest.approx(106.09, abs=0.01)

    def test_published_skiing_row_uses_inverse(self):
        # all three scores negative, reciprocal ratio: about 151
        got = normalize_score(-23582.0, -16104.0, -27365.0)
        assert got == pytest.approx(150.59, abs=0.01)

    def test_equal_baseline_and_random_rejected(self):
        with pytest.raises(ScoreNormalizationError):
            normalize_score(1.0, 2.0, 2.0)

    def test_all_negative_equal_agent_and_random_rejected(self):
        with pytest.raises(ScoreNormalizationError):
            normalize_score(-5.0, -5.0, -1.0)

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_baseline_maps_to_100(self, base, rand, _unused):
        if abs(base - rand) < 1e-6:
            return
        assert normalize_score(base, rand, base) == pytest.approx(100.0)

    def test_score_report_carries_normalized(self):
        report = ScoreReport(18.1, -20.2, 15.9)
        assert report.normalized == pytest.approx(106.09, abs=0.01)
        assert "normalized" in report.to_csv().splitlines()[0]


class TestDqnTrain:
    def test_gamma_zero_learns_immediate_rewards(self):
        # with gamma = 0 the Q-values regress onto immediate rewards, so the
        # greedy action at any goal-adjacent state steps into the goal (the
        # exact immediate-reward table is computable by enumeration)
        env = GridWorld(width=2, height=2, start=(0, 0), goal=(1, 1),
                        step_reward=-1.0, goal_reward=10.0, max_steps=20)
        net = build_dense_network([env.n_states, 32, env.n_actions],
                                  activation="rational", init="identity", seed=0)
        cfg = DqnConfig(gamma=1e-12, train_steps=4000, epsilon_decay_steps=2000,
                        buffer_capacity=2000, initial_fill=100,
                        target_update_freq=100, eval_freq=1000, seed=0)
        net, _ = dqn_train(env, net, cfg)
        rewards = {}
        for cell in [(0, 1), (1, 0)]:
            q, _ = forward(net, env.encode(cell)[None, :], track=False)
            best = int(np.argmax(q[0]))
            nxt = env.next_cell(cell, best)
            assert nxt == env.goal, f"greedy from {cell} chose {ACTIONS[best]}"
            # learned Q of the greedy action approximates the true immediate
            # reward of stepping into the goal
            assert q[0][best] == pytest.approx(9.0, abs=0.5)

    def test_target_sync_and_freeze(self):
        env = GridWorld()
        net = build_dense_network([env.n_states, 16, env.n_actions],
                                  activation="lrelu", seed=0)
        sync_freq = 50
        snapshots = {}

        def probe(step_i, online, target):
            if (step_i + 1) % sync_freq == 0:
                # just synced: target equals online exactly
                for lo, lt in zip(online.layers, target.layers):
                    assert np.array_equal(lo.weights, lt.weights)
                    assert np.array_equal(lo.biases, lt.biases)
                snapshots[step_i] = [lt.weights.copy() for lt in target.layers]
            else:
                last = max((k for k in snapshots if k < step_i), default=None)
                if last is not None:
                    for saved, lt in zip(snapshots[last], target.layers):
                        assert np.array_equal(saved, lt.weights)

        cfg = DqnConfig(train_steps=200, target_update_freq=sync_freq,
                        initial_fill=32, buffer_capacity=500, eval_freq=1000,
                        seed=0)
        dqn_train(env, net, cfg, probe=probe)
        assert snapshots  # the probe actually fired

    def test_full_run_deterministic(self):
        results = []
        for _ in range(2):
            env = GridWorld()
            net = build_dense_network([env.n_states, 16, env.n_actions],
                                      activation="rational", init="identity",
                                      seed=3)
            cfg = DqnConfig(train_steps=600, initial_fill=64,
                            buffer_capacity=1000, eval_freq=200, seed=3)
            net, curve = dqn_train(env, net, cfg)
            results.append((net, curve))
        (net_a, curve_a), (net_b, curve_b) = results
        assert curve_a == curve_b
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.weights, lb.weights)
        for sid in net_a.slots:
            assert np.array_equal(net_a.slots[sid].activation.numerator,
                                  net_b.slots[sid].activation.numerator)

    # sha256 of the trained net's JSON (histograms included) plus the greedy
    # curve.  The target table, the replay columns and the greedy memo only
    # skip repeated work, so every trained number must stay bitwise equal;
    # a BLAS whose gemm rows depend on the batch's row count would move these.
    # 6x6_lrelu_init also pins the bits of its lrelu init fit
    GOLDEN = {
        "5x5_rational": (
            dict(), [64, 64], "rational", "identity", 0,
            dict(train_steps=1500, eval_freq=500, seed=0),
            "6980d0eaafb120368d9aeb69fae9353874d8f12a131df8d2665df31684cfc2a2"),
        "3x4_walls_shared": (
            dict(width=3, height=4, goal=(2, 3), walls=frozenset({(1, 1)})),
            [16, 16], "shared-rational", "identity", 1,
            dict(train_steps=1200, initial_fill=100, target_update_freq=100,
                 eval_freq=300, seed=1),
            "2c12a21e78fa5081fcaf86b1894e8b7e31c0dbc917befcf7179ad10a8c1b9b51"),
        "2x2_fixed_lrelu": (
            dict(width=2, height=2, goal=(1, 1), max_steps=20), [8], "lrelu",
            "identity", 2,
            dict(train_steps=800, initial_fill=50, target_update_freq=60,
                 eval_freq=200, seed=2),
            "6eb8a1f08f4900042cb6a146c67d0e895ffab8376a410eafc4522ad54fba1c30"),
        "6x6_lrelu_init": (
            dict(width=6, height=6, goal=(5, 5)), [32, 32], "rational", "lrelu", 3,
            dict(train_steps=1000, initial_fill=200, eval_freq=250, seed=3),
            "1a9b2dc733e1dd9522795f3d232d22ec6ea90915a6437eebf9bd85793219831d"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trained_bits_pinned(self, name):
        env_kw, hidden, activation, init, net_seed, cfg_kw, digest = self.GOLDEN[name]
        env = GridWorld(**env_kw)
        net = build_dense_network([env.n_states, *hidden, env.n_actions],
                                  activation=activation, init=init, seed=net_seed,
                                  track_inputs=True)
        net, curve = dqn_train(env, net, DqnConfig(**cfg_kw))
        blob = json.dumps({"net": net.to_dict(),
                           "curve": [[int(s), float(r)] for s, r in curve]},
                          sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_greedy_return_one_forward_per_cell(self, monkeypatch):
        env = GridWorld(width=3, height=3, goal=(2, 2), max_steps=40)
        nets = [build_dense_network([25, 64, 64, 4], init="identity", seed=0)]
        for seed in range(5):
            net = build_dense_network([env.n_states, 16, env.n_actions],
                                      init="identity", seed=seed)
            cfg = DqnConfig(train_steps=150 + 100 * seed, initial_fill=50,
                            target_update_freq=50, eval_freq=1000, seed=seed)
            nets.append(dqn_train(env, net, cfg)[0])
        calls = []
        monkeypatch.setattr(rl, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        for k, net in enumerate(nets):
            grid = GridWorld() if net.in_size == 25 else env
            visited = []

            def unmemoized(cell):
                visited.append(cell)
                q, _ = forward(net, grid.encode(cell)[None, :], track=False)
                return int(np.argmax(q[0]))

            expected = rollout_return(grid, unmemoized)
            calls.clear()
            assert greedy_return(grid, net) == expected
            assert len(calls) == len(set(visited))
            if k == 0:  # the untrained 5x5 net loops: 100 steps over 6 cells
                assert len(visited) == 100 and len(set(visited)) == 6

    def test_wrong_network_shape_rejected(self):
        env = GridWorld()
        net = build_dense_network([3, 8, env.n_actions], seed=0, init="identity")
        with pytest.raises(ValueError, match="Q-network must map 25 state features"):
            dqn_train(env, net, DqnConfig(train_steps=10, initial_fill=10))

    def test_random_policy_is_reproducible(self):
        env = GridWorld()
        a = random_return(env, np.random.default_rng(7), episodes=5)
        b = random_return(env, np.random.default_rng(7), episodes=5)
        assert a == b
