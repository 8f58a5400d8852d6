import random

import pytest

from abms import statemachine as sm
from abms import traffic as tf

from contexts import MapContext


def plan(*durations):
    phases = [tf.PhaseSpec(f"p{i}", [f"s{i}"], d) for i, d in enumerate(durations)]
    return tf.PlanSpec("plan", phases)


class TestPlanToMachine:
    def test_two_phase_cycle(self):
        machine = tf.plan_to_machine(plan(10, 10))
        assert machine.states == ["p0", "p1"]
        assert machine.initial == "p0"
        assert [(t.source, t.target) for t in machine.transitions] == [("p0", "p1"), ("p1", "p0")]
        assert plan(10, 10).cycle_length() == 20

    def test_single_phase_self_loop(self):
        machine = tf.plan_to_machine(plan(4))
        assert [(t.source, t.target) for t in machine.transitions] == [("p0", "p0")]

    def test_phase_durations_drive_the_cycle(self):
        machine = tf.plan_to_machine(plan(2, 3))
        inst = sm.instantiate(sm.compile_machine(machine))
        rng = random.Random(0)
        history = []
        for _ in range(10):
            history.append(inst.current)
            if (state := sm.step(inst, MapContext(), rng)) is not None:
                sm.force_state(inst, state)
        assert history == ["p0", "p0", "p1", "p1", "p1", "p0", "p0", "p1", "p1", "p1"]

    def test_zero_duration_rejected_by_validation(self):
        diags = []
        tf.validate_plan(plan(0), lambda s, p, m: diags.append(m), "plan:x")
        assert any("at least 1 tick" in m for m in diags)


class TestDiscretize:
    def test_below_first_threshold(self):
        assert tf.discretize_state((0, 0), [2, 5]) == (0, 0)

    def test_between_and_above(self):
        assert tf.discretize_state((3, 7), [2, 5]) == (1, 2)

    def test_boundary_uses_first_threshold_geq_count(self):
        assert tf.discretize_state((2, 5), [2, 5]) == (0, 1)

    def test_state_space_size(self):
        bins = [1, 4, 9]
        seen = {tf.discretize_state((q,), bins) for q in range(30)}
        assert len(seen) == len(bins) + 1


class TestQUpdate:
    def spec(self, alpha, gamma):
        return tf.QLearningSpec(alpha, gamma, 0.0, ["a1", "a2"], [])

    def test_hand_computed_first_update(self):
        table = {}
        tf.q_update(table, ("s",), "a1", 1.0, ("s2",), self.spec(0.5, 0.9))
        assert table == {(("s",), "a1"): pytest.approx(0.5, abs=1e-12)}

    def test_zero_learning_rate_leaves_table(self):
        table = {(("s",), "a1"): 2.0}
        tf.q_update(table, ("s",), "a1", 5.0, ("s",), self.spec(0.0, 0.9))
        assert table == {(("s",), "a1"): 2.0}

    def test_decay_toward_zero_reward(self):
        table = {(("s",), "a1"): 2.0}
        tf.q_update(table, ("s",), "a1", 0.0, ("t",), self.spec(0.5, 0.0))
        assert table[("s",), "a1"] == pytest.approx(1.0, abs=1e-12)

    def test_other_entries_untouched(self):
        table = {(("s",), "a2"): 7.0, (("t",), "a1"): 3.0}
        tf.q_update(table, ("s",), "a1", 1.0, ("t",), self.spec(0.5, 0.9))
        assert table[("s",), "a2"] == 7.0
        assert table[("t",), "a1"] == 3.0

    def test_bootstraps_from_best_next_action(self):
        table = {(("t",), "a1"): 1.0, (("t",), "a2"): 4.0}
        tf.q_update(table, ("s",), "a1", 0.0, ("t",), self.spec(1.0, 0.5))
        assert table[("s",), "a1"] == pytest.approx(2.0, abs=1e-12)

    def test_replay_reproduces_table_exactly(self):
        spec = tf.QLearningSpec(0.3, 0.8, 0.0, ["a1", "a2"], [])
        rng = random.Random(3)
        log = [
            (
                (rng.randrange(3),),
                rng.choice(spec.plans),
                rng.uniform(-5, 5),
                (rng.randrange(3),),
            )
            for _ in range(500)
        ]
        t1, t2 = {}, {}
        for s, a, r, s2 in log:
            tf.q_update(t1, s, a, r, s2, spec)
        for s, a, r, s2 in log:
            tf.q_update(t2, s, a, r, s2, spec)
        assert t1 == t2


class TestSelectAction:
    def test_pure_exploitation_takes_argmax(self):
        table = {(("s",), "a1"): 1.0, (("s",), "a2"): 0.0}
        assert tf.select_action(table, ("s",), ["a1", "a2"], 0.0, random.Random(0)) == "a1"

    def test_tie_break_prefers_declaration_order(self):
        table: tf.QTable = {}
        assert tf.select_action(table, ("s",), ["first", "second"], 0.0, random.Random(0)) == "first"

    def test_full_exploration_is_uniform(self):
        rng = random.Random(42)
        actions = ["a", "b", "c", "d"]
        counts = {a: 0 for a in actions}
        n = 10_000
        for _ in range(n):
            counts[tf.select_action({}, ("s",), actions, 1.0, rng)] += 1
        expected = n / len(actions)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.27  # chi-square critical value, 3 dof, p=0.001

    def test_empty_actions_rejected(self):
        with pytest.raises(ValueError):
            tf.select_action({}, ("s",), [], 0.0, random.Random(0))


# ---------------------------------------------------------------------------
# Convergence on a two-state deterministic toy MDP, checked against value
# iteration (the independent oracle).

ACTIONS = ["stay", "go"]
# transitions[s][a] = (reward, next_state)
TOY = {
    0: {"stay": (1.0, 0), "go": (0.0, 1)},
    1: {"stay": (0.0, 1), "go": (2.0, 0)},
}


def value_iteration(gamma: float) -> dict[int, str]:
    values = {0: 0.0, 1: 0.0}
    for _ in range(10_000):
        values = {
            s: max(r + gamma * values[s2] for r, s2 in TOY[s].values()) for s in TOY
        }
    policy = {}
    for s in TOY:
        best = max(ACTIONS, key=lambda a: TOY[s][a][0] + gamma * values[TOY[s][a][1]])
        policy[s] = best
    return policy


def learn_policy(seed: int, updates: int = 10_000) -> dict[int, str]:
    spec = tf.QLearningSpec(0.1, 0.9, 0.1, ACTIONS, [])
    table: tf.QTable = {}
    rng = random.Random(seed)
    state = 0
    for _ in range(updates):
        action = tf.select_action(table, (state,), ACTIONS, spec.epsilon, rng)
        reward, nxt = TOY[state][action]
        tf.q_update(table, (state,), action, reward, (nxt,), spec)
        state = nxt
    return {
        s: tf.select_action(table, (s,), ACTIONS, 0.0, random.Random(0)) for s in TOY
    }


class TestConvergence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_greedy_policy_matches_value_iteration(self, seed):
        assert learn_policy(seed) == value_iteration(0.9)

    def test_reward_scaling_leaves_greedy_sequence_unchanged(self):
        def greedy_actions(scale: float, seed: int = 9) -> list[str]:
            spec = tf.QLearningSpec(0.1, 0.9, 0.0, ACTIONS, [])
            table: tf.QTable = {}
            rng = random.Random(seed)
            state = 0
            chosen = []
            for _ in range(400):
                action = tf.select_action(table, (state,), ACTIONS, 0.0, rng)
                chosen.append(action)
                reward, nxt = TOY[state][action]
                tf.q_update(table, (state,), action, reward * scale, (nxt,), spec)
                state = nxt
            return chosen

        assert greedy_actions(1.0) == greedy_actions(7.5)
