"""Desk-scale DQN on a deterministic gridworld, plus score normalization.

The environment is intentionally tiny: a w x h grid with walls, a start and
a goal, one-hot state encoding and four movement actions.  The training loop
is the standard DQN recipe (epsilon-greedy acting, uniform replay, frozen
target network tabulated once per copy, Huber TD loss, Adam), all driven
by a single seeded generator so a run is exactly reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .network import (NetworkSpec, Optimizer, TrainConfig, backward,
                      clone_network, forward)

ACTIONS = ("up", "down", "left", "right")
_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))
BATCH_SIZE = 32      # transitions per replay minibatch
HUBER_DELTA = 1.0    # TD errors beyond +-HUBER_DELTA get a constant gradient
# value iteration stops once a sweep moves no value by more than VALUE_TOL,
# or after VALUE_MAX_ITERS sweeps
VALUE_TOL = 1e-10
VALUE_MAX_ITERS = 100000


@dataclass
class GridWorld:
    """Deterministic gridworld; (x, y) with (0, 0) in the top-left corner.

    Every step pays step_reward; stepping onto the goal additionally pays
    goal_reward and ends the episode.  Moves into walls or out of bounds
    leave the position unchanged (the step still costs step_reward).
    """

    width: int = 5
    height: int = 5
    walls: frozenset = frozenset()
    start: tuple = (0, 0)
    goal: tuple = (4, 4)
    step_reward: float = -1.0
    goal_reward: float = 10.0
    max_steps: int = 100

    def __post_init__(self):
        self.walls = frozenset(tuple(w) for w in self.walls)
        self.start = tuple(self.start)
        self.goal = tuple(self.goal)
        if self.start == self.goal:
            raise ValueError("start and goal must differ")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            if not self.in_bounds(cell):
                raise ValueError(f"{name} {cell} is outside the grid")
            if cell in self.walls:
                raise ValueError(f"{name} {cell} is a wall")
        self._pos = self.start
        self._steps = 0

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def n_states(self) -> int:
        return self.width * self.height

    @property
    def n_actions(self) -> int:
        return len(ACTIONS)

    @property
    def position(self) -> tuple:
        return self._pos

    def state_index(self, cell) -> int:
        return cell[1] * self.width + cell[0]

    def encode(self, cell) -> np.ndarray:
        vec = np.zeros(self.n_states)
        vec[self.state_index(cell)] = 1.0
        return vec

    def clone(self) -> "GridWorld":
        return GridWorld(self.width, self.height, self.walls, self.start,
                         self.goal, self.step_reward, self.goal_reward,
                         self.max_steps)

    def next_cell(self, cell, action: int) -> tuple:
        if not 0 <= action < len(ACTIONS):
            raise ValueError(f"invalid action {action}; expected 0..3")
        dx, dy = _MOVES[action]
        cand = (cell[0] + dx, cell[1] + dy)
        if not self.in_bounds(cand) or cand in self.walls:
            return cell
        return cand

    def reset(self) -> np.ndarray:
        self._pos = self.start
        self._steps = 0
        return self.encode(self._pos)

    def step(self, action: int):
        """Returns (next one-hot state, reward, done)."""
        self._pos = self.next_cell(self._pos, action)
        self._steps += 1
        reward = self.step_reward
        done = False
        if self._pos == self.goal:
            reward += self.goal_reward
            done = True
        elif self._steps >= self.max_steps:
            done = True
        return self.encode(self._pos), reward, done


def _backup(env: GridWorld, values: np.ndarray, cell, action: int) -> float:
    """Undiscounted one-step Bellman backup; the goal is terminal with V = 0."""
    nxt = env.next_cell(cell, action)
    r = env.step_reward + (env.goal_reward if nxt == env.goal else 0.0)
    v = 0.0 if nxt == env.goal else values[env.state_index(nxt)]
    return r + v


def value_iteration(env: GridWorld) -> np.ndarray:
    """Optimal undiscounted state values V(s); the goal is terminal with V = 0."""
    values = np.zeros(env.n_states)
    cells = [(x, y) for y in range(env.height) for x in range(env.width)
             if (x, y) not in env.walls and (x, y) != env.goal]
    for _ in range(VALUE_MAX_ITERS):
        delta = 0.0
        for cell in cells:
            best = max(_backup(env, values, cell, a) for a in range(env.n_actions))
            i = env.state_index(cell)
            delta = max(delta, abs(values[i] - best))
            values[i] = best
        if delta <= VALUE_TOL:
            break
    return values


def greedy_policy_from_values(env: GridWorld, values: np.ndarray):
    def policy(cell) -> int:
        return int(np.argmax([_backup(env, values, cell, a)
                              for a in range(env.n_actions)]))
    return policy


def rollout_return(env: GridWorld, policy) -> float:
    """Undiscounted episode return of a cell -> action policy."""
    sim = env.clone()
    sim.reset()
    total = 0.0
    done = False
    while not done:
        _, r, done = sim.step(policy(sim.position))
        total += r
    return total


def optimal_return(env: GridWorld) -> float:
    """Episode return of the value-iteration-optimal policy from start."""
    return rollout_return(env, greedy_policy_from_values(env, value_iteration(env)))


def random_return(env: GridWorld, rng: np.random.Generator,
                  episodes: int = 20) -> float:
    """Mean episode return of the uniform-random policy."""
    totals = []
    for _ in range(episodes):
        totals.append(rollout_return(env, lambda cell: int(rng.integers(env.n_actions))))
    return float(np.mean(totals))


class ReplayBuffer:
    """Seeded uniform-sampling ring buffer of transitions in five columns."""

    def __init__(self, capacity: int, min_size: int, rng: np.random.Generator):
        if capacity < 1 or min_size < 1 or min_size > capacity:
            raise ValueError("need 1 <= min_size <= capacity")
        self.capacity = capacity
        self.min_size = min_size
        self._rng = rng
        self._states, self._actions, self._nexts = np.zeros((3, capacity), dtype=np.int64)
        self._rewards, self._dones = np.zeros((2, capacity))
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    @property
    def ready(self) -> bool:
        return self._size >= self.min_size

    def push(self, state: int, action: int, reward: float, next_state: int,
             done: bool) -> None:
        i = self._next
        self._states[i], self._actions[i], self._rewards[i] = state, action, reward
        self._nexts[i], self._dones[i] = next_state, done
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        if not self.ready:
            raise ValueError(f"buffer holds {self._size} transitions; "
                             f"sampling requires at least {self.min_size}")
        idx = self._rng.integers(self._size, size=batch_size)
        return (self._states[idx], self._actions[idx], self._rewards[idx],
                self._nexts[idx], self._dones[idx])


@dataclass
class DqnConfig:
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_steps: int = 10000
    target_update_freq: int = 250
    learning_rate: float = 1e-3
    buffer_capacity: int = 5000
    initial_fill: int = 500
    train_steps: int = 30000
    eval_freq: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not self.epsilon_start >= self.epsilon_end >= 0.0:
            raise ValueError("need epsilon_start >= epsilon_end >= 0")
        if self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.train_steps < 0:
            raise ValueError("train_steps must be >= 0")
        if self.target_update_freq < 1 or self.eval_freq < 1:
            raise ValueError("target_update_freq and eval_freq must be >= 1")


def epsilon_at(cfg: DqnConfig, step: int) -> float:
    """Linear schedule from epsilon_start to epsilon_end, clamped after."""
    if step < 0:
        raise ValueError("step must be >= 0")
    frac = min(step / cfg.epsilon_decay_steps, 1.0)
    eps = cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)
    # keep rounding from ever leaving the schedule's range
    return min(max(eps, cfg.epsilon_end), cfg.epsilon_start)


def huber_grad(delta: np.ndarray) -> np.ndarray:
    return np.clip(delta, -HUBER_DELTA, HUBER_DELTA)


def greedy_return(env: GridWorld, net: NetworkSpec) -> float:
    """Episode return of the network's greedy policy (no exploration).  Each
    distinct cell gets one 1-row forward; a row of a multi-row table could
    differ from it in the last bits."""
    @functools.cache
    def policy(cell) -> int:
        q, _ = forward(net, env.encode(cell)[None, :], track=False)
        return int(np.argmax(q[0]))
    return rollout_return(env, policy)


def dqn_train(env: GridWorld, net: NetworkSpec, cfg: DqnConfig,
              probe=None):
    """Standard DQN loop; returns (trained net, greedy evaluation curve).

    The curve is a list of (step, greedy episode return) pairs sampled every
    eval_freq steps.  One generator seeded with cfg.seed drives exploration
    and replay sampling, so runs are bitwise reproducible.  ``probe``, when
    given, is called as probe(step, net, target) after every step; it must
    not mutate anything.  The target is frozen between copies, so each copy
    tabulates max_a Q_target over the n_states one-hot states in one forward
    and updates index that table with their sampled next states.
    """
    if net.in_size != env.n_states or net.out_size != env.n_actions:
        raise ValueError(f"Q-network must map {env.n_states} state features to "
                         f"{env.n_actions} action values")
    rng = np.random.default_rng(cfg.seed)
    buffer = ReplayBuffer(cfg.buffer_capacity, cfg.initial_fill, rng)
    opt = Optimizer(net, TrainConfig(learning_rate=cfg.learning_rate,
                                     optimizer="adam", seed=cfg.seed))
    eye = np.eye(env.n_states)
    target = clone_network(net)
    next_max = forward(target, eye, track=False)[0].max(axis=1)
    curve: list = []

    state_idx = env.state_index(env.start)
    env.reset()
    for step_i in range(cfg.train_steps):
        eps = epsilon_at(cfg, step_i)
        if rng.random() < eps:
            action = int(rng.integers(env.n_actions))
        else:
            q, _ = forward(net, env.encode(env.position)[None, :], track=False)
            action = int(np.argmax(q[0]))
        _, reward, done = env.step(action)
        next_idx = env.state_index(env.position)
        buffer.push(state_idx, action, reward, next_idx, done)
        if done:
            env.reset()
            state_idx = env.state_index(env.start)
        else:
            state_idx = next_idx

        if buffer.ready:
            states, actions, rewards, nexts, dones = buffer.sample(BATCH_SIZE)
            q, cache = forward(net, eye[states], track=True)
            td_target = rewards + cfg.gamma * next_max[nexts] * (1.0 - dones)
            td_error = q[np.arange(BATCH_SIZE), actions] - td_target
            if not np.all(np.isfinite(td_error)):
                raise RuntimeError(f"non-finite TD error at step {step_i}")
            dq = np.zeros_like(q)
            dq[np.arange(BATCH_SIZE), actions] = huber_grad(td_error) / BATCH_SIZE
            grads = backward(net, cache, dq)
            opt.step(net, grads)

        if (step_i + 1) % cfg.target_update_freq == 0:
            target = clone_network(net)
            next_max = forward(target, eye, track=False)[0].max(axis=1)
        if (step_i + 1) % cfg.eval_freq == 0:
            curve.append((step_i + 1, greedy_return(env, net)))
        if probe is not None:
            probe(step_i, net, target)
    return net, curve


class ScoreNormalizationError(ValueError):
    pass


def normalize_score(agent: float, random: float, baseline: float) -> float:
    """Percentage of the baseline's improvement over random that the agent
    achieved: 100 * (agent - random) / (baseline - random).

    When agent, random and baseline are all negative the reciprocal ratio
    100 * (baseline - random) / (agent - random) is returned instead, which
    keeps >100 meaning "better than baseline" on all-negative scales.
    """
    if baseline == random:
        raise ScoreNormalizationError("baseline equals random; normalization undefined")
    if agent < 0 and random < 0 and baseline < 0:
        if agent == random:
            raise ScoreNormalizationError("agent equals random; inverse "
                                          "normalization undefined")
        return 100.0 * (baseline - random) / (agent - random)
    return 100.0 * (agent - random) / (baseline - random)


@dataclass
class ScoreReport:
    score_agent: float
    score_random: float
    score_baseline: float
    normalized: float = field(init=False)

    def __post_init__(self):
        self.normalized = normalize_score(self.score_agent, self.score_random,
                                          self.score_baseline)

    def to_dict(self) -> dict:
        return {"agent": self.score_agent, "random": self.score_random,
                "baseline": self.score_baseline, "normalized": self.normalized}

    def to_csv(self) -> str:
        return ("agent,random,baseline,normalized\n"
                f"{self.score_agent:.6g},{self.score_random:.6g},"
                f"{self.score_baseline:.6g},{self.normalized:.6g}\n")
