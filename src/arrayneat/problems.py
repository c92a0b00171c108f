"""Built-in desk-scale problems: XOR, function regression, cart-pole.

Each problem evaluates a whole population in one batched pass and a single
genome through the same kernels, so batched and per-genome fitness agree
exactly.  The cart-pole environment advances every genome's episode in
lockstep, freezing terminated genomes, and its dynamics helper accepts both
scalars and arrays so the scalar single-step operator and the batched episode
share one floating-point path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NeatConfig
from .errors import (ConfigError, CycleDetected, InvalidFitness, ShapeMismatch,
                     TerminalState)
from .functions import DEFAULT_REGISTRY
from .genome import PopulationTensors
from .inference import StackedNetworks, forward_arrays, transform_arrays
from .parallel import run_chunked
from .rng import RngStream

XOR_INPUTS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_TARGETS = np.array([[0.0], [1.0], [1.0], [0.0]])

REGRESSION_TARGETS = {
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "square": np.square,
}

# classic cart-pole constants
GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
TOTAL_MASS = CART_MASS + POLE_MASS
HALF_LENGTH = 0.5
POLEMASS_LENGTH = POLE_MASS * HALF_LENGTH
FORCE_MAG = 10.0
TIME_STEP = 0.02
X_LIMIT = 2.4
THETA_LIMIT = 12 * 2 * math.pi / 360
MAX_STEPS = 500


# ---------------------------------------------------------------------------
# fitness kernels (shared between batched and single-genome paths)
# ---------------------------------------------------------------------------

def _xor_fitness(outputs: np.ndarray) -> np.ndarray:
    """(P, 4, 1) network outputs -> (P,) fitness = 4 - sum of squared errors."""
    return 4.0 - ((outputs - XOR_TARGETS) ** 2).sum(axis=(-2, -1))


def _regression_fitness(outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(P, S, 1) outputs vs (S,) targets -> (P,) fitness = -MSE."""
    return -((outputs[:, :, 0] - targets) ** 2).mean(axis=1)


def regression_grid(samples: int) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, samples)


# ---------------------------------------------------------------------------
# single-genome evaluation entry points
# ---------------------------------------------------------------------------

def eval_xor(forward_fn) -> float:
    """fitness = 4 - sum over the four cases of (output - target)^2."""
    outputs = np.asarray(forward_fn(XOR_INPUTS.copy()), dtype=np.float64)
    if outputs.shape not in ((4, 1), (4,)):
        raise ShapeMismatch(f"expected outputs of shape (4, 1), got {outputs.shape}")
    return float(_xor_fitness(outputs.reshape(4, 1)[None])[0])


def eval_regression(forward_fn, target_fn=np.sin, samples: np.ndarray | None = None) -> float:
    """fitness = -mean squared error against target_fn on the sample grid."""
    xs = regression_grid(64) if samples is None else np.asarray(samples, dtype=np.float64)
    outputs = np.asarray(forward_fn(xs[:, None]), dtype=np.float64)
    if outputs.shape not in ((xs.size, 1), (xs.size,)):
        raise ShapeMismatch(f"expected outputs of shape ({xs.size}, 1), got {outputs.shape}")
    return float(_regression_fitness(outputs.reshape(xs.size, 1)[None], target_fn(xs))[0])


# ---------------------------------------------------------------------------
# cart-pole environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartPoleState:
    x: float
    x_dot: float
    theta: float
    theta_dot: float
    steps: int = 0

    @property
    def is_terminal(self) -> bool:
        return (abs(self.x) > X_LIMIT or abs(self.theta) > THETA_LIMIT
                or self.steps >= MAX_STEPS)


def _cartpole_accelerations(theta, theta_dot, force):
    """Cart and pole accelerations of the classic dynamics; works on scalars and arrays."""
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    tmp = (force + POLEMASS_LENGTH * theta_dot ** 2 * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * tmp) / (
        HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t ** 2 / TOTAL_MASS))
    x_acc = tmp - POLEMASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
    return x_acc, theta_acc


def cartpole_step(state: CartPoleState, force_direction: int) -> CartPoleState:
    """Advance a non-terminal state by one step with force -1 or +1.

    One Euler step: positions integrate the old velocities, then velocities
    integrate the accelerations.
    """
    if force_direction not in (-1, 1, -1.0, 1.0):
        raise ValueError(f"force_direction must be -1 or +1, got {force_direction}")
    if state.is_terminal:
        raise TerminalState("cart-pole state is already terminal")
    x_acc, theta_acc = _cartpole_accelerations(state.theta, state.theta_dot,
                                               float(force_direction) * FORCE_MAG)
    return CartPoleState(float(state.x + TIME_STEP * state.x_dot),
                         float(state.x_dot + TIME_STEP * x_acc),
                         float(state.theta + TIME_STEP * state.theta_dot),
                         float(state.theta_dot + TIME_STEP * theta_acc),
                         state.steps + 1)


def eval_cartpole(forward_fn, rng: RngStream) -> float:
    """Steps survived (1..500) controlling the pole with a bang-bang policy."""
    u = rng.uniforms(4).reshape(4)
    start = u * 0.1 - 0.05
    state = CartPoleState(float(start[0]), float(start[1]),
                          float(start[2]), float(start[3]))
    while True:
        observation = np.array([state.x, state.x_dot, state.theta, state.theta_dot])
        output = np.asarray(forward_fn(observation))
        action = 1 if float(output.reshape(-1)[0]) > 0 else -1
        state = cartpole_step(state, action)
        if state.is_terminal:
            return float(state.steps)


def _cartpole_lockstep(stacked: StackedNetworks, streams: RngStream) -> np.ndarray:
    """All episodes advance one timestep at a time; terminated genomes freeze.

    Once at least half of the current batch has terminated, the batch shrinks
    to the running episodes.  Halving bounds the rows copied over a whole
    episode by the population size, and keeps every batch at most twice the
    number of running episodes.
    """
    pop = stacked.size
    # one row per batch row: x, x_dot, theta, theta_dot
    state = streams.uniforms(4).reshape(pop, 4) * 0.1 - 0.05
    fitness = np.zeros(pop)
    running = np.arange(pop)  # population index of each batch row
    alive = np.ones(pop, dtype=bool)
    steps = np.zeros(pop, dtype=np.int64)
    for _ in range(MAX_STEPS):
        if 2 * np.count_nonzero(alive) <= alive.size:
            fitness[running[~alive]] = steps[~alive]
            keep = np.nonzero(alive)[0]
            stacked = stacked.take(keep)
            state = state[keep]
            running, alive, steps = running[keep], alive[keep], steps[keep]
        outputs = forward_arrays(stacked, DEFAULT_REGISTRY, state[:, None, :])[:, 0, 0]
        force = np.where(outputs > 0, FORCE_MAG, -FORCE_MAG)
        # the Euler step of cartpole_step, in place: rates are the time derivatives
        rates = np.empty_like(state)
        rates[:, 0], rates[:, 2] = state[:, 1], state[:, 3]
        rates[:, 1], rates[:, 3] = _cartpole_accelerations(state[:, 2], state[:, 3], force)
        rates *= TIME_STEP
        np.add(state, rates, out=state, where=alive[:, None])
        steps += alive
        alive &= ~((np.abs(state[:, 0]) > X_LIMIT) | (np.abs(state[:, 2]) > THETA_LIMIT))
        if not alive.any():
            break
    fitness[running] = steps
    return fitness


# ---------------------------------------------------------------------------
# problem objects
# ---------------------------------------------------------------------------

class Problem:
    """Fitness evaluation interface; higher fitness is better.

    Subclasses override ``evaluate_stacked(stacked, rng, indices)``: one finite
    fitness per network of ``stacked``, the genomes at population ``indices``.
    """

    name: str
    input_size: int
    output_size: int

    def evaluate_stacked(self, stacked: StackedNetworks, rng: RngStream,
                         indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_population_tensors(self, pop: PopulationTensors,
                                    rng: RngStream | None = None,
                                    threads: int = 1, sequential: bool = False) -> np.ndarray:
        """Transform and evaluate a whole population, chunked over genomes.

        Each chunk must yield one finite fitness per genome: a wrong shape
        raises ``ShapeMismatch`` and a NaN or infinite value ``InvalidFitness``
        naming the population indices.
        """
        rng = rng or RngStream(0)
        fitness = np.empty(pop.size)

        def work(lo: int, hi: int) -> None:
            stacked, cyclic = transform_arrays(pop.nodes[lo:hi], pop.conns[lo:hi],
                                               pop.num_inputs, pop.num_outputs)
            if cyclic.size:
                bad = (cyclic + lo).tolist()
                raise CycleDetected(f"cyclic genomes at indices {bad}", genome_indices=bad)
            chunk = np.asarray(self.evaluate_stacked(stacked, rng, indices=np.arange(lo, hi)))
            if chunk.shape != (hi - lo,):
                raise ShapeMismatch(f"{type(self).__name__} returned fitness of shape "
                                    f"{chunk.shape} for the {hi - lo} genomes at indices "
                                    f"{lo}..{hi - 1}")
            nonfinite = np.nonzero(~np.isfinite(chunk))[0]
            if nonfinite.size:
                bad = (nonfinite + lo).tolist()
                raise InvalidFitness(f"non-finite fitness at indices {bad}",
                                     genome_indices=bad)
            fitness[lo:hi] = chunk

        run_chunked(pop.size, threads, sequential, work)
        return fitness


class XorProblem(Problem):
    name = "xor"
    input_size = 2
    output_size = 1

    def evaluate_stacked(self, stacked, rng, indices):
        inputs = np.broadcast_to(XOR_INPUTS, (stacked.size,) + XOR_INPUTS.shape)
        return _xor_fitness(forward_arrays(stacked, DEFAULT_REGISTRY, inputs))


class RegressionProblem(Problem):
    name = "regression"
    input_size = 1
    output_size = 1

    def __init__(self, target: str = "sin", samples: int = 64):
        if target not in REGRESSION_TARGETS:
            raise ConfigError(f"unknown regression target {target!r}; "
                              f"options: {sorted(REGRESSION_TARGETS)}")
        if samples < 2:
            raise ConfigError("regression_samples must be >= 2")
        self.target_fn = REGRESSION_TARGETS[target]
        self.xs = regression_grid(samples)
        self.ys = self.target_fn(self.xs)

    def evaluate_stacked(self, stacked, rng, indices):
        inputs = np.broadcast_to(self.xs[:, None], (stacked.size, self.xs.size, 1))
        return _regression_fitness(forward_arrays(stacked, DEFAULT_REGISTRY, inputs), self.ys)


class CartPoleProblem(Problem):
    name = "cartpole"
    input_size = 4
    output_size = 1

    def evaluate_stacked(self, stacked, rng, indices):
        return _cartpole_lockstep(stacked, rng.split(indices))


_PROBLEMS = {"xor": XorProblem, "regression": RegressionProblem, "cartpole": CartPoleProblem}


def make_problem(config: NeatConfig) -> Problem:
    """Problem named in the config, checked against its input/output counts."""
    if config.problem not in _PROBLEMS:
        raise ConfigError(f"unknown problem {config.problem!r}; options: {sorted(_PROBLEMS)}")
    if config.problem == "regression":
        problem = RegressionProblem(config.regression_target, config.regression_samples)
    else:
        problem = _PROBLEMS[config.problem]()
    if config.inputs != problem.input_size or config.outputs != problem.output_size:
        raise ConfigError(
            f"problem {problem.name!r} needs inputs={problem.input_size} "
            f"outputs={problem.output_size}, config has inputs={config.inputs} "
            f"outputs={config.outputs}")
    return problem
