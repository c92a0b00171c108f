"""XOR, regression, and cart-pole: fitness semantics and batching."""

import math

import numpy as np
import pytest

from arrayneat import (CartPoleProblem, CartPoleState, RegressionProblem,
                       RngStream, ShapeMismatch, TerminalState, XorProblem,
                       cartpole_step, eval_cartpole, eval_regression, eval_xor,
                       forward, init_genome, make_problem, problems, set_conn_attr,
                       transform)
from arrayneat.errors import ConfigError
from arrayneat.genome import PopulationTensors
from arrayneat.problems import MAX_STEPS, THETA_LIMIT, X_LIMIT, regression_grid

from conftest import make_config, random_genome


class TestXor:
    def test_constant_half_network(self):
        fitness = eval_xor(lambda x: np.full((4, 1), 0.5))
        assert fitness == pytest.approx(3.0, abs=1e-15)

    def test_perfect_network(self):
        fitness = eval_xor(lambda x: np.array([[0.0], [1.0], [1.0], [0.0]]))
        assert fitness == pytest.approx(4.0, abs=1e-15)

    def test_three_exact_one_half(self):
        fitness = eval_xor(lambda x: np.array([[0.0], [1.0], [1.0], [0.5]]))
        assert fitness == pytest.approx(3.75, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            eval_xor(lambda x: np.zeros((3, 1)))

    def test_population_matches_single(self):
        config = make_config(inputs=2, outputs=1)
        problem = XorProblem()
        genomes = [random_genome(s, config, n_ops=20) for s in range(12)]
        pop = PopulationTensors.from_genomes(genomes)
        batched = problem.evaluate_population_tensors(pop)
        singles = np.array([
            eval_xor(lambda x, tn=transform(g): np.stack([forward(tn, inputs=row)
                                                          for row in x]))
            for g in genomes])
        assert np.array_equal(batched, singles)


class TestRegression:
    def test_perfect_network_fitness_zero(self):
        xs = regression_grid(64)
        assert eval_regression(lambda x: np.sin(x), np.sin) == pytest.approx(0.0, abs=1e-15)

    def test_constant_zero_vs_sin_oracle(self):
        # oracle: direct scalar summation of sin^2 over the 64-point grid
        xs = regression_grid(64)
        expected = -math.fsum(math.sin(x) ** 2 for x in xs) / 64
        fitness = eval_regression(lambda x: np.zeros((64, 1)), np.sin)
        assert fitness == pytest.approx(expected, abs=1e-12)
        assert fitness == pytest.approx(-0.5, abs=0.01)

    def test_fitness_never_positive(self):
        config = make_config(inputs=1, outputs=1)
        problem = RegressionProblem()
        for seed in range(6):
            g = random_genome(seed, config, n_ops=15)
            tn = transform(g)
            fitness = eval_regression(
                lambda x: np.stack([forward(tn, inputs=row) for row in x]),
                problem.target_fn, problem.xs)
            assert fitness <= 0.0

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            RegressionProblem(target="nope")

    def test_population_matches_single(self):
        config = make_config(inputs=1, outputs=1)
        problem = RegressionProblem()
        genomes = [random_genome(s, config, n_ops=15) for s in range(8)]
        pop = PopulationTensors.from_genomes(genomes)
        batched = problem.evaluate_population_tensors(pop)
        singles = np.array([eval_regression(
            lambda x, tn=transform(g): np.stack([forward(tn, inputs=row) for row in x]),
            problem.target_fn, problem.xs)
            for g in genomes])
        assert np.array_equal(batched, singles)


class TestCartPoleStep:
    def test_hand_evaluated_euler_step_from_upright(self):
        state = CartPoleState(0.0, 0.0, 0.0, 0.0)
        out = cartpole_step(state, +1)
        # by hand: tmp = 10/1.1, theta_acc = -600/41, x_acc = 400/41
        assert out.x == 0.0                      # position integrates old velocity
        assert out.theta == 0.0
        assert out.x_dot == pytest.approx(8.0 / 41.0, rel=1e-14)
        assert out.theta_dot == pytest.approx(-12.0 / 41.0, rel=1e-14)
        assert out.steps == 1

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, xd, th, thd = rng.uniform(-0.5, 0.5, size=4)
            th *= 0.3
            a = cartpole_step(CartPoleState(x, xd, th, thd), +1)
            b = cartpole_step(CartPoleState(-x, -xd, -th, -thd), -1)
            assert a.x == pytest.approx(-b.x, abs=1e-12)
            assert a.x_dot == pytest.approx(-b.x_dot, abs=1e-12)
            assert a.theta == pytest.approx(-b.theta, abs=1e-12)
            assert a.theta_dot == pytest.approx(-b.theta_dot, abs=1e-12)

    def test_terminal_state_rejected(self):
        with pytest.raises(TerminalState):
            cartpole_step(CartPoleState(3.0, 0.0, 0.0, 0.0), +1)
        with pytest.raises(TerminalState):
            cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0, steps=MAX_STEPS), +1)

    def test_bad_force(self):
        with pytest.raises(ValueError):
            cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), 0)

    def test_terminal_thresholds(self):
        assert CartPoleState(X_LIMIT + 0.01, 0, 0, 0).is_terminal
        assert CartPoleState(0, 0, THETA_LIMIT + 0.001, 0).is_terminal
        assert not CartPoleState(X_LIMIT - 0.01, 0, THETA_LIMIT - 0.001, 0).is_terminal


class TestEvalCartPole:
    def constant_policy(self, direction):
        return lambda obs: np.array([direction])

    def test_fitness_in_range(self):
        for seed in range(5):
            fitness = eval_cartpole(self.constant_policy(+1.0),
                                    RngStream(seed).child(0, 1, 0))
            assert 1.0 <= fitness <= MAX_STEPS

    def test_constant_policy_fails_fast(self):
        # oracle: simulate the constant +1 policy step by step
        for seed in range(8):
            rng = RngStream(seed).child(0, 1, 0)
            fitness = eval_cartpole(self.constant_policy(+1.0), rng)
            oracle_rng = RngStream(seed).child(0, 1, 0)
            u = oracle_rng.uniforms(4).reshape(4)
            state = CartPoleState(*(u * 0.1 - 0.05))
            while not state.is_terminal:
                state = cartpole_step(state, +1)
            assert fitness == float(state.steps)
            assert fitness < 200

    def test_determinism(self):
        policy = self.constant_policy(-1.0)
        a = eval_cartpole(policy, RngStream(3).child(0, 1, 7))
        b = eval_cartpole(policy, RngStream(3).child(0, 1, 7))
        assert a == b

    def test_lockstep_equals_sequential_episodes(self):
        config = make_config(inputs=4, outputs=1, max_nodes=16, max_conns=32)
        problem = CartPoleProblem()
        genomes = [random_genome(s, config, n_ops=20) for s in range(10)]
        pop = PopulationTensors.from_genomes(genomes)
        eval_rng = RngStream(0).child(4, 1)
        batched = problem.evaluate_population_tensors(pop, rng=eval_rng)
        singles = np.array([
            eval_cartpole(lambda obs, tn=transform(g): forward(tn, inputs=obs),
                          eval_rng.child(i))
            for i, g in enumerate(genomes)])
        assert np.array_equal(batched, singles)

    def test_shrinking_lockstep_equals_sequential_episodes(self, monkeypatch):
        config = make_config(inputs=4, outputs=1, max_nodes=16, max_conns=32)
        rng = np.random.default_rng(0)
        genomes = []
        for i in range(36):
            # linear controllers leaning on the pole angle: some balance to the end
            g = init_genome(config, RngStream(i).child(0, 0, 0))
            gains = rng.normal(size=4) + np.array([0.0, 0.5, 4.0, 1.0]) * rng.uniform(0, 2)
            for key, gain in enumerate(gains):
                g = set_conn_attr(g, key, 4, 1, float(gain))
            genomes.append(g)
        genomes += [random_genome(s, config, n_ops=30) for s in range(36)]
        rng.shuffle(genomes)
        pop = PopulationTensors.from_genomes(genomes)

        batch_sizes = []
        original = problems.forward_arrays

        def recording(stacked, registry, inputs):
            batch_sizes.append(stacked.size)
            return original(stacked, registry, inputs)

        monkeypatch.setattr(problems, "forward_arrays", recording)
        eval_rng = RngStream(2).child(0, 1)
        batched = CartPoleProblem().evaluate_population_tensors(pop, rng=eval_rng)
        monkeypatch.undo()

        singles = np.array([
            eval_cartpole(lambda obs, tn=transform(g): forward(tn, inputs=obs),
                          eval_rng.child(i))
            for i, g in enumerate(genomes)])
        assert np.array_equal(batched, singles)
        assert len(np.unique(batched)) >= 20
        assert (batched == MAX_STEPS).any()
        # one call per timestep; at timestep t the batch holds every running
        # episode and at most as many terminated ones
        assert len(batch_sizes) == MAX_STEPS
        running = np.array([(batched > t).sum() for t in range(MAX_STEPS)])
        sizes = np.array(batch_sizes)
        assert sizes[0] == len(genomes) and sizes[-1] < len(genomes)
        assert (running <= sizes).all() and (sizes <= 2 * running).all()


class TestEvaluatePopulation:
    def test_length_matches_population(self):
        config = make_config(inputs=2, outputs=1)
        problem = XorProblem()
        pop = PopulationTensors.from_genomes(
            [random_genome(s, config, n_ops=10) for s in range(7)])
        fitness = problem.evaluate_population_tensors(pop)
        assert fitness.shape == (7,)

    def test_single_genome_population(self):
        config = make_config(inputs=2, outputs=1)
        problem = XorProblem()
        g = random_genome(3, config)
        pop = PopulationTensors.from_genomes([g])
        batched = problem.evaluate_population_tensors(pop)
        tn = transform(g)
        single = eval_xor(lambda x: np.stack([forward(tn, inputs=row) for row in x]))
        assert batched[0] == single

    def test_threads_do_not_change_results(self):
        config = make_config(inputs=4, outputs=1, max_nodes=16, max_conns=32)
        problem = CartPoleProblem()
        pop = PopulationTensors.from_genomes(
            [random_genome(s, config, n_ops=20) for s in range(9)])
        rng = RngStream(1).child(0, 1)
        a = problem.evaluate_population_tensors(pop, rng=rng, threads=1)
        b = problem.evaluate_population_tensors(pop, rng=rng, threads=4)
        c = problem.evaluate_population_tensors(pop, rng=rng, sequential=True)
        assert np.array_equal(a, b) and np.array_equal(a, c)


class TestMakeProblem:
    def test_names(self):
        assert make_problem(make_config(problem="xor")).name == "xor"
        assert make_problem(make_config(problem="regression", inputs=1,
                                        outputs=1)).name == "regression"
        assert make_problem(make_config(problem="cartpole", inputs=4,
                                        outputs=1)).name == "cartpole"

    def test_io_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            make_problem(make_config(problem="cartpole", inputs=2, outputs=1))

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            make_problem(make_config(problem="chess"))
