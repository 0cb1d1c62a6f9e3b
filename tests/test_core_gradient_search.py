"""Tests for Phase 2 projected gradient descent."""

import numpy as np
import pytest

from repro.core import GradientSearcher
from repro.mapspace import MapSpace
from repro.nn import SGD, Tensor, mse_loss


class TestGradientSearcher:
    def test_runs_and_respects_budget(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(50, seed=0)
        assert result.n_evaluations == 50
        assert result.searcher == "MM"

    def test_all_visited_mappings_valid(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(60, seed=1)
        assert all(cnn_space.is_member(m) for m in result.mappings)

    def test_never_queries_true_cost_model(self, trained_mm, cnn_space, monkeypatch):
        """The paper's key speed property: Phase 2 is oracle-free."""
        from repro.costmodel.model import CostModel

        def forbidden(self, *args, **kwargs):
            raise AssertionError("gradient search must not query the oracle")

        monkeypatch.setattr(CostModel, "evaluate", forbidden)
        monkeypatch.setattr(CostModel, "evaluate_edp", forbidden)
        GradientSearcher(cnn_space, trained_mm.surrogate).search(30, seed=2)

    def test_deterministic_given_seed(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        a = searcher.search(40, seed=3)
        b = searcher.search(40, seed=3)
        assert a.mappings == b.mappings
        assert a.objective_values == b.objective_values

    def test_descends_surrogate_objective(self, trained_mm, cnn_space):
        """Across several seeds, the best objective found must improve on
        the starting point (gradients point somewhere useful)."""
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        improved = 0
        for seed in range(5):
            result = searcher.search(80, seed=seed)
            if result.best_objective < result.objective_values[0] - 1e-9:
                improved += 1
        assert improved >= 3

    def test_injections_occur(self, trained_mm, cnn_space):
        """With inject_every=5, injection evaluations appear in the trace."""
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate, inject_every=5)
        result = searcher.search(60, seed=0)
        # 60 evals = 50 GD steps + 10 injections at minimum diversity:
        assert len(set(result.mappings)) > 5

    def test_paper_literal_mode(self, trained_mm, cnn_space):
        searcher = GradientSearcher(
            cnn_space,
            trained_mm.surrogate,
            normalize_gradient=False,
            escalate_when_stuck=False,
        )
        result = searcher.search(30, seed=0)
        assert result.n_evaluations == 30

    def test_mismatched_surrogate_raises(self, trained_mm, mttkrp_problem, accelerator):
        space = MapSpace(mttkrp_problem, accelerator)
        with pytest.raises(ValueError):
            GradientSearcher(space, trained_mm.surrogate)

    def test_invalid_hyperparams_raise(self, trained_mm, cnn_space):
        with pytest.raises(ValueError):
            GradientSearcher(cnn_space, trained_mm.surrogate, learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientSearcher(cnn_space, trained_mm.surrogate, inject_every=0)

    def test_time_budget_respected(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(100_000, seed=0, time_budget_s=0.2)
        assert result.wall_time < 2.0
        assert result.n_evaluations < 100_000


class TestLiveNetworkUntouched:
    """Phase 2 reads the served network and never writes its ``.grad``
    buffers (no weight gradients, no shared accumulation lock)."""

    def test_search_leaves_parameter_grads_none(self, trained_mm, cnn_space):
        surrogate = trained_mm.surrogate.clone()
        GradientSearcher(cnn_space, surrogate, restarts=3).run(45, seed=0)
        assert all(p.grad is None for p in surrogate.network.parameters())

    def test_served_network_trains_like_a_clean_clone(self, trained_mm, cnn_space):
        served = trained_mm.surrogate.clone()
        clean = trained_mm.surrogate.clone()
        GradientSearcher(cnn_space, served).run(30, seed=1)
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(16, served.encoder.length))
        targets = rng.normal(size=(16, served.codec.width))
        for surrogate in (served, clean):
            optimizer = SGD(surrogate.network.parameters(), lr=0.01)
            for _ in range(3):
                mse_loss(surrogate.network(Tensor(inputs)), targets).backward()
                optimizer.step()
                optimizer.zero_grad()
        for a, b in zip(served.network.parameters(), clean.network.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
