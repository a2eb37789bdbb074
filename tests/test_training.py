"""Optimizer, loss, and training-loop mechanics."""

import numpy as np
import pytest

from hydra_lab import tensor as T
from hydra_lab.model import ModelConfig, build_hydra
from hydra_lab.tasks import gen_logic_chain, logic_vocab
from hydra_lab.tensor import NumericError, Tensor, UsageError, backward
from hydra_lab.training import (
    OptimState,
    TrainReport,
    TrainSettings,
    adam_step,
    lm_loss,
    perplexity,
    train_model,
    zero_grads,
)


class TestAdam:
    def test_zero_grad_zero_moments_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = OptimState(lr=0.1)
        adam_step([("p", p)], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_closed_form(self):
        # t=1: bias corrections cancel, update = lr * g / (|g| + eps)
        g = 0.37
        lr = 1e-3
        eps = 1e-8
        p = Tensor(np.array([0.5]), requires_grad=True)
        p.grad = np.array([g])
        state = OptimState(lr=lr, eps=eps)
        adam_step([("p", p)], state)
        expected = 0.5 - lr * g / (abs(g) + eps)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_adamw_lr_zero_is_noop(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step([("p", p)], OptimState(lr=0.0, weight_decay=0.01))
        assert p.data[0] == 3.0

    def test_adamw_decoupled_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        state = OptimState(lr=0.1, weight_decay=0.5)
        adam_step([("p", p)], state)
        # zero grad: update is pure decay, lr * wd * p
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_nan_grad_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="offending|my_weight"):
            adam_step([("my_weight", p)], OptimState(lr=0.1))

    def test_frozen_params_untouched(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        adam_step([("a", a), ("b", b)], OptimState(lr=0.1), frozen={"b"})
        assert a.data[0] != 1.0 and b.data[0] == 1.0


def lm_loss_oracle(logits, targets, mask):
    """The six-op chain ``lm_loss`` recorded before it became one fused op."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask)
    n = float(mask.sum())
    logp = T.log_softmax(logits, axis=-1)
    picked = T.take_along_last(logp, targets[..., None])
    picked = T.reshape(picked, targets.shape)
    return T.tsum(T.mul(picked, Tensor(mask.astype(float)))) * (-1.0 / n)


def partial_mask(rng, shape, kind):
    keep = rng.random(shape) < 0.6
    keep.flat[0] = True
    return keep if kind == "bool" else keep * rng.uniform(0.25, 1.0, size=shape)


class TestLmLoss:
    def test_uniform_logits(self):
        V = 31
        logits = Tensor(np.zeros((2, 5, V)))
        targets = np.zeros((2, 5), dtype=int)
        mask = np.ones((2, 5), dtype=bool)
        loss = lm_loss(logits, targets, mask)
        assert loss.item() == pytest.approx(np.log(V), abs=1e-12)
        assert perplexity(loss.item()) == pytest.approx(V, rel=1e-9)

    def test_confident_correct_goes_to_zero(self):
        V = 8
        rng = np.random.default_rng(0)
        targets = rng.integers(0, V, size=(1, 6))
        logits = np.zeros((1, 6, V))
        logits[0, np.arange(6), targets[0]] = 50.0
        loss = lm_loss(Tensor(logits), targets, np.ones((1, 6), bool))
        assert loss.item() < 1e-12

    def test_matches_high_precision_reference(self):
        import mpmath

        mpmath.mp.dps = 40
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(1, 3, 5))
        targets = rng.integers(0, 5, size=(1, 3))
        mask = np.array([[True, False, True]])
        expected = mpmath.mpf(0)
        for t in range(3):
            if not mask[0, t]:
                continue
            row = [mpmath.mpf(x) for x in logits[0, t]]
            lse = mpmath.log(sum(mpmath.e ** v for v in row))
            expected += -(row[targets[0, t]] - lse)
        expected /= 2
        loss = lm_loss(Tensor(logits), targets, mask)
        assert loss.item() == pytest.approx(float(expected), abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(UsageError):
            lm_loss(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2), int), np.zeros((1, 2), bool))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=(2, 4))
        mask = np.ones((2, 4), bool)
        rep = T.grad_check(lambda t: lm_loss(t, targets, mask), logits, h=1e-5, tol=1e-5)
        assert rep.passed

    @pytest.mark.parametrize("shape", [(2, 7, 11), (3, 5, 64)])
    @pytest.mark.parametrize("kind", ["bool", "float"])
    def test_bit_identical_to_six_op_chain(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(scale=3.0, size=shape)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        mask = partial_mask(rng, shape[:-1], kind)
        results = []
        for loss_fn in (lm_loss, lm_loss_oracle):
            x = Tensor(data.copy(), requires_grad=True)
            h = T.mul(x, 1.0)                   # the logits are an interior node, as in the model
            loss = loss_fn(h, targets, mask)
            backward(T.mul(loss, 0.37))         # an upstream gradient other than 1
            results.append((loss.data, x.grad))
        (loss, grad), (ref_loss, ref_grad) = results
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(grad, ref_grad)

    def test_gradient_partial_mask(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        targets = rng.integers(0, 7, size=(2, 3))
        mask = partial_mask(rng, (2, 3), "float")
        rep = T.grad_check(lambda t: lm_loss(t, targets, mask), logits, h=1e-5, tol=1e-5)
        assert rep.passed

    def test_one_tape_op_and_none_under_no_grad(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=(2, 3))
        mask = np.ones((2, 3))
        T.reset_tape()
        loss = lm_loss(x, targets, mask)
        assert T.tape_size() == 1 and loss.requires_grad
        T.reset_tape()
        with T.no_grad():
            loss = lm_loss(x, targets, mask)
        assert T.tape_size() == 0 and not loss.requires_grad

    def test_masked_positions_get_zero_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=(3, 4))
        mask = partial_mask(rng, (3, 4), "bool")
        backward(lm_loss(x, targets, mask))
        assert (x.grad[~mask] == 0.0).all()
        assert (np.abs(x.grad[mask]).sum(axis=-1) > 0).all()

    def test_inf_logit_raises_and_clears_tape(self):
        x = Tensor(np.zeros((1, 3, 4)), requires_grad=True)
        T.reset_tape()
        h = T.mul(x, 1.0)
        h.data[0, 1, 2] = np.inf
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            lm_loss(h, np.zeros((1, 3), int), np.ones((1, 3)))
        assert T.tape_size() == 0


def tiny_run(seed=0, epochs=2, ablate=()):
    vocab = logic_vocab(10)
    cfg = ModelConfig(vocab=vocab.size, d=16, n_blocks=2, n_heads=2, chunk_size=4,
                      routing_dim=8, n_experts=2, moe_hidden=16, sga_window=8,
                      sga_max_globals=2, ws_slots=4, ws_active=2, ws_rank=4,
                      pkm_n=4, pkm_dk=8, pkm_dv=16, pkm_t=2, pkm_kc=2, max_len=32,
                      seed=seed, sga_blocks=[1], moe_blocks=[0, 1])
    train = [gen_logic_chain(10, 1, s) for s in range(32)]
    evals = [gen_logic_chain(10, 1, 1000 + s) for s in range(8)]
    params = build_hydra(cfg)
    settings = TrainSettings(epochs=epochs, batch_size=8)
    report = train_model("hydra", cfg, params, train, evals, settings, seed, ablate=ablate)
    return cfg, params, report


class TestTrainLoop:
    def test_ablated_component_params_frozen(self):
        cfg, params, _ = tiny_run(ablate=("workspace",), epochs=1)
        fresh = build_hydra(cfg)
        for (name, p), (_, q) in zip(params.parameters(), fresh.parameters()):
            if name.startswith("workspace."):
                np.testing.assert_array_equal(p.data, q.data)

    def test_deterministic_reports_modulo_walltime(self):
        _, _, r1 = tiny_run(seed=3, epochs=2)
        _, _, r2 = tiny_run(seed=3, epochs=2)
        for a, b in zip(r1.rows, r2.rows):
            for col in a:
                if col == "wall_time_s":
                    continue
                assert a[col] == b[col], col

    def test_report_csv_round_trip_columns(self):
        _, _, rep = tiny_run(epochs=1)
        text = rep.to_csv()
        header = text.splitlines()[0].split(",")
        from hydra_lab.training import TRAIN_REPORT_COLUMNS

        assert header == TRAIN_REPORT_COLUMNS
        assert len(text.splitlines()) == 2

    def test_gate_statistics_logged(self):
        _, _, rep = tiny_run(epochs=1)
        row = rep.rows[0]
        assert 0.0 < float(row["mean_p_sga"]) < 1.0
        assert 0.0 < float(row["mean_beta_ws"]) < 1.0
        assert float(row["expert_entropy"]) > 0.0
