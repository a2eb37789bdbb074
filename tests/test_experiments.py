"""Experiment protocol mechanics at micro scale (fast smoke checks;
the full-budget reproductions run through `hydra-lab train` at --scale 1)."""

import numpy as np
import pytest

from hydra_lab.checkpoint import restore_model
from hydra_lab.experiments import PROTOCOLS, logic_config, mutual_information_bits, run_experiment
from hydra_lab.tensor import UsageError, no_grad

#: micro-scale task parameters for every training protocol
MICRO = {
    "logic": dict(scale=0.001, n_train=32, n_eval=8),
    "wikitext": dict(scale=0.5, context_len=16, n_eval_windows=2, bench_len=32),
    "pkm_recall": dict(scale=0.07, n_facts=16, n_train=32, n_eval=8),
    "distant_premise": dict(scale=0.01, L=256, premise_center=120, premise_jitter=8,
                            n_train=2, n_eval=4),
    "moe_dense": dict(scale=0.2, n_train=32, n_eval=8),
}


def micro_params(name, tmp_path):
    kw = dict(MICRO[name])
    if name == "wikitext":
        words = [f"w{i % 37}" for i in range(16 * 12)]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(" ".join(words), encoding="utf-8")
        kw["path"] = str(corpus)
    return kw


class TestDispatch:
    def test_unknown_name_rejected(self):
        with pytest.raises(UsageError):
            run_experiment("nope")

    def test_logic_micro_run(self):
        res = run_experiment("logic", seed=0, scale=0.002, n_train=64, n_eval=16)
        assert res.name == "logic" and res.variant == "hydra"
        assert 0.0 <= res.summary["accuracy"] <= 1.0
        assert res.records and res.records[0].metric == "accuracy_len2"
        assert len(res.report.rows) == res.summary["epochs"]

    def test_ablated_variant_name(self):
        res = run_experiment("logic", seed=0, scale=0.001, ablate=("workspace",),
                             n_train=32, n_eval=8)
        assert res.variant == "hydra_no_workspace"

    def test_transformer_arm(self):
        res = run_experiment("logic", seed=0, scale=0.001, model="transformer",
                             n_train=32, n_eval=8)
        assert res.variant == "transformer"

    def test_moe_dense_arms_param_matched(self):
        from hydra_lab.model import build_hydra, count_params

        r_moe = run_experiment("moe_dense", seed=0, scale=0.2, arm="moe", n_train=64, n_eval=32)
        r_dense = run_experiment("moe_dense", seed=0, scale=0.2, arm="dense", n_train=64, n_eval=32)
        n_moe = count_params(build_hydra(r_moe.config).parameters())
        n_dense = count_params(build_hydra(r_dense.config).parameters())
        assert r_dense.config.n_experts == 1
        assert abs(n_moe - n_dense) / n_dense < 0.05
        assert "expert_domain_mi_bits" in r_moe.summary

    def test_pkm_micro_reports_beta_by_mode(self):
        res = run_experiment("pkm_recall", seed=0, scale=0.1, n_facts=16, n_train=64, n_eval=32)
        assert "beta_open" in res.summary and "beta_closed" in res.summary
        assert "acc_open" in res.summary and "acc_closed" in res.summary

    def test_distant_premise_micro(self):
        res = run_experiment("distant_premise", seed=0, scale=0.02, L=256,
                             premise_center=120, premise_jitter=8, n_train=4, n_eval=8)
        assert "ms_per_token" in res.summary
        assert len(res.report.rows) == res.summary["epochs"]

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_saved_checkpoint_restores_trained_model(self, name, tmp_path):
        res = run_experiment(name, seed=0, out_dir=tmp_path / "run", **micro_params(name, tmp_path))
        cfg, params = restore_model(res.checkpoint)
        assert params.kind == res.params.kind == "hydra"
        assert cfg == res.config
        toks = np.random.default_rng(3).integers(0, cfg.vocab, size=(2, min(cfg.max_len, 24)))
        with no_grad():
            want = res.params.forward(toks, cfg).data
            got = params.forward(toks, cfg).data
        np.testing.assert_array_equal(got, want)

    def test_moe_dense_variant_names_model_arm_and_ablation(self):
        arms = [("hydra", (), "moe"), ("hydra", ("pkm",), "moe"), ("hydra", (), "dense"),
                ("transformer", (), "moe")]
        variants = []
        for model, ablate, arm in arms:
            res = run_experiment("moe_dense", seed=0, scale=0.2, model=model, ablate=ablate,
                                 arm=arm, n_train=16, n_eval=8)
            assert {r.variant for r in res.records} == {res.variant}
            variants.append(res.variant)
        assert variants == ["hydra", "hydra_no_pkm", "hydra_dense", "transformer"]

    def test_determinism_same_seed_same_report(self):
        a = run_experiment("logic", seed=5, scale=0.002, n_train=64, n_eval=16)
        b = run_experiment("logic", seed=5, scale=0.002, n_train=64, n_eval=16)
        for ra, rb in zip(a.report.rows, b.report.rows):
            for col in ra:
                if col != "wall_time_s":
                    assert ra[col] == rb[col]

    def test_seed_changes_data_and_init(self):
        a = run_experiment("logic", seed=1, scale=0.001, n_train=32, n_eval=8)
        b = run_experiment("logic", seed=2, scale=0.001, n_train=32, n_eval=8)
        assert a.report.rows[0]["loss"] != b.report.rows[0]["loss"]


class TestConfigOverrides:
    def test_field_the_protocol_leaves_at_default(self):
        assert logic_config(30, 0, {"attn_block": 64}).attn_block == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="no_such_field"):
            logic_config(30, 0, {"no_such_field": 1})


class TestMutualInformation:
    def test_perfect_association(self):
        x = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert mutual_information_bits(x, x) == pytest.approx(2.0)

    def test_independence(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=4000)
        y = rng.integers(0, 4, size=4000)
        assert mutual_information_bits(x, y) < 0.02

    def test_partial_association(self):
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        y = np.array([0, 0, 1, 1, 1, 1, 0, 0])
        assert 0.0 <= mutual_information_bits(x, y) < 1.0
