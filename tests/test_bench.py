"""Benchmark harness: records, fits, report files."""

from types import SimpleNamespace

import numpy as np
import pytest

from hydra_lab import bench
from hydra_lab.bench import (
    BenchRecord,
    ScalingFit,
    emit_report,
    fit_scaling,
    measure_throughput,
    parse_report,
)
from hydra_lab.model import ModelConfig, build_hydra
from hydra_lab.tensor import UsageError


def tiny_cfg():
    return ModelConfig(vocab=32, d=16, n_blocks=2, n_heads=2, chunk_size=8,
                       routing_dim=8, n_experts=2, moe_hidden=16, sga_window=8,
                       sga_max_globals=2, ws_slots=4, ws_active=2, ws_rank=4,
                       pkm_n=4, pkm_dk=8, pkm_dv=16, pkm_t=2, pkm_kc=2,
                       max_len=256, seed=0, sga_blocks=[1], moe_blocks=[0])


def synthetic_records(p, lens=(1024, 2048, 4096, 8192), variant="hydra", a=1e-6):
    recs = []
    for L in lens:
        t = a * L**p
        recs.append(BenchRecord(variant, L, L / t, 1000 * t / L, 100.0, 5, 0.0))
    return recs


class TestMeasure:
    def test_smoke_l1(self):
        cfg = tiny_cfg()
        params = build_hydra(cfg)
        r = measure_throughput(cfg, params, 1, n_repeats=3)
        assert r.tokens_per_sec > 0
        assert r.seq_len == 1

    def test_invariant_tokens_per_sec_definition(self):
        cfg = tiny_cfg()
        params = build_hydra(cfg)
        r = measure_throughput(cfg, params, 64, n_repeats=3)
        # both rates come from the same median run
        assert r.tokens_per_sec * r.ms_per_token == pytest.approx(1000.0, rel=1e-12)

    def test_repeat_stability(self, monkeypatch):
        # an injected clock: each measurement reads the same five repeats,
        # one of them an outlier, so a measurement must repeat exactly
        durations = [0.010, 0.012, 0.500, 0.011, 0.013]
        readings = []
        for _ in range(2):
            t = 100.0
            for dt in durations:
                readings += [t, t + dt]
                t += 1.0
        clock = iter(readings)
        monkeypatch.setattr(bench, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        cfg = tiny_cfg()
        params = build_hydra(cfg)
        a = measure_throughput(cfg, params, 128, n_repeats=5)
        b = measure_throughput(cfg, params, 128, n_repeats=5)
        assert next(clock, None) is None                 # every reading was used
        assert a.tokens_per_sec == b.tokens_per_sec
        assert a.ms_per_token == b.ms_per_token
        med = float(np.median(np.array(readings[1:10:2]) - np.array(readings[0:10:2])))
        assert a.tokens_per_sec == 128 / med
        assert abs(a.tokens_per_sec - b.tokens_per_sec) / a.tokens_per_sec < 0.35

    def test_min_repeats_enforced(self):
        cfg = tiny_cfg()
        params = build_hydra(cfg)
        with pytest.raises(UsageError):
            measure_throughput(cfg, params, 16, n_repeats=2)

    def test_too_long_rejected(self):
        cfg = tiny_cfg()
        params = build_hydra(cfg)
        with pytest.raises(UsageError):
            measure_throughput(cfg, params, 512, n_repeats=3)


class TestFitScaling:
    def test_perfect_linear(self):
        fits, _ = fit_scaling(synthetic_records(1.0))
        assert fits[0].exponent == pytest.approx(1.0, abs=0.01)
        assert fits[0].r_squared > 0.999

    def test_perfect_quadratic(self):
        fits, _ = fit_scaling(synthetic_records(2.0))
        assert fits[0].exponent == pytest.approx(2.0, abs=0.01)

    def test_published_table_shape(self):
        # throughput columns from the efficiency table: hybrid vs dense
        lens = [1024, 2048, 4096, 8192, 16384]
        hydra_tps = [305136, 400868, 338962, 218846, 121181]
        base_tps = [290243, 201458, 129811, 72801, 38254]
        recs = [BenchRecord("hydra", L, t, 1000 / t, 0, 5, 0) for L, t in zip(lens, hydra_tps)]
        recs += [BenchRecord("transformer", L, t, 1000 / t, 0, 5, 0) for L, t in zip(lens, base_tps)]
        fits, crossover = fit_scaling(recs)
        by = {f.variant: f for f in fits}
        assert 1.0 <= by["hydra"].exponent <= 1.4
        assert 1.5 <= by["transformer"].exponent <= 2.0
        assert crossover is not None and crossover <= 2048

    def test_crossover_requires_staying_ahead(self):
        lens = [1024, 2048, 4096, 8192]
        h = [100, 300, 90, 400]   # dips below baseline at 4096
        b = [200, 200, 200, 200]
        recs = [BenchRecord("hydra", L, t, 1.0, 0, 5, 0) for L, t in zip(lens, h)]
        recs += [BenchRecord("transformer", L, t, 1.0, 0, 5, 0) for L, t in zip(lens, b)]
        _, crossover = fit_scaling(recs)
        assert crossover == 8192

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            fit_scaling(synthetic_records(1.0, lens=(256, 512, 1024)))


class TestEmitReport:
    def test_round_trip(self, tmp_path):
        recs = synthetic_records(1.5)
        fits, _ = fit_scaling(recs)
        paths = emit_report(recs, fits, tmp_path)
        back = parse_report(paths["bench"])
        assert len(back) == len(recs)
        for a, b in zip(sorted(recs, key=lambda r: r.seq_len), back):
            assert a.seq_len == b.seq_len
            assert a.tokens_per_sec == b.tokens_per_sec
            assert a.peak_mem_mb == b.peak_mem_mb

    def test_empty_records_header_only(self, tmp_path):
        paths = emit_report([], [], tmp_path)
        text = paths["bench"].read_text()
        assert text.splitlines()[0] == "variant,seq_len,tokens_per_sec,ms_per_token,peak_mem_mb,n_repeats,stddev"
        assert len(text.splitlines()) == 1

    def test_plot_data_schema(self, tmp_path):
        recs = synthetic_records(1.0, lens=(1024, 2048, 4096, 8192))
        paths = emit_report(recs, [], tmp_path)
        lines = paths["plot"].read_text().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == 1 + 2 * len(recs)


class TestPeakMemory:
    """peak_mem_mb is the real bytes one forward allocates (tracemalloc)."""

    def test_doubling_l_doubles_peak(self):
        # at d=64 the forward's activations dominate; within one 256-query
        # attention block the score buffers grow with L^2, so doubling L
        # should at least double the forward's peak
        cfg = ModelConfig.from_dict({**tiny_cfg().to_dict(), "d": 64, "pkm_dv": 64,
                                     "moe_hidden": 128, "n_heads": 4})
        params = build_hydra(cfg)
        m1 = measure_throughput(cfg, params, 128, n_repeats=3).peak_mem_mb
        m2 = measure_throughput(cfg, params, 256, n_repeats=3).peak_mem_mb
        assert m1 > 0.5
        assert m2 / m1 >= 1.9

    def test_empty_model_near_zero(self):
        # a one-token forward allocates next to nothing, however large
        # the parameters that were alive before it
        cfg = ModelConfig.from_dict({**tiny_cfg().to_dict(), "d": 128, "pkm_dv": 128,
                                     "moe_hidden": 256, "n_heads": 4})
        params = build_hydra(cfg)
        param_mb = sum(p.data.nbytes for _, p in params.parameters()) / 2**20
        peak = measure_throughput(cfg, params, 1, n_repeats=3).peak_mem_mb
        assert param_mb > 3.0
        assert 0 < peak < 0.1 * param_mb
