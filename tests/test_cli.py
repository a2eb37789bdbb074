"""CLI contract: exit codes, reproducibility, file formats."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from hydra_lab.cli import main
from hydra_lab.tasks import read_samples


def run_cli(args, **kw):
    return main(list(args))


class TestGenData:
    def test_logic_count_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["gen-data", "logic", "--chain-len", "3", "-n", "100",
                        "--seed", "7", "--out", str(out1)]) == 0
        assert run_cli(["gen-data", "logic", "--chain-len", "3", "-n", "100",
                        "--seed", "7", "--out", str(out2)]) == 0
        f1 = (out1 / "logic.txt").read_bytes()
        f2 = (out2 / "logic.txt").read_bytes()
        assert f1 == f2
        assert len(f1.decode().splitlines()) == 100

    def test_unknown_task_exits_2_and_names_valid(self, capsys):
        with pytest.raises(SystemExit) as ex:
            run_cli(["gen-data", "nope"])
        assert ex.value.code == 2
        err = capsys.readouterr().err
        assert "logic" in err and "multidomain" in err

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen-data", "qa", "-n", "4", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert "version" in manifest and "started_unix" in manifest

    def test_manifests_identical_modulo_timestamps(self, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for o in outs:
            run_cli(["gen-data", "distant", "--len", "64", "--premise-pos", "10",
                     "-n", "5", "--seed", "3", "--out", str(o)])
        m1 = json.loads((outs[0] / "manifest.json").read_text())
        m2 = json.loads((outs[1] / "manifest.json").read_text())
        for volatile in ("started_unix", "ended_unix", "outputs", "argv"):
            m1.pop(volatile), m2.pop(volatile)
        m1["config"].pop("out", None), m2["config"].pop("out", None)
        assert m1 == m2


class TestTrainEval:
    def test_train_writes_report_checkpoint_and_eval_runs(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(["train", "logic", "--seed", "1", "--scale", "0.002",
                      "--out", str(out),
                      "--task-param", "n_train=64", "--task-param", "n_eval=16"])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "model.ckpt").exists()
        assert (out / "records.csv").exists()
        # eval the checkpoint on a fresh task file of the same task
        data_dir = tmp_path / "data"
        run_cli(["gen-data", "logic", "--chain-len", "2", "-n", "8",
                 "--seed", "99", "--out", str(data_dir)])
        rc = run_cli(["eval", str(out / "model.ckpt"), str(data_dir / "logic.txt"),
                      "--out", str(tmp_path / "ev")])
        assert rc == 0
        assert (tmp_path / "ev" / "eval.csv").exists()

    def test_scale_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "run2"
        run_cli(["train", "logic", "--scale", "0.001", "--out", str(out),
                 "--task-param", "n_train=32", "--task-param", "n_eval=8"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scale"] == 0.001

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = run_cli(["train", "logic", "--config", str(tmp_path / "none.json")])
        assert rc == 2

    def test_ablate_flag_produces_ablated_variant(self, tmp_path):
        out = tmp_path / "run3"
        rc = run_cli(["train", "logic", "--ablate", "workspace", "--scale", "0.001",
                      "--out", str(out),
                      "--task-param", "n_train=32", "--task-param", "n_eval=8"])
        assert rc == 0
        records = (out / "records.csv").read_text()
        assert "hydra_no_workspace" in records

    def test_transformer_ablation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run5"
        rc = run_cli(["train", "logic", "--model", "transformer", "--ablate", "sga",
                      "--scale", "0.001", "--out", str(out),
                      "--task-param", "n_train=32", "--task-param", "n_eval=8"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("flag", [["--ablate", "sga"], ["--scale", "0.5"]])
    def test_efficiency_ablation_or_scale_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "run6"
        rc = run_cli(["train", "efficiency", *flag, "--out", str(out)])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_vocab_mismatch_is_input_error(self, tmp_path):
        out = tmp_path / "run4"
        run_cli(["train", "logic", "--scale", "0.001", "--out", str(out),
                 "--task-param", "n_train=32", "--task-param", "n_eval=8"])
        data_dir = tmp_path / "data4"
        run_cli(["gen-data", "multidomain", "--n-domains", "8", "-n", "4",
                 "--out", str(data_dir)])
        rc = run_cli(["eval", str(out / "model.ckpt"), str(data_dir / "multidomain.txt")])
        assert rc == 1


class TestBench:
    def test_repeats_minimum(self):
        assert run_cli(["bench", "--repeats", "1", "--lens", "64"]) == 2

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench"
        rc = run_cli(["bench", "--variant", "hydra", "--lens", "32,64",
                      "--repeats", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "variant,seq_len,tokens_per_sec,ms_per_token,peak_mem_mb,n_repeats,stddev"
        assert len(lines) == 3


class TestEntryPoint:
    def test_console_script_runs(self):
        res = subprocess.run([sys.executable, "-m", "hydra_lab.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert re.match(r"0\.1\.0\+", res.stdout.strip())
