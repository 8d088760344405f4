import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockdict import (
    DEFAULT_ENUMERATION_CAP,
    BlockDict,
    BlockStructure,
    construct_kappa,
    gen_dictionary,
    read_matrix_text,
    rip_constant_exact,
    trace_to_csv,
    verify_theorem_instance,
    write_matrix_text,
)
from blockdict import cli, harness
from blockdict.cli import build_parser, main

from conftest import (
    RANK_DEFICIENT_SVALS, make_equivalent_pair, make_rip_instance, rank_deficient_dict,
)


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def gen_files(workdir, seed=0):
    rc = run_cli([
        "gen", "--ambient-dim", 16, "--blocks", 6, "--alpha", 2, "--sparsity", 2,
        "--seed", seed, "--n-samples", 40,
        "--out-dict", workdir / "A.txt",
        "--out-codes", workdir / "X.txt",
        "--out-samples", workdir / "Y.txt",
    ])
    assert rc == 0


class TestGen:
    def test_writes_consistent_files(self, workdir):
        gen_files(workdir)
        A = read_matrix_text(workdir / "A.txt")
        X = read_matrix_text(workdir / "X.txt")
        Y = read_matrix_text(workdir / "Y.txt")
        assert A.shape == (16, 12)
        assert X.shape == (12, 40)
        assert Y.shape == (16, 40)
        assert np.max(np.abs(A @ X - Y)) < 1e-12

    def test_deterministic(self, workdir):
        gen_files(workdir, seed=5)
        first = (workdir / "A.txt").read_text()
        gen_files(workdir, seed=5)
        assert (workdir / "A.txt").read_text() == first

    @pytest.mark.parametrize(
        "flags, message",
        [(["--scale", "nan"], "coefficient_scale must be finite and positive, got nan"),
         (["--scale", "inf"], "coefficient_scale must be finite and positive, got inf"),
         (["--n-samples", 0], "n_samples must be >= 1, got 0")],
        ids=["nan-scale", "inf-scale", "no-samples"],
    )
    def test_bad_codes_write_no_file(self, workdir, capsys, flags, message):
        # the codes are drawn before any file is written, the dictionary's included
        rc = run_cli([
            "gen", "--ambient-dim", 8, "--blocks", 4, "--alpha", 2, "--sparsity", 1,
            "--n-samples", 2, *flags,
            "--out-dict", workdir / "A.txt", "--out-codes", workdir / "X.txt",
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_overflowing_samples_write_no_file(self, workdir, capsys, recwarn):
        # A and X are finite; only Y = A X overflows
        rc = run_cli([
            "gen", "--ambient-dim", 8, "--blocks", 4, "--alpha", 2, "--sparsity", 2,
            "--n-samples", 3, "--scale", "1e308", "--mode", "gaussian",
            "--out-dict", workdir / "A.txt", "--out-codes", workdir / "X.txt",
            "--out-samples", workdir / "Y.txt",
        ])
        assert rc == 2
        assert "Y.txt: matrix entries must all be finite" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []
        assert not recwarn.list

    def test_requires_an_output(self, workdir):
        rc = run_cli([
            "gen", "--ambient-dim", 16, "--blocks", 6, "--alpha", 2, "--sparsity", 2,
        ])
        assert rc == 2


class TestRip:
    def test_exact_matches_library(self, workdir, capsys):
        gen_files(workdir)
        rc = run_cli(["rip", workdir / "A.txt", "--alpha", 2, "--level", 4])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        A = BlockDict(BlockStructure(K=6, alpha=2, s=2), read_matrix_text(workdir / "A.txt"))
        assert payload["delta"] == pytest.approx(rip_constant_exact(A, 4).delta)
        assert payload["mode"] == "exact-enumeration"

    def test_sampled_mode_and_out_file(self, workdir):
        gen_files(workdir)
        out = workdir / "rip.json"
        rc = run_cli([
            "rip", workdir / "A.txt", "--alpha", 2, "--level", 4,
            "--mode", "sampled", "--samples", 5, "--seed", 3, "--out", out,
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "sampled-lower-bound"
        assert payload["supports_examined"] == 5

    def test_abbreviated_flags_exit_code(self, workdir):
        gen_files(workdir)
        with pytest.raises(SystemExit) as exc:
            run_cli(["rip", workdir / "A.txt", "--alpha", 2, "--level", 4,
                     "--mode", "sampled", "--samp", 5, "--se", 3])
        assert exc.value.code == 2

    def test_capacity_exit_code(self, workdir, capsys):
        # C(40, 20) supports, enumerated or sampled, are over the enumeration cap
        write_matrix_text(workdir / "big.txt", np.eye(40))
        for mode in (["--mode", "exact"], ["--mode", "sampled", "--samples", 10**15]):
            rc = run_cli(["rip", workdir / "big.txt", "--alpha", 1, "--level", 20, *mode])
            assert rc == 3
            assert "capacity error" in capsys.readouterr().err

    def test_bad_file_exit_code(self, workdir):
        rc = run_cli(["rip", workdir / "missing.txt", "--alpha", 2, "--level", 2])
        assert rc == 2

    def test_extra_rows_exit_code(self, workdir, capsys):
        (workdir / "F.txt").write_text("2 2\n1 0\n0 1\n1 1\n")
        rc = run_cli(["rip", workdir / "F.txt", "--alpha", 1, "--level", 1])
        assert rc == 2
        assert "past the declared 2 rows" in capsys.readouterr().err

    def test_overflowing_gram_exit_code(self, workdir, capsys):
        # filterwarnings = error would turn an overflow warning into exit 1
        write_matrix_text(workdir / "O.txt", np.full((8, 8), 1e200))
        rc = run_cli(["rip", workdir / "O.txt", "--alpha", 2, "--level", 2])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not finite" in err and "Warning" not in err

    def test_alpha_not_dividing_the_columns_exit_code(self, workdir, capsys):
        gen_files(workdir)  # 12 columns
        assert run_cli(["rip", workdir / "A.txt", "--alpha", 5, "--level", 1]) == 2
        assert "matrix has 12 columns, not divisible by alpha=5" in capsys.readouterr().err

    def test_zero_alpha_exit_code(self, workdir, capsys):
        gen_files(workdir)
        rc = run_cli(["rip", workdir / "A.txt", "--alpha", 0, "--level", 2])
        assert rc == 2
        assert "alpha must be >= 1, got 0" in capsys.readouterr().err


class TestCode:
    def test_omp_and_exhaustive_agree_on_planted(self, workdir, capsys):
        A, _, used = make_rip_instance(16, 6, 2, 2, seed=40)
        write_matrix_text(workdir / "A.txt", A.data)
        rng = np.random.default_rng(used)
        x = np.zeros(12)
        x[0:2] = rng.uniform(0.5, 1.0, 2)
        x[6:8] = rng.uniform(0.5, 1.0, 2)
        write_matrix_text(workdir / "y.txt", A.data @ x)
        for method in ("omp", "exhaustive"):
            rc = run_cli([
                "code", workdir / "A.txt", workdir / "y.txt",
                "--alpha", 2, "--sparsity", 2, "--method", method,
            ])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["support"] == [1, 4]
            assert payload["residual_norm"] < 1e-10
            assert np.max(np.abs(np.array(payload["coefficients"]) - x)) < 1e-8

    def test_multi_column_measurement_exit_code(self, workdir, capsys):
        # flattened, this 2 x 2 file would be a length-4 measurement for A
        write_matrix_text(workdir / "A.txt", np.eye(4)[:, :2])
        write_matrix_text(workdir / "y.txt", np.array([[1.0, 0.0], [2.0, 0.0]]))
        rc = run_cli([
            "code", workdir / "A.txt", workdir / "y.txt", "--alpha", 1, "--sparsity", 1,
        ])
        assert rc == 2
        assert "one column" in capsys.readouterr().err

    def test_negative_tol_exit_code(self, workdir, capsys):
        A, _, _ = make_rip_instance(16, 6, 2, 2, seed=40)
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "y.txt", A.data[:, [6, 10]] @ np.ones(2))
        rc = run_cli([
            "code", workdir / "A.txt", workdir / "y.txt", "--alpha", 2, "--sparsity", 2,
            "--method", "exhaustive", "--tol", -1,
        ])
        assert rc == 2
        assert "--tol must be nonnegative" in capsys.readouterr().err


    @pytest.mark.parametrize("method", ["omp", "exhaustive"])
    def test_overflowing_code_exit_code(self, workdir, capsys, method):
        # the seed-1 K = 6 dictionary at 2^-1060 and y at scale 1: a code of order 2^1060
        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=1)
        write_matrix_text(workdir / "A.txt", np.ldexp(A.data, -1060))
        write_matrix_text(workdir / "y.txt", A.data[:, 1] + A.data[:, 11])
        assert np.array_equal(read_matrix_text(workdir / "A.txt"), np.ldexp(A.data, -1060))
        rc = run_cli([
            "code", workdir / "A.txt", workdir / "y.txt", "--alpha", 2, "--sparsity", 2,
            "--method", method, "--out", workdir / "code.json",
        ])
        assert rc == 2
        assert "the code overflows the float range" in capsys.readouterr().err
        assert not (workdir / "code.json").exists()


class TestEquiv:
    def test_equivalent_pair(self, workdir, capsys):
        A, B, perm, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=41)
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "B.txt", B.data)
        rc = run_cli(["equiv", workdir / "A.txt", workdir / "B.txt", "--alpha", 2])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "equivalent"
        assert payload["pi"] == list(perm.pi)

    def test_random_pair(self, workdir, capsys):
        rng = np.random.default_rng(0)
        write_matrix_text(workdir / "A.txt", rng.standard_normal((16, 10)))
        write_matrix_text(workdir / "B.txt", rng.standard_normal((16, 10)))
        rc = run_cli(["equiv", workdir / "A.txt", workdir / "B.txt", "--alpha", 2])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "not-equivalent"

    @RANK_DEFICIENT_SVALS
    def test_rank_deficient_block_is_ambiguous(self, workdir, capsys, svals):
        write_matrix_text(workdir / "A.txt", rank_deficient_dict(svals).data)
        rc = run_cli(["equiv", workdir / "A.txt", workdir / "A.txt", "--alpha", 2])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ambiguous"

    def test_transform_out_of_range_exits_0_and_warns_of_nothing(self, workdir):
        import blockdict

        A = gen_dictionary(16, BlockStructure(K=6, alpha=2, s=2), seed=0)
        write_matrix_text(workdir / "A.txt", A.with_block(1, np.ldexp(A.block(1), 1000)).data)
        write_matrix_text(workdir / "B.txt", A.with_block(1, np.ldexp(A.block(1), -1000)).data)
        env = {**os.environ, "PYTHONPATH": str(Path(blockdict.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "blockdict", "equiv",
                               str(workdir / "A.txt"), str(workdir / "B.txt"), "--alpha", "2"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {"status": "out-of-range", "pi": [1, 2, 3, 4, 5, 6],
                                           "D_blocks": None, "residual": None}

    def test_negative_span_tol_exit_code(self, workdir, capsys):
        A, _, _ = make_rip_instance(16, 5, 2, 2, seed=41)
        write_matrix_text(workdir / "A.txt", A.data)
        rc = run_cli(["equiv", workdir / "A.txt", workdir / "A.txt", "--alpha", 2,
                      "--span-tol", -1])
        assert rc == 2
        assert "--span-tol must be nonnegative" in capsys.readouterr().err


class TestKappa:
    def test_maps_support_through_permutation(self, workdir, capsys):
        A, B, perm, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=42)
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "B.txt", B.data)
        rc = run_cli([
            "kappa", workdir / "A.txt", workdir / "B.txt",
            "--alpha", 2, "--support", "1,3", "--probes", 4, "--seed", 1,
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True
        assert payload["kappa"] == sorted([perm(1), perm(3)])

    def test_hypothesis_violation_exit_code(self, workdir):
        A, _, _ = make_rip_instance(16, 5, 2, 2, seed=43)
        rng = np.random.default_rng(7)
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "B.txt", rng.standard_normal((16, 10)))
        rc = run_cli([
            "kappa", workdir / "A.txt", workdir / "B.txt",
            "--alpha", 2, "--support", "1,3", "--probes", 4,
        ])
        assert rc == 4

    @pytest.mark.parametrize("support", ["1,x", "1.5", "1;3"])
    def test_non_integer_support_exit_code(self, workdir, capsys, support):
        gen_files(workdir)
        rc = run_cli(["kappa", workdir / "A.txt", workdir / "A.txt", "--alpha", 2,
                      "--support", support])
        assert rc == 2
        assert f"support must be comma-separated integers, got {support!r}" in (
            capsys.readouterr().err)

    def test_probe_count_over_the_cap_exit_code(self, workdir, capsys):
        # as rip --samples: more probes than the enumeration cap exit 3 before any draw
        gen_files(workdir)
        assert run_cli(["kappa", workdir / "A.txt", workdir / "A.txt", "--alpha", 2,
                        "--support", "1,3", "--probes", DEFAULT_ENUMERATION_CAP + 1]) == 3
        assert "capacity error" in capsys.readouterr().err

    @pytest.mark.parametrize("probes", [0, -1])
    def test_probe_count_below_one_exit_code(self, workdir, capsys, probes):
        gen_files(workdir)
        assert run_cli(["kappa", workdir / "A.txt", workdir / "A.txt", "--alpha", 2,
                        "--support", "1,3", "--probes", probes]) == 2
        assert f"n_probes must be >= 1, got {probes}" in capsys.readouterr().err

    @pytest.mark.parametrize("probes", [8, 0, DEFAULT_ENUMERATION_CAP + 1])
    def test_verify_refuses_probes(self, workdir, capsys, probes):
        # verify reads kappa from span containment and draws no probe: --probes is not its flag
        gen_files(workdir)
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", workdir / "A.txt", workdir / "A.txt", "--alpha", 2,
                     "--sparsity", 2, "--probes", probes])
        assert exc.value.code == 2
        assert "unrecognized arguments: --probes" in capsys.readouterr().err

    def test_support_count_over_the_cap_exit_code(self, workdir, capsys):
        # both code probes at |S| = 20 on the 40 blocks of eye(40): C(40, 20) is over the cap
        write_matrix_text(workdir / "E40.txt", np.eye(40))
        pair = [workdir / "E40.txt", workdir / "E40.txt", "--alpha", 1]
        support = ",".join(map(str, range(1, 21)))
        for cmd in (["kappa", *pair, "--support", support, "--probes", 2],
                    ["verify", *pair, "--sparsity", 20]):
            assert run_cli(cmd) == 3
            assert "capacity error: C(40, 20) = 137846528820" in capsys.readouterr().err

    @staticmethod
    def max_float_pair(workdir, k=0):
        # block 1 of A is all the largest float times 2^k; B is A's other blocks and a random one
        B = np.random.default_rng(0).standard_normal((6, 6))
        A = B.copy()
        A[:, :2] = np.ldexp(np.finfo(float).max, k)
        write_matrix_text(workdir / f"A{k}.txt", A)
        write_matrix_text(workdir / "B.txt", B)
        return [workdir / f"A{k}.txt", workdir / "B.txt",
                "--alpha", 2, "--support", "1", "--probes", 4, "--seed", 1]

    def test_max_float_block_probes_as_its_scaled_down_pair(self, workdir, capsys):
        # probes are measured at their support's power-of-two scale, so block 1 times 2^-1024
        # exits with the same code and text; filterwarnings = error: no overflow is warned of
        outcomes = []
        for k in (0, -1024):
            rc = run_cli(["kappa", *self.max_float_pair(workdir, k)])
            outcomes.append((rc, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 4 and "probe 0 on support (1,) has no" in outcomes[0][2]

    def test_max_float_block_warns_of_nothing(self, workdir):
        import blockdict

        env = {**os.environ, "PYTHONPATH": str(Path(blockdict.__file__).parents[1])}
        outcomes = []
        for k in (0, -1024):
            args = ["-W", "error", "-m", "blockdict", "kappa", *self.max_float_pair(workdir, k)]
            proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                                  text=True, env=env)
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 4 and "Warning" not in outcomes[0][2]


BASE_CONFIG = {
    "structure": {"K": 4, "alpha": 2, "s": 2},
    "ambient_dim": 20,
    "n_samples": 50,
    "seed": 3,
    "learner_iterations": 5,
}


class TestLearnAndExperiment:
    def make_config(self, workdir, **overrides):
        config = {**BASE_CONFIG, **overrides}
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_learn_writes_dictionary_and_trace(self, workdir, capsys):
        cfg = self.make_config(workdir)
        rng = np.random.default_rng(2)
        write_matrix_text(workdir / "Y.txt", rng.standard_normal((20, 50)))
        rc = run_cli([
            "learn", workdir / "Y.txt", "--config", cfg,
            "--out-dict", workdir / "B.txt",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["objectives"]) >= 1
        assert read_matrix_text(workdir / "B.txt").shape == (20, 8)

    def test_learn_reports_the_coding_residuals(self, workdir, capsys):
        # the learner's last coding of the dictionary it returns, under experiment's key
        cfg = self.make_config(workdir)
        write_matrix_text(workdir / "Y.txt", np.random.default_rng(2).standard_normal((20, 50)))
        assert run_cli(["learn", workdir / "Y.txt", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        Y, config = read_matrix_text(workdir / "Y.txt"), harness.ExperimentConfig.from_json_file(cfg)
        expected = harness.learn_dictionary(Y, config)[1].residuals.tolist()
        assert payload["coding_residuals"] == expected and len(expected) == 50

    def test_learn_csv_trace(self, workdir, capsys):
        cfg = self.make_config(workdir)
        rng = np.random.default_rng(2)
        write_matrix_text(workdir / "Y.txt", rng.standard_normal((20, 50)))
        rc = run_cli(["learn", workdir / "Y.txt", "--config", cfg, "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "iteration,objective"

    def test_experiment_deterministic(self, workdir):
        cfg = self.make_config(workdir)
        out1 = workdir / "r1.json"
        out2 = workdir / "r2.json"
        assert run_cli(["experiment", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["experiment", "--config", cfg, "--out", out2]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        r1.pop("wall_clock_sec")
        r2.pop("wall_clock_sec")
        assert r1 == r2

    def test_experiment_csv_trace(self, workdir):
        cfg = self.make_config(workdir)
        assert run_cli(["experiment", "--config", cfg, "--out", workdir / "r.json"]) == 0
        assert run_cli(["experiment", "--config", cfg, "--format", "csv",
                        "--out", workdir / "trace.csv"]) == 0
        trace = json.loads((workdir / "r.json").read_text())["trace"]
        assert (workdir / "trace.csv").read_text() == trace_to_csv(trace)
        assert len((workdir / "trace.csv").read_text().splitlines()) == 1 + len(
            trace["objectives"])

    def test_stage_error_exit_code(self, workdir, capsys, monkeypatch):
        # a failing stage is recorded in the report, which is still written, and told on stderr
        def fail(*args, **kwargs):
            raise RuntimeError("no learner")

        monkeypatch.setattr(harness, "learn_dictionary", fail)
        cfg = self.make_config(workdir)
        assert run_cli(["experiment", "--config", cfg, "--out", workdir / "r.json"]) == 1
        assert capsys.readouterr().err == "stage learn failed: RuntimeError: no learner\n"
        report = json.loads((workdir / "r.json").read_text())
        assert report["stage_errors"] == [{"stage": "learn", "error": "RuntimeError: no learner"}]
        assert report["rip"] is not None and report["certificate"] is None

    def test_experiment_bad_config_exit_code(self, workdir):
        path = workdir / "config.json"
        path.write_text(json.dumps({"structure": {"K": 4, "alpha": 3, "s": 2},
                                    "ambient_dim": 5, "n_samples": 10, "seed": 0}))
        rc = run_cli(["experiment", "--config", path])
        assert rc == 2

    @pytest.mark.parametrize("command", ["experiment", "learn"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({**BASE_CONFIG, "n_iterations": 5}, "unknown keys ['n_iterations']"),
            ({**BASE_CONFIG, "dict_mode": "gaussian"}, "unknown keys ['dict_mode']"),
            ({k: v for k, v in BASE_CONFIG.items() if k != "structure"},
             "missing keys ['structure']"),
            ([BASE_CONFIG], "must be a JSON object"),
            ({**BASE_CONFIG, "n_samples": "50"}, "n_samples must be an integer, got '50'"),
            ({**BASE_CONFIG, "noise_level": "0.1"},
             "noise_level must be finite and nonnegative, got '0.1'"),
            ({**BASE_CONFIG, "learner_iterations": None},
             "learner_iterations must be an integer, got None"),
            ({**BASE_CONFIG, "structure": {**BASE_CONFIG["structure"], "K": 4.7}},
             "K must be an integer, got 4.7"),
            ({**BASE_CONFIG, "structure": {**BASE_CONFIG["structure"], "alpha": True}},
             "alpha must be an integer, got True"),
            ({**BASE_CONFIG, "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({**BASE_CONFIG, "seed": -1}, "seed must be >= 0, got -1"),
            # removed keys are unknown, whatever their value
            ({**BASE_CONFIG, "coefficient_scale": 0}, "unknown keys ['coefficient_scale']"),
            ({**BASE_CONFIG, "coefficient_scale": float("inf")},
             "unknown keys ['coefficient_scale']"),
            ({**BASE_CONFIG, "noise_level": float("nan")}, "noise_level must be finite"),
            ({**BASE_CONFIG, "rank_tol": -1e-8}, "unknown keys ['rank_tol']"),
            ({**BASE_CONFIG, "certificate_tol": -1e-6},
             "certificate_tol must be finite and nonnegative"),
            ({**BASE_CONFIG, "coding_tol": -1e-10}, "unknown keys ['coding_tol']"),
            ({**BASE_CONFIG, "structure": {**BASE_CONFIG["structure"], "beta": 1}},
             "structure: unknown keys ['beta']"),
        ],
        ids=["unknown-key", "dict-mode-key", "missing-structure", "list-top-level", "string-int",
             "string-float", "null-int", "float-K", "bool-alpha", "float-seed",
             "negative-seed", "zero-scale", "inf-scale", "nan-noise",
             "negative-rank-tol", "negative-certificate-tol", "negative-coding-tol",
             "beta-key"],
    )
    def test_malformed_config_exit_code(self, workdir, capsys, command, payload, message):
        path = workdir / "bad.json"
        path.write_text(json.dumps(payload))
        write_matrix_text(workdir / "Y.txt", np.zeros((20, 50)))
        args = ["experiment"] if command == "experiment" else ["learn", workdir / "Y.txt"]
        assert run_cli([*args, "--config", path]) == 2
        assert message in capsys.readouterr().err


class TestVerify:
    def test_equivalent_pair_report(self, workdir, capsys):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=44)
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "B.txt", B.data)
        rc = run_cli([
            "verify", workdir / "A.txt", workdir / "B.txt",
            "--alpha", 2, "--sparsity", 2,
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hypothesis"]["holds"] is True
        assert payload["conclusion"]["status"] == "equivalent"
        assert payload["agreement"]["equal"] is True

    @RANK_DEFICIENT_SVALS
    def test_rank_deficient_block_is_ambiguous(self, workdir, capsys, svals):
        write_matrix_text(workdir / "A.txt", rank_deficient_dict(svals).data)
        rc = run_cli(["verify", workdir / "A.txt", workdir / "A.txt",
                      "--alpha", 2, "--sparsity", 2])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conclusion"]["status"] == "ambiguous"
        assert payload["agreement"]["equal"] is None

    def test_overflowing_pair_is_refused_at_the_gram_check(self, workdir, capsys):
        # kappa's max-float pair: verify's restricted isometry constant comes first
        B = np.random.default_rng(0).standard_normal((6, 6))
        A = B.copy()
        A[:, :2] = np.finfo(float).max
        write_matrix_text(workdir / "A.txt", A)
        write_matrix_text(workdir / "B.txt", B)
        rc = run_cli(["verify", workdir / "A.txt", workdir / "B.txt", "--alpha", 2,
                      "--sparsity", 2])
        assert rc == 2
        assert "the Gram matrix A^T A is not finite" in capsys.readouterr().err

    def test_tied_probes_are_recorded(self, workdir, capsys):
        write_matrix_text(workdir / "A.txt", rank_deficient_dict((0.0, 0.0)).data)
        rc = run_cli(["verify", workdir / "A.txt", workdir / "A.txt",
                      "--alpha", 2, "--sparsity", 2])
        assert rc == 0
        hypothesis = json.loads(capsys.readouterr().out)["hypothesis"]
        assert hypothesis["holds"] is False
        errors = [e["support"] for e in hypothesis["details"] if "error" in e]
        assert errors == [[1, 2], [2, 3], [2, 4]]


class TestJsonReports:
    """Every JSON report is one line from json's C encoder, which refuses numpy scalars."""

    def pair_files(self, workdir):
        """Writes a planted pair at P=16, K=5, alpha=2 with block 3 of B replaced, so verify
        records both kappas and hypothesis violations; returns A."""
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=44)
        Q = np.linalg.qr(np.random.default_rng(45).standard_normal((16, 2)))[0]
        write_matrix_text(workdir / "A.txt", A.data)
        write_matrix_text(workdir / "B.txt", B.with_block(3, Q).data)
        return A

    def args(self, workdir, command):
        A = self.pair_files(workdir)
        write_matrix_text(workdir / "y.txt", A.data[:, [0, 5]] @ np.array([1.0, -0.5]))
        config = workdir / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        write_matrix_text(workdir / "Y.txt", np.random.default_rng(2).standard_normal((20, 50)))
        pair = [workdir / "A.txt", workdir / "B.txt", "--alpha", 2]
        return {
            "rip": ["rip", workdir / "A.txt", "--alpha", 2, "--level", 4],
            "code": ["code", workdir / "A.txt", workdir / "y.txt", "--alpha", 2,
                     "--sparsity", 2, "--method", "exhaustive"],
            "equiv": ["equiv", *pair],
            "kappa": ["kappa", *pair, "--support", "1,2", "--probes", 4],
            "learn": ["learn", workdir / "Y.txt", "--config", config],
            "verify": ["verify", *pair, "--sparsity", 2, "--seed", 2],
            "experiment": ["experiment", "--config", config],
        }[command]

    @pytest.mark.parametrize(
        "command", ["rip", "code", "equiv", "kappa", "learn", "verify", "experiment"])
    def test_report_is_one_json_line(self, workdir, capsys, command):
        assert run_cli(self.args(workdir, command)) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.dumps(json.loads(out)) + "\n" == out  # default separators, no indent

    def test_verify_report_equals_the_library_report(self, workdir, capsys):
        self.pair_files(workdir)
        assert run_cli(["verify", workdir / "A.txt", workdir / "B.txt", "--alpha", 2,
                        "--sparsity", 2, "--seed", 2]) == 0
        report = json.loads(capsys.readouterr().out)
        A, B = (BlockDict(BlockStructure(K=5, alpha=2, s=2), read_matrix_text(workdir / f))
                for f in ("A.txt", "B.txt"))
        assert report == verify_theorem_instance(A, B, s=2, seed=2).to_dict()
        details = report["hypothesis"]["details"] + report["agreement"]["kappa_singletons"]
        assert any("error" in e for e in details) and any("kappa" in e for e in details)

    def test_kappa_result_holds_python_scalars(self):
        A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=44)
        res = construct_kappa(A, B, (1, 4), n_probes=4, seed=1)
        assert type(res.consistent) is bool
        assert all(type(i) is int for sup in (res.kappa, *res.probe_supports) for i in sup)


def test_console_entry_point(tmp_path):
    # the installed script and python -m both expose the same CLI
    proc = subprocess.run(
        [sys.executable, "-m", "blockdict", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "experiment" in proc.stdout


def test_runtime_needs_only_numpy():
    # numpy is the only runtime dependency: every module imports, and the CLI
    # starts, with scipy and pytest blocked
    import blockdict

    code = """
import importlib, pkgutil, sys
sys.modules["scipy"] = sys.modules["pytest"] = None
import blockdict
for info in pkgutil.iter_modules(blockdict.__path__):
    if info.name != "__main__":  # the entry point runs the CLI on import
        importlib.import_module("blockdict." + info.name)
from blockdict.cli import main
main(["--help"])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(blockdict.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "experiment" in proc.stdout


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "recover_equivalence", fail)
    write_matrix_text(tmp_path / "A.txt", np.eye(4))
    assert run_cli(["equiv", tmp_path / "A.txt", tmp_path / "A.txt", "--alpha", 2]) == 1
    assert capsys.readouterr().err == "internal error: KeyError: 'lost'\n"


def test_bad_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# a valid command line per subcommand, to which an unread flag is appended
BASE_ARGS = {
    "gen": ["--ambient-dim", "16", "--blocks", "6", "--alpha", "2", "--sparsity", "2"],
    "rip": ["A.txt", "--alpha", "2", "--level", "4"],
    "code": ["A.txt", "y.txt", "--alpha", "2", "--sparsity", "2"],
    "equiv": ["A.txt", "B.txt", "--alpha", "2"],
    "kappa": ["A.txt", "B.txt", "--alpha", "2", "--support", "1"],
    "learn": ["Y.txt", "--config", "config.json"],
    "verify": ["A.txt", "B.txt", "--alpha", "2", "--sparsity", "2"],
    "experiment": ["--config", "config.json"],
}


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("gen", "--format"), ("rip", "--format"), ("code", "--seed"),
     ("code", "--format"), ("equiv", "--seed"), ("equiv", "--format"),
     ("kappa", "--format"), ("learn", "--seed"), ("verify", "--format"),
     ("experiment", "--seed")],
)
def test_unread_flag_exit_code(command, flag):
    argv = [command, *BASE_ARGS[command]]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, {"--seed": "1", "--out": "x.txt", "--format": "csv"}[flag]])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, extra, out",
    [("gen", [], "--out-dict"), ("rip", ["--mode", "exact"], "--out"),
     ("rip", ["--mode", "sampled"], "--out"), ("kappa", [], "--out"), ("verify", [], "--out")],
)
def test_negative_seed_exit_code(command, extra, out, tmp_path, capsys):
    # refused with the other flag checks, before any file is read or written
    argv = [command, *BASE_ARGS[command], *extra, out, str(tmp_path / "out.txt")]
    assert build_parser().parse_args([*argv, "--seed", "0"]).seed == 0
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
    assert not (tmp_path / "out.txt").exists()


def test_out_is_written_in_place(tmp_path, capsys):
    # a longer stale file is cut to the report, a new one is created, os.devnull is written
    A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=44)
    write_matrix_text(tmp_path / "A.txt", A.data)
    write_matrix_text(tmp_path / "B.txt", B.data)
    argv = ["verify", tmp_path / "A.txt", tmp_path / "B.txt", "--alpha", 2, "--sparsity", 2]
    assert run_cli(argv) == 0
    expected = capsys.readouterr().out.encode()
    stale, new = tmp_path / "stale.json", tmp_path / "new.json"
    stale.write_bytes(b"x" * (3 * len(expected)))
    for path in (stale, new, os.devnull):
        assert run_cli([*argv, "--out", path]) == 0
    assert stale.read_bytes() == new.read_bytes() == expected


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # one process: verify, an unknown flag, a negative seed, then verify again
    A, B, _, _, _ = make_equivalent_pair(16, 5, 2, 2, seed=44)
    write_matrix_text(tmp_path / "A.txt", A.data)
    write_matrix_text(tmp_path / "B.txt", B.data)
    argv = ["verify", str(tmp_path / "A.txt"), str(tmp_path / "B.txt"), "--alpha", "2",
            "--sparsity", "2"]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert main([*argv, "--seed", "3", "--out", str(tmp_path / "v1.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--frobnicate"])
        assert exc.value.code == 2
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "bad.json")]) == 2
        # a parser from build_parser is the caller's to change: main accepts what it did
        mutated = build_parser()
        mutated.add_argument("--extra")
        assert mutated.parse_args(["--extra", "x", *argv]).extra == "x"
        with pytest.raises(SystemExit) as exc:
            main(["--extra", "x", *argv])
        assert exc.value.code == 2
        assert main([*argv, "--seed", "3", "--out", str(tmp_path / "v2.json")]) == 0
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    assert (tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes()
    assert not (tmp_path / "bad.json").exists()
    assert build_parser() is not build_parser()
    err = capsys.readouterr().err
    assert "unrecognized arguments: --frobnicate" in err
    assert "error: --seed must be nonnegative, got -1" in err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("blockdict ")]
    parsed = [build_parser().parse_args(shlex.split(line)[1:]) for line in lines]
    assert {args.command for args in parsed} == set(BASE_ARGS)
