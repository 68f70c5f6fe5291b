import json
from pathlib import Path

from tkmeans.cli import main
from tkmeans.harness import RunSpec, run_once

TWO_BLOBS = "blobs:k=2,n=25,p=2,std=0.3,box=15,seed=5"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algo", "fast-tkmeans++", "--gen", TWO_BLOBS, "--k", "2", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["ari"] == 1.0
        assert payload["iterations"] >= 1
        assert len(payload["labels"]) == 50

    def test_no_fit_flags_keep_the_runspec_defaults(self, capsys, iris_path):
        for algo in ("tkmeans", "fast-tkmeans++", "tmm"):
            code, out, _ = run_cli(
                capsys, "run", "--algo", algo, "--data", str(iris_path), "--k", "3", "--seed", "4"
            )
            assert code == 0
            payload = json.loads(out)
            result, _ = run_once(RunSpec(algo, str(iris_path), 3), 4)
            assert payload["labels"] == result.labels.tolist()
            assert payload["centers"] == result.centers.tolist()
            assert payload["loss_trace"] == result.loss_trace.tolist()

    def test_csv_data_path(self, capsys, iris_path):
        code, out, _ = run_cli(
            capsys, "run", "--algo", "kmeans", "--data", str(iris_path), "--k", "3",
            "--standardize", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["ari"] is not None

    def test_unknown_algorithm_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "dbscan", "--gen", TWO_BLOBS, "--k", "2")
        assert code == 1
        assert "usage error" in err

    def test_bad_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--algo", "kmeans", "--gen", TWO_BLOBS)
        assert code == 1

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "kmeans", "--data", "/no/such/file.txt", "--k", "2")
        assert code == 2

    def test_ragged_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2\n3 4 5\n")
        code, _, err = run_cli(capsys, "run", "--algo", "kmeans", "--data", str(f), "--k", "1")
        assert code == 2
        assert "data error" in err

    def test_non_finite_fit_setting_exit_2(self, capsys):
        for algo, flag in (("tkmeans", "--tol"), ("gmm", "--tol"), ("fast-tkmeans", "--fast-alpha"),
                           ("fast-tkmeans", "--nu"), ("gmm", "--ridge")):
            code, _, err = run_cli(capsys, "run", "--algo", algo, "--gen", TWO_BLOBS, "--k", "2", flag, "nan")
            assert code == 2 and "data error" in err, (algo, flag)

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "run", "--algo", "kmeans", "--gen", TWO_BLOBS, "--k", "2", "--seed", "-1")
        assert code == 2 and out == "" and "data error: seed must be >= 0" in err

    def test_numerical_failure_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "gmm", "--gen", "blobs:k=1,n=2,p=5,std=1,seed=0",
            "--k", "1", "--ridge", "0",
        )
        assert code == 3
        assert "numerical error" in err


class TestBenchCommand:
    def test_bench_formats_and_out_file(self, capsys, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"[a]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\nrepeats = 2\n"
            f"\n[b]\nalgo = fast-tkmeans\ndata = {TWO_BLOBS}\nk = 2\nrepeats = 2\n"
        )
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg), "--format", "md")
        assert code == 0 and out.startswith("|")

        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "bench", "--config", str(cfg), "--format", "csv", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("name,algorithm")

        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2

    def test_failing_cell_exit_3_but_report_emitted(self, capsys, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "[bad]\nalgo = gmm\ndata = blobs:k=1,n=2,p=5,std=1,seed=0\nk = 1\nridge = 0\n"
            f"\n[good]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\n"
        )
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg), "--format", "csv")
        assert code == 3
        assert "FAILED" in out or "NumericalError" in out

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[row]\nalgo = kmeans\n")
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 2

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"algo = kmeans\ndata = {TWO_BLOBS}\nk = 2\n")
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 2
        assert "data error" in err and "no section headers" in err

    def test_shipped_example_config(self, capsys, monkeypatch):
        # the README's documented command, run from the repository root
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        code, out, _ = run_cli(capsys, "bench", "--config", "demos/bench.cfg", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert all(row["error"] is None for row in rows)


class TestRobustCommand:
    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "robust", "--gen", TWO_BLOBS, "--fractions", "0,0.1",
            "--algos", "kmeans,fast-tkmeans", "--repeats", "2", "--format", "csv",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5  # header + 2 algos x 2 fractions

    def test_bad_fraction_exit_1(self, capsys):
        code, _, _ = run_cli(
            capsys, "robust", "--gen", TWO_BLOBS, "--fractions", "0,abc", "--algos", "kmeans"
        )
        assert code == 1
