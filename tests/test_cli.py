"""CLI harness: exit codes, CSV contracts, determinism, manifests."""

import json

import pytest

from sparsemarg.cli import TRAIN_COLUMNS, main


def _run_train(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return out


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_check_suite_passes(capsys):
    assert main(["check", "simplex", "--trials", "25", "--seed", "3"]) == 0
    captured = capsys.readouterr().out
    assert "all properties passed" in captured
    assert captured.count("ok") >= 3


def test_check_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


def test_check_zero_trials_is_usage_error(capsys):
    assert main(["check", "simplex", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be at least 1, got 0\n"
    assert captured.out == ""


def test_bench_zero_trials_is_usage_error(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["bench", "--sizes", "5", "--trials", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_bench_row_count_and_header(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--op", "sparsemax", "--sizes", "5,20,80",
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["op", "size", "median_ns", "p90_ns", "mean_iters"]
    assert [r[0] for r in rows] == ["sparsemax"] * 3
    assert [r[1] for r in rows] == ["5", "20", "80"]
    assert all(float(r[2]) > 0 for r in rows)
    assert all(r[4] == "" for r in rows)


def test_bench_sparsemap_reports_iterations(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--op", "sparsemap", "--sizes", "4,6",
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert all(float(r[4]) >= 1 for r in rows)


def test_bench_sparsemap_past_64_bits(tmp_path):
    # Outcome ids past int64 once crashed the default sizes at D = 100.
    out = tmp_path / "bench.csv"
    code = main(["bench", "--op", "sparsemap", "--sizes", "10,100",
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert [r[1] for r in rows] == ["10", "100"]
    assert all(float(r[4]) >= 1 for r in rows)


def test_train_bitvec_sparsemap_past_64_bits(tmp_path):
    out = _run_train(tmp_path, "bv70.csv",
                     ["train", "bitvec", "--method", "sparsemap", "--d", "70",
                      "--n", "24", "--epochs", "2", "--seed", "0"])
    header, rows = _rows(out)
    assert header == list(TRAIN_COLUMNS)
    assert [r[0] for r in rows] == ["1", "2"]


def test_bench_empty_sizes_is_error(tmp_path, capsys):
    out = tmp_path / "never.csv"
    for sizes in (" ", "10,x"):
        assert main(["bench", "--sizes", sizes, "--trials", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sizes must be ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["check", "simplex"],
    ["bench", "--op", "sparsemax", "--sizes", "5"],
    ["train", "categorical", "--method", "sparse", "--n", "8", "--epochs", "1"],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = [] if argv[0] == "check" else ["--out", str(tmp_path / "never.csv")]
    assert main(argv + ["--seed", "-1"] + out) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be non-negative, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_train_row_count_matches_epochs(tmp_path):
    out = _run_train(tmp_path, "cat.csv",
                     ["train", "categorical", "--method", "sparse",
                      "--epochs", "3", "--n", "32", "--seed", "1"])
    header, rows = _rows(out)
    assert header == list(TRAIN_COLUMNS)
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["1", "2", "3"]


def test_train_same_seed_byte_identical(tmp_path):
    argv = ["train", "categorical", "--method", "sparse",
            "--epochs", "2", "--n", "32", "--seed", "7"]
    first = _run_train(tmp_path, "a.csv", argv)
    second = _run_train(tmp_path, "b.csv", argv)
    assert first.read_bytes() == second.read_bytes()


def test_train_different_seed_differs(tmp_path):
    base = ["train", "categorical", "--method", "sparse",
            "--epochs", "2", "--n", "32"]
    first = _run_train(tmp_path, "a.csv", base + ["--seed", "1"])
    second = _run_train(tmp_path, "b.csv", base + ["--seed", "2"])
    assert first.read_bytes() != second.read_bytes()


def test_train_budget_support_column_bounded(tmp_path):
    out = _run_train(tmp_path, "vae.csv",
                     ["train", "bitvec", "--method", "sparsemap_budget",
                      "--budget", "4", "--d", "8", "--n", "12",
                      "--epochs", "2", "--seed", "0"])
    header, rows = _rows(out)
    col = header.index("support_mean")
    assert all(float(r[col]) <= 9.0 for r in rows)


def test_train_writes_support_max_and_certificate_rate(tmp_path):
    for method, flags in (("topk", ["--k", "4"]), ("sparsemap", [])):
        out = _run_train(tmp_path, method + ".csv",
                         ["train", "bitvec", "--method", method, "--d", "5", "--n", "12",
                          "--epochs", "2", "--seed", "1"] + flags)
        header, rows = _rows(out)
        assert header[-2:] == ["support_max", "cert_frac"]
        for r in rows:
            support_max = int(r[header.index("support_max")])
            assert float(r[header.index("support_mean")]) <= support_max
            cert = r[header.index("cert_frac")]
            if method == "topk":
                assert support_max <= 4
                assert 0.0 <= float(cert) <= 1.0
            else:
                assert support_max <= 6
                assert cert == ""


def test_train_incompatible_method_task_is_usage_error(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["train", "categorical", "--method", "sparsemap",
                 "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("field, argv", [
    ("n", ["categorical", "--method", "sparse", "--n", "0"]),
    ("batch_size", ["categorical", "--method", "sparse", "--batch-size", "0"]),
    ("epochs", ["categorical", "--method", "dense", "--epochs", "-1"]),
    ("k", ["categorical", "--method", "sum_and_sample", "--k", "0"]),
    ("k", ["categorical", "--method", "sum_and_sample", "--k", "16"]),
    ("k", ["bitvec", "--method", "topk", "--k", "0"]),
    ("d", ["bitvec", "--method", "sparsemap", "--d", "0"]),
    ("budget", ["bitvec", "--method", "sparsemap_budget", "--d", "8", "--budget", "9"]),
    ("d", ["bitvec", "--method", "dense", "--d", "13"]),
])
def test_train_bad_size_is_usage_error(tmp_path, capsys, field, argv):
    out = tmp_path / "never.csv"
    assert main(["train"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be " % field)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lr", ["nan", "inf", "-5"])
def test_train_bad_lr_is_usage_error(tmp_path, capsys, lr):
    out = tmp_path / "never.csv"
    assert main(["train", "bitvec", "--method", "topk", "--n", "8", "--epochs", "1",
                 "--lr", lr, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lr must be ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_train_zero_lr_is_valid(tmp_path):
    # A zero step size leaves the model where it is; the benchmark's
    # reference checks train at lr = 0 to read one example's log.
    out = _run_train(tmp_path, "lr0.csv", ["train", "bitvec", "--method", "topk", "--n", "8",
                                           "--epochs", "2", "--lr", "0"])
    _, rows = _rows(out)
    assert rows[0][1] == rows[1][1]  # the loss does not move


def test_train_writes_manifest_sidecar(tmp_path):
    out = _run_train(tmp_path, "cat.csv",
                     ["train", "categorical", "--method", "dense",
                      "--epochs", "1", "--n", "32", "--seed", "5"])
    manifest = json.loads((tmp_path / "cat.csv.manifest.json").read_text())
    assert manifest["task"] == "categorical"
    assert manifest["seed"] == 5
    assert manifest["config"]["method"] == "dense"
    assert manifest["outputs"] == [str(out)]
    assert manifest["diverged"] is False
    assert manifest["started"] <= manifest["finished"]


def test_train_manifest_records_wall_seconds_per_phase(tmp_path):
    out = _run_train(tmp_path, "timed.csv", ["train", "bitvec", "--method", "sparsemap", "--d", "6",
                                             "--n", "16", "--epochs", "3", "--seed", "2"])
    manifest = json.loads((tmp_path / "timed.csv.manifest.json").read_text())
    assert isinstance(manifest["initial_loss_s"], float) and manifest["initial_loss_s"] >= 0.0
    assert len(manifest["epoch_s"]) == len(_rows(out)[1]) == 3
    assert all(isinstance(s, float) and s >= 0.0 for s in manifest["epoch_s"])


def test_train_manifest_isolates_timestamps(tmp_path):
    # Reruns may differ in the manifest timestamps but never in the CSV.
    argv = ["train", "bitvec", "--method", "topk", "--k", "4", "--d", "5",
            "--n", "8", "--epochs", "2", "--seed", "3"]
    first = _run_train(tmp_path, "a.csv", argv)
    second = _run_train(tmp_path, "b.csv", argv)
    assert first.read_bytes() == second.read_bytes()
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert m1["config"] == m2["config"]
    assert m1["initial_loss"] == m2["initial_loss"]
