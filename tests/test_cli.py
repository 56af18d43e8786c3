"""End-to-end command-line coverage: every subcommand plus the exit-code
taxonomy (0 ok, 1 usage, 2 runtime, 3 failed gradient check)."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import bcnn
import bcnn.cli
from bcnn.cli import main
from bcnn.data import CLASS_NAMES, MAX_INPUT_SIZE
from bcnn.train import load_checkpoint

SIZE = 32
PER_CLASS = 6


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(d), "--per-class", str(PER_CLASS),
                 "--size", str(SIZE), "--seed", "5"]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    d = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(corpus_dir), "--size", str(SIZE),
               "--epochs", "2", "--batch", "8", "--seed", "3",
               "--checkpoint", str(d / "model.bcnn"), "--log", str(d / "log.csv")])
    assert rc == 0
    return d


# ---------------------------------------------------------------------------
# synth


def test_synth_layout(corpus_dir):
    for cls in CLASS_NAMES:
        files = sorted(p.name for p in (corpus_dir / cls).iterdir())
        assert files == [f"{cls}_{i:04d}.pgm" for i in range(PER_CLASS)]
    manifest = (corpus_dir / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "path,label,class"
    assert len(manifest) == 1 + 3 * PER_CLASS


def test_synth_is_byte_deterministic(tmp_path):
    args = ["synth", "--per-class", "4", "--size", "32", "--seed", "2", "--out"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rels == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_synth_reports_what_it_wrote(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "c"), "--per-class", "4",
                 "--size", "32"]) == 0
    out = capsys.readouterr().out
    assert "wrote 12 images across 3 classes" in out


# ---------------------------------------------------------------------------
# augment


def test_augment_expands_corpus(tmp_path, corpus_dir, capsys):
    out = tmp_path / "aug"
    assert main(["augment", "--in", str(corpus_dir), "--out", str(out),
                 "--variants", "2", "--seed", "9"]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 54 images (18 originals, 2 variants each)" in stdout
    for cls in CLASS_NAMES:
        assert len(list((out / cls).glob("*.pgm"))) == 3 * PER_CLASS
    assert len((out / "manifest.csv").read_text().splitlines()) == 55


def test_augment_is_byte_deterministic(tmp_path):
    def run(name):
        corpus, out = tmp_path / name / "corpus", tmp_path / name / "aug"
        assert main(["synth", "--per-class", "2", "--size", "32", "--seed", "4",
                     "--out", str(corpus)]) == 0
        assert main(["augment", "--in", str(corpus), "--out", str(out),
                     "--variants", "1", "--seed", "6"]) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    a, b = run("a"), run("b")
    assert sorted(a) == sorted(b)
    for rel in a:
        assert a[rel] == b[rel], rel
    # Each class's files are numbered from 0 in manifest order, five digits wide.
    assert len(a) == 3 * 4 + 1
    assert {"fatigue/fatigue_00000.pgm", "linear/linear_00003.pgm",
            "potholes/potholes_00003.pgm", "manifest.csv"} <= set(a)


def test_augment_rejects_bad_factor_list(tmp_path, corpus_dir):
    assert main(["augment", "--in", str(corpus_dir), "--out", str(tmp_path / "x"),
                 "--scales", "abc"]) == 1


def test_augment_rejects_non_finite_rotations(tmp_path, corpus_dir, capsys):
    for angle in ("inf", "nan", "-inf"):
        out = tmp_path / angle
        assert main(["augment", "--in", str(corpus_dir), "--out", str(out),
                     "--rotations", f"90,{angle}"]) == 1, angle
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval / predict round trip


def test_train_outputs(run_dir, capsys):
    capsys.readouterr()  # fixture prints arrive with the first requesting test
    ckpt = load_checkpoint(run_dir / "model.bcnn")
    assert ckpt.config.input_size == SIZE
    log = (run_dir / "log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(log) == 3


def test_train_prints_epoch_lines(tmp_path, corpus_dir, capsys):
    assert main(["train", "--data", str(corpus_dir), "--size", str(SIZE),
                 "--epochs", "1", "--batch", "8", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "config: command=train" in out.splitlines()[0]
    assert "epoch 1/1: train_loss=" in out
    assert "val_acc=" in out


def test_eval_prints_report(corpus_dir, run_dir, tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(corpus_dir),
                 "--checkpoint", str(run_dir / "model.bcnn"),
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    for cls in CLASS_NAMES:
        assert cls in out
    lines = report.read_text().splitlines()
    assert lines[0] == "class,precision,recall,f1,support"
    assert lines[-1].startswith("accuracy,,,,")


def test_train_eval_predict_are_byte_deterministic(tmp_path, corpus_dir, capsys):
    # The same three invocations, run twice over the same paths, must
    # print the same bytes and write the same checkpoint, log and report.
    ckpt, log, report = tmp_path / "model.bcnn", tmp_path / "log.csv", tmp_path / "report.csv"
    commands = [
        ["train", "--data", str(corpus_dir), "--size", str(SIZE), "--epochs", "2",
         "--batch", "8", "--seed", "4", "--checkpoint", str(ckpt), "--log", str(log)],
        ["eval", "--data", str(corpus_dir), "--checkpoint", str(ckpt), "--report", str(report)],
        ["predict", "--image", str(corpus_dir / "linear" / "linear_0000.pgm"),
         "--checkpoint", str(ckpt)],
    ]
    capsys.readouterr()
    runs = []
    for _ in range(2):
        stdout = []
        for argv in commands:
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        runs.append((stdout, [p.read_bytes() for p in (ckpt, log, report)]))
    assert runs[0] == runs[1]


def test_predict_prints_class_and_probabilities(corpus_dir, run_dir, capsys):
    image = corpus_dir / "fatigue" / "fatigue_0000.pgm"
    assert main(["predict", "--image", str(image),
                 "--checkpoint", str(run_dir / "model.bcnn")]) == 0
    out = capsys.readouterr().out
    class_line = next(l for l in out.splitlines() if l.startswith("class: "))
    assert class_line.removeprefix("class: ") in CLASS_NAMES
    prob_line = next(l for l in out.splitlines() if l.startswith("probabilities: "))
    pairs = prob_line.removeprefix("probabilities: ").split()
    assert [p.split("=")[0] for p in pairs] == list(CLASS_NAMES)
    values = [float(p.split("=")[1]) for p in pairs]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert abs(sum(values) - 1.0) < 1e-3  # 4-decimal rendering


# ---------------------------------------------------------------------------
# repeated calls in one process


def _main_alone(argv):
    """(exit code, stdout) of ``argv`` run as the only call of a fresh process."""
    src = str(Path(bcnn.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "bcnn.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout


def test_repeated_main_calls_match_calls_made_alone(corpus_dir, run_dir, capsys):
    # main keeps one parser for the process; no call may see another's
    # arguments or defaults.
    train = ["train", "--data", str(corpus_dir), "--size", str(SIZE), "--batch", "8"]
    calls = [
        ["train", "--epochs", "x"],
        ["predict", "--image", str(corpus_dir / "potholes" / "potholes_0001.pgm"),
         "--checkpoint", str(run_dir / "model.bcnn")],
        train + ["--epochs", "1", "--optimizer", "sgd", "--split-ratio-alt"],
        train,
    ]
    capsys.readouterr()
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [1, 0, 0, 0]
    config = in_process[3][1].splitlines()[0]
    assert "epochs=15 " in config and "optimizer=adam " in config
    assert "split_ratio_alt=False" in config
    assert in_process == [_main_alone(argv) for argv in calls]


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    class CountingParser(bcnn.cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "bcnn":  # subcommand parsers are named "bcnn <command>"
                built.append(self)

    monkeypatch.setattr(bcnn.cli, "_Parser", CountingParser)
    for _ in range(3):
        assert main(["gradcheck", "--tol", "0"]) == 1
    assert len(built) <= 1  # none when an earlier test already built it


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "config: command=gradcheck seed=0 tol=0.0001"
    assert "fwd1_w:" in out
    assert "max relative error:" in out
    assert "gradient check passed" in out


def test_gradcheck_seed_0_output_is_pinned(capsys):
    # The parameter init, the kink-margin input search and every backward
    # rule all feed these digits.
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (
        "config: command=gradcheck seed=0 tol=0.0001\n"
        "fwd1_b: 3.241e-10\n"
        "fwd1_w: 1.312e-09\n"
        "fwd2_b: 1.462e-08\n"
        "fwd2_w: 2.691e-08\n"
        "head_b: 5.953e-08\n"
        "head_w: 1.445e-07\n"
        "refine1_b: 4.882e-08\n"
        "refine1_w: 1.203e-07\n"
        "max relative error: 1.445e-07 (tolerance 1.0e-04)\n"
        "gradient check passed\n")


def test_gradcheck_fails_at_tiny_tolerance(capsys):
    assert main(["gradcheck", "--tol", "1e-12"]) == 3
    captured = capsys.readouterr()
    assert "gradient check FAILED" in captured.err
    assert "gradient check passed" not in captured.out


def test_gradcheck_rejects_nonpositive_tolerance():
    assert main(["gradcheck", "--tol", "0"]) == 1


# ---------------------------------------------------------------------------
# exit-code taxonomy


def test_usage_errors_exit_1(tmp_path, capsys):
    cases = [
        [],                                                  # no subcommand
        ["shrink"],                                          # unknown subcommand
        ["synth", "--per-class", "3"],                       # missing required
        ["synth", "--out", str(tmp_path), "--per-class", "x"],   # bad int
        ["synth", "--out", str(tmp_path), "--per-class", "3", "--bogus"],
        ["train", "--data", str(tmp_path), "--optimizer", "adagrad"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "usage error:" in capsys.readouterr().err


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "c"), "--per-class", "0"]) == 1
    assert "usage error:" in capsys.readouterr().err
    # exclusivity is checked before the data directory is ever touched
    assert main(["train", "--data", str(tmp_path / "missing"),
                 "--val-ratio", "0.3", "--split-ratio-alt"]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_size_above_the_bound_exits_1(tmp_path, capsys):
    too_big = str(MAX_INPUT_SIZE + 8)
    assert main(["synth", "--out", str(tmp_path / "c"), "--per-class", "1",
                 "--size", too_big]) == 1
    assert "usage error:" in capsys.readouterr().err
    # the model config is checked before the data directory is touched
    assert main(["train", "--data", str(tmp_path / "missing"), "--size", too_big]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_train_rejects_non_finite_lr_exit_1(corpus_dir, capsys):
    for lr in ("inf", "nan"):
        assert main(["train", "--data", str(corpus_dir), "--size", str(SIZE),
                     "--epochs", "1", "--lr", lr]) == 1, lr
        assert "usage error:" in capsys.readouterr().err


def test_runtime_errors_exit_2(tmp_path, corpus_dir, run_dir, capsys):
    assert main(["train", "--data", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err

    junk = tmp_path / "junk.bcnn"
    junk.write_bytes(b"JUNK" + bytes(64))
    assert main(["eval", "--data", str(corpus_dir), "--checkpoint", str(junk)]) == 2

    assert main(["predict", "--image", str(tmp_path / "missing.pgm"),
                 "--checkpoint", str(run_dir / "model.bcnn")]) == 2


def _corpus_with_class(tmp_path, corpus_dir, name):
    """A copy of the corpus whose ``linear`` class directory is named ``name``."""
    copy = tmp_path / "renamed"
    shutil.copytree(corpus_dir, copy)
    (copy / "linear").rename(copy / name)
    return copy


def test_csv_files_hold_a_non_ascii_class_name_as_utf8(tmp_path, corpus_dir, run_dir, capsys):
    data = _corpus_with_class(tmp_path, corpus_dir, "linéaire")
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(data), "--checkpoint", str(run_dir / "model.bcnn"),
                 "--report", str(report)]) == 0
    assert report.read_bytes().decode("utf-8").splitlines()[2].startswith("linéaire,")
    out = tmp_path / "aug"
    assert main(["augment", "--in", str(data), "--out", str(out), "--variants", "1"]) == 0
    rows = (out / "manifest.csv").read_bytes().decode("utf-8").splitlines()
    assert "linéaire/linéaire_00000.pgm,1,linéaire" in rows
    assert all(len(row.split(",")) == 3 for row in rows)


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_a_class_name_a_csv_field_cannot_hold_exits_2_and_writes_nothing(
        tmp_path, corpus_dir, run_dir, capsys, name):
    data = _corpus_with_class(tmp_path, corpus_dir, name)
    out = tmp_path / "aug"
    assert main(["augment", "--in", str(data), "--out", str(out)]) == 2
    assert "CSV field" in capsys.readouterr().err
    assert not out.exists()
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(data), "--checkpoint", str(run_dir / "model.bcnn"),
                 "--report", str(report)]) == 2
    assert "CSV field" in capsys.readouterr().err
    assert not report.exists()


def test_a_class_name_that_is_not_utf8_exits_2_and_writes_nothing(
        tmp_path, corpus_dir, run_dir, capsys):
    # The OS gives a directory name holding the byte 0xff as "\udcff".
    data = _corpus_with_class(tmp_path, corpus_dir, "a\udcffb")
    out, report, ckpt = tmp_path / "aug", tmp_path / "report.csv", tmp_path / "m.bcnn"
    for argv in (["augment", "--in", str(data), "--out", str(out)],
                 ["eval", "--data", str(data), "--checkpoint", str(run_dir / "model.bcnn"),
                  "--report", str(report)],
                 ["train", "--data", str(data), "--epochs", "1", "--size", "32",
                  "--checkpoint", str(ckpt)]):
        assert main(argv) == 2, argv
        assert "not valid UTF-8" in capsys.readouterr().err
    assert not (out.exists() or report.exists() or ckpt.exists())


def test_predict_rejects_corrupt_checkpoint_exit_2(tmp_path, corpus_dir, run_dir, capsys):
    good = (run_dir / "model.bcnn").read_bytes()
    name = good.index(b"fwd1_w")
    bad_name = tmp_path / "bad_name.bcnn"
    bad_name.write_bytes(good[:name] + b"\xff" + good[name + 1:])
    # A 2^21 input size is above MAX_INPUT_SIZE, so the checkpoint does not load.
    huge_size = tmp_path / "huge_size.bcnn"
    huge_size.write_bytes(good[:8] + struct.pack("<I", 2 ** 21) + good[12:])
    image = corpus_dir / "fatigue" / "fatigue_0000.pgm"
    for bad in (bad_name, huge_size):
        for argv in (["predict", "--image", str(image)], ["eval", "--data", str(corpus_dir)]):
            assert main(argv + ["--checkpoint", str(bad)]) == 2
            assert "error:" in capsys.readouterr().err
