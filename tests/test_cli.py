"""CLI: config parsing, commands, exit codes, determinism."""

import dataclasses
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import fixed_or_explored
from zjkit import architect, cli, errors, linalg, merger, tuner
from zjkit import data as data_mod
from zjkit.checkpoint import from_params, load_checkpoint, save_checkpoint
from zjkit.cli import main, parse_run_config
from zjkit.errors import (
    AmbiguousAssignment,
    ConfigError,
    CorruptCheckpoint,
    IoError,
    MalformedData,
    NoConvergence,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
    SpecMismatch,
    ZjError,
)
from zjkit.models import SPECS, MiniVitSpec, MlpSpec, build_model

BASE_CFG = """\
model.kind=mlp
model.widths=2,8,3
data.source=blobs(k=3,d=2,n=120,sigma=0.1)
architect.config='(LinearProbe.adapt):'
tuner.epochs=3
tuner.lr=0.2
tuner.batch_size=16
seed=0
"""


def _cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _with(key, value, text=BASE_CFG):
    """BASE_CFG with one key set, replacing its line if present."""
    lines = [l for l in text.splitlines() if not l.startswith(key + "=")]
    return "\n".join(lines + [f"{key}={value}"]) + "\n"


def _ptm(tmp_path, name="ptm.zjk1"):
    spec = MlpSpec((2, 8, 3))
    path = tmp_path / name
    save_checkpoint(from_params(spec, build_model(spec, seed=5)), path)
    return str(path)


# -- config file ---------------------------------------------------------


def test_parse_run_config_basics():
    cfg = parse_run_config("seed=3\n# comment\n\nmodel.kind=mlp\n")
    assert cfg == {"seed": "3", "model.kind": "mlp"}


def test_parse_run_config_strips_quotes():
    cfg = parse_run_config("architect.config='(BitFit.adapt):'\n")
    assert cfg["architect.config"] == "(BitFit.adapt):"


def test_parse_run_config_rejects_unknown_and_duplicate():
    with pytest.raises(ConfigError):
        parse_run_config("bogus.key=1\n")
    with pytest.raises(ConfigError):
        parse_run_config("seed=1\nseed=2\n")
    with pytest.raises(ConfigError):
        parse_run_config("just a line\n")


def test_parse_terms_fitnet_pairs():
    terms = cli._parse_terms("ce:1,fitnet:0.5:pairs=feature>feature;T=2")
    assert terms[0].kind == "ce"
    assert terms[1].kind == "fitnet"
    assert terms[1].weight == 0.5
    assert terms[1].hooks == (("feature", "feature"),)
    with pytest.raises(ConfigError, match="fitnet has no key 'T'; it reads pairs"):
        tuner.LossSpec(terms)


def test_parse_terms_casts_by_the_record_default():
    (ncm,) = cli._parse_terms("kd_ncm:1:hook=blocks[0].output;tau=2;T=3")
    assert ncm.hyper == (("T", 3.0), ("hook", "blocks[0].output"), ("tau", 2.0))
    (spec_norm,) = cli._parse_terms("spec_norm:1:iters=3")
    assert spec_norm.hyper == (("iters", 3),) and type(spec_norm.hyper[0][1]) is int


# -- plan ----------------------------------------------------------------


def test_plan_prints_table(tmp_path, capsys):
    code = main(["plan", "--config", _cfg(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "linear_probe" in out
    assert "trainable original parameters" in out


@pytest.mark.parametrize("argv,code", [(["inspect", "--ckpt", "missing.zjk1"], 5),
                                       (["plan", "--config", "run.cfg"], 0),
                                       ([], 3),
                                       (["train", "--seed", "x"], 3)],
                         ids=["inspect_missing_ckpt", "plan", "no_command", "seed_not_int"])
def test_python_m_zjkit_exits_with_the_command_code(tmp_path, argv, code):
    _cfg(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "zjkit", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert ("linear_probe" in done.stdout) == (code == 0)


def test_importing_the_cli_loads_no_scipy():
    """scipy is loaded at the first assignment a merge solves, so a command
    that solves none (plan, train, eval, inspect) does not pay its import."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "import sys, zjkit.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_main_runs_again_after_a_usage_error_and_before_help(tmp_path, capsys):
    """One process, one parser: a usage error leaves it able to parse the next
    command line, and ``--help`` still prints and exits 0."""
    assert main(["train", "--seed", "x"]) == 3
    assert "argument --seed" in capsys.readouterr().err
    assert main(["plan", "--config", _cfg(tmp_path)]) == 0
    assert "linear_probe" in capsys.readouterr().out
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert "usage: zjkit" in capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()


def test_plan_counts_the_rows_a_grad_mask_trains(tmp_path, capsys):
    text = ("model.kind=mini_vit\nmodel.dim=8\nmodel.blocks=2\nmodel.heads=2\n"
            "model.mlp_dim=16\nmodel.classes=2\nmodel.seq_len=2\nmodel.input_dim=2\n"
            "architect.config='(BitFit.adapt):'\n")
    assert main(["plan", "--config", _cfg(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    # head 8*2+2, the query rows of two qkv biases 2*8, two fc1 biases 2*16
    assert "trainable original parameters: 66" in out
    assert "frozen original parameters: 1224" in out


def test_plan_malformed_dsl_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.replace("(LinearProbe.adapt):", "(LoRA.adapt)->(x){in}")
    code = main(["plan", "--config", _cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "offset: 12" in err


def test_plan_overflowing_rank_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.replace("(LinearProbe.adapt):", "(LoRA.adapt|r=1e400):->(layers[0]){inout}")
    code = main(["plan", "--config", _cfg(tmp_path, cfg)])
    assert code == 2
    assert "r=inf is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "train"])
@pytest.mark.parametrize("adapt, code, words", [
    ("(LoRA.adapt|r=1e300):->(layers[0]){inout}", 3,  # parses, but cannot be indexed
     ["lora[0].a of shape (1000000000000000052504760255204420248704468581108159154",
      "more elements than an array can index"]),
    ("(LoRA.adapt|alpha=1e400):->(layers[0]){in}", 2, ["alpha=inf is not finite",
                                                       "offset: 12"]),
])
def test_unusable_hyperparameter_exit_code(tmp_path, capsys, command, adapt, code, words):
    cfg = BASE_CFG.replace("(LinearProbe.adapt):", adapt)
    assert main([command, "--config", _cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert all(w in err for w in words)
    assert not (tmp_path / "o" / "final.zjk1").exists()


def test_unknown_key_exit_3(tmp_path, capsys):
    code = main(["plan", "--config", _cfg(tmp_path, BASE_CFG + "no.such=1\n")])
    assert code == 3


# -- train ---------------------------------------------------------------


def _train(tmp_path, out_name, cfg_text=BASE_CFG):
    out = tmp_path / out_name
    code = main(["train", "--config", _cfg(tmp_path, cfg_text),
                 "--out", str(out)])
    assert code == 0
    return out


def test_train_writes_outputs(tmp_path, capsys):
    out = _train(tmp_path, "run1")
    assert (out / "final.zjk1").exists()
    assert (out / "history.jsonl").exists()
    assert (out / "resolved.cfg").exists()
    assert "val_acc=" in capsys.readouterr().out
    rows = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    assert "wall_ms" not in rows[0]


def test_train_deterministic_bytes(tmp_path):
    o1 = _train(tmp_path, "r1")
    o2 = _train(tmp_path, "r2")
    assert (o1 / "final.zjk1").read_bytes() == (o2 / "final.zjk1").read_bytes()
    assert (o1 / "history.jsonl").read_bytes() == (o2 / "history.jsonl").read_bytes()


def test_kd_without_teacher_exit_3(tmp_path, capsys):
    cfg = BASE_CFG + "tuner.loss=ce:1,kd_kl:0.5\n"
    code = main(["train", "--config", _cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_l2sp_without_pretrained_exit_3(tmp_path):
    cfg = BASE_CFG + "tuner.reg=l2_sp:0.1\n"
    code = main(["train", "--config", _cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_missing_config_file_exit_5(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 5


def test_config_that_is_a_directory_exit_5(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 5
    assert f"error: [Errno 21] Is a directory: {str(tmp_path)!r}" in capsys.readouterr().err


def test_config_that_is_not_utf8_exit_3(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(BASE_CFG.encode() + b"# \xff\n")
    assert main(["train", "--config", str(path)]) == 3
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "train", "merge", "eval", "inspect"])
def test_malformed_config_seed_exit_3_for_every_command(tmp_path, capsys, command):
    assert main([command, "--config", _cfg(tmp_path, _with("seed", "x"))]) == 3
    assert "seed: expected int, got 'x'" in capsys.readouterr().err


def test_options_may_come_before_the_command(tmp_path, capsys):
    assert main(["--config", _cfg(tmp_path), "plan"]) == 0
    assert "linear_probe" in capsys.readouterr().out


def test_known_keys_are_the_documented_run_config_keys():
    assert cli.KNOWN_KEYS == {
        "model.kind", "model.widths", "model.activation",
        "model.dim", "model.blocks", "model.heads", "model.mlp_dim",
        "model.classes", "model.seq_len", "model.input_dim",
        "data.source", "architect.config",
        "tuner.loss", "tuner.reg", "tuner.optimizer", "tuner.lr",
        "tuner.momentum", "tuner.weight_decay", "tuner.epochs",
        "tuner.batch_size", "tuner.schedule",
        "teacher.weights",
        "merger.kind", "merger.alpha", "merger.eps", "merger.iters",
        "merger.samples", "merger.sweeps", "merger.ensemble", "merger.lams",
        "pretrained_weights", "seed", "out_dir",
    }


def test_pretrained_weights_is_one_path(tmp_path, capsys):
    text = _with("pretrained_weights", f"{_ptm(tmp_path)},{tmp_path / 'absent.zjk1'}")
    code = main(["train", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 5
    assert "absent.zjk1" in capsys.readouterr().err


# -- merge / eval / inspect ----------------------------------------------


def test_merge_duplicates_and_eval(tmp_path, capsys):
    out = _train(tmp_path, "m")
    ck = str(out / "final.zjk1")
    mo = tmp_path / "merged"
    code = main(["merge", "--config", _cfg(tmp_path), "--out", str(mo),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 0
    assert (mo / "merged.zjk1").exists()
    report = json.loads((mo / "merge_report.json").read_text())
    assert report["recipe"] == "uniform_soup"
    capsys.readouterr()
    code = main(["eval", "--config", _cfg(tmp_path),
                 "--ckpt", str(mo / "merged.zjk1")])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["split"] == "test"


def test_merge_digest_mismatch_exit_4(tmp_path):
    spec_a, spec_b = MlpSpec((2, 8, 3)), MlpSpec((2, 9, 3))
    pa, pb = tmp_path / "a.zjk1", tmp_path / "b.zjk1"
    save_checkpoint(from_params(spec_a, build_model(spec_a)), pa)
    save_checkpoint(from_params(spec_b, build_model(spec_b)), pb)
    code = main(["merge", "--config", _cfg(tmp_path),
                 "--out", str(tmp_path / "o"),
                 "--ckpt", str(pa), "--ckpt", str(pb)])
    assert code == 4


@pytest.mark.parametrize("kind", ["uniform_soup", "wise_ft", "ot_fusion", "git_rebasin"])
def test_merge_of_checkpoints_of_another_model_exit_4(tmp_path, capsys, kind):
    spec = MlpSpec((2, 9, 3))  # the run config's model is 2-8-3
    cks = [tmp_path / "a.zjk1", tmp_path / "b.zjk1"]
    for seed, path in enumerate(cks):
        save_checkpoint(from_params(spec, build_model(spec, seed=seed)), path)
    out = tmp_path / "o"
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.kind", kind)),
                 "--out", str(out), "--ckpt", str(cks[0]), "--ckpt", str(cks[1])])
    assert code == 4
    assert "checkpoint digest does not match model spec" in capsys.readouterr().err
    assert not (out / "merged.zjk1").exists()


SWEEP_CFG = """\
model.kind=mlp
model.widths=2,3,2
data.source=blobs(k=2,d=2,n=40)
"""


def test_every_flipped_bit_of_a_checkpoint_ends_eval_and_merge_with_exit_4_or_5(
        tmp_path, capsys):
    """Bit 0x01 or 0x80 of any one byte of a 2-3-2 MLP checkpoint flipped:
    eval and a merge of the file with itself end with exit 4 (another model)
    or 5 (a corrupt file), and the merge writes no checkpoint."""
    spec = MlpSpec((2, 3, 2))
    good, flipped = tmp_path / "good.zjk1", tmp_path / "flipped.zjk1"
    save_checkpoint(from_params(spec, build_model(spec, seed=1)), good)
    raw = good.read_bytes()
    assert len(raw) == 257
    cfg, out = _cfg(tmp_path, SWEEP_CFG), tmp_path / "o"

    def run(path):
        return (main(["eval", "--config", cfg, "--ckpt", str(path)]),
                main(["merge", "--config", cfg, "--out", str(out),
                      "--ckpt", str(path), "--ckpt", str(path)]))

    assert run(good) == (0, 0)
    (out / "merged.zjk1").unlink()
    escaped = []
    for at in range(len(raw)):
        for bit in (0x01, 0x80):
            blob = bytearray(raw)
            blob[at] ^= bit
            flipped.write_bytes(bytes(blob))
            codes = run(flipped)
            if not set(codes) <= {4, 5} or (out / "merged.zjk1").exists():
                escaped.append((at, bit, codes))
    capsys.readouterr()
    assert escaped == []


@pytest.mark.parametrize("command", ["merge", "eval"])
def test_merge_and_eval_without_a_ckpt_exit_3(tmp_path, capsys, command):
    assert main([command, "--config", _cfg(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert f"error: {command} needs at least one --ckpt" in capsys.readouterr().err


def test_merge_missing_ckpt_exit_5(tmp_path):
    code = main(["merge", "--config", _cfg(tmp_path),
                 "--out", str(tmp_path / "o"),
                 "--ckpt", str(tmp_path / "ghost.zjk1")])
    assert code == 5


@pytest.mark.parametrize("command, kind", [("train", None), ("merge", "fisher"), ("eval", None)])
def test_output_path_that_is_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, kind):
    ck = _ptm(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "_load_dataset", lambda *a: pytest.fail("loaded data"))
    text = _with("merger.kind", kind) if kind else BASE_CFG
    code = main([command, "--config", _cfg(tmp_path, text), "--out", str(taken),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 5
    assert f"output directory {str(taken)!r}" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_malformed_csv_exit_7(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,0\n1,nope,1\n")
    cfg = BASE_CFG.replace("data.source=blobs(k=3,d=2,n=120,sigma=0.1)",
                           f"data.source=csv(path={bad})")
    code = main(["train", "--config", _cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 7


@pytest.mark.parametrize("text, args, code, words", [
    (b"\n1,2,0\n3,4,1\n", "", 7, "row 0: blank"),
    (b"\n\n\n", "", 7, "row 0: blank"),
    (b"1,2,0\n3,4,1\n", ",label_col=5", 3, "label_col 5 outside [-3, 3)"),
    (b"1,2,0\n3,4,1\n", ",label_col=-4", 3, "label_col -4 outside [-3, 3)"),
    (b"a,b,label\n", "", 7, "no data rows"),
    (b"1,2,0\n3,4,\xff\n", "", 7, "not UTF-8 text"),
    (b"nan,2,0\n3,4,1\n", "", 7, "row 0, column 0: non-finite 'nan'"),
    (b"1,2,0\n3,-inf,1\n", "", 7, "row 1, column 1: non-finite '-inf'"),
    (b"x,y,label\n1,2,0\n3,4,inf\n", "", 7, "row 2, column 2: non-finite 'inf'"),
], ids=["blank_first_line", "blank_lines", "label_col_past_the_end",
        "label_col_before_the_start", "header_only", "not_utf8", "nan_feature",
        "minus_inf_feature", "inf_label"])
def test_malformed_csv_ends_typed(tmp_path, capsys, text, args, code, words):
    data = tmp_path / "d.csv"
    data.write_bytes(text)
    cfg = _with("data.source", f"csv(path={data}{args})")
    assert main(["train", "--config", _cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == code
    assert words in capsys.readouterr().err


def test_a_label_past_the_model_in_any_split_exit_3(tmp_path, capsys):
    """Row 10 falls in the test split at seed 0; train checks every label."""
    rows = [f"{i % 3}.5,{i}.25,{i % 3}" for i in range(12)]
    rows[10] = "1.5,10.25,100000"
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = _with("data.source", f"csv(path={data})")
    out = tmp_path / "o"
    assert main(["train", "--config", _cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert "labels must be in [0,3)" in capsys.readouterr().err
    assert not (out / "final.zjk1").exists()


def test_train_on_idx_files(tmp_path, capsys):
    n = 60
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, n, 1, 2) + bytes(range(2 * n)))
    labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n)))
    cfg = _with("data.source", f"idx(images={images},labels={labels})")
    assert main(["train", "--config", _cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert "val_acc=" in capsys.readouterr().out
    assert (tmp_path / "o" / "final.zjk1").exists()


def test_eval_writes_metrics_file(tmp_path, capsys):
    out = _train(tmp_path, "e")
    eo = tmp_path / "evalout"
    code = main(["eval", "--config", _cfg(tmp_path), "--out", str(eo),
                 "--ckpt", str(out / "final.zjk1")])
    assert code == 0
    metrics = json.loads((eo / "metrics.json").read_text())
    assert "per_class_accuracy" in metrics


def test_two_checkpoint_eval_takes_adapter_tensors_from_the_checkpoints(
        tmp_path, capsys, monkeypatch):
    cfg = _with("architect.config", "'(LoRA.adapt):->(layers[0]){inout}'")
    ck = [str(_train(tmp_path, d, cfg) / "final.zjk1") for d in ("l1", "l2")]
    drawn = []
    monkeypatch.setattr(architect, "_init_extras", lambda *a: drawn.append(a))
    code = main(["eval", "--config", _cfg(tmp_path, cfg), "--out", str(tmp_path / "e"),
                 "--ckpt", ck[0], "--ckpt", ck[1]])
    assert code == 0
    assert drawn == []


def test_validation_eval_and_ensembles_reach_the_model_through_predict(
        tmp_path, capsys, monkeypatch):
    predict, forward = architect.AdaptedModel.predict, architect.AdaptedModel.forward
    rows, inside = [], []

    def spy_predict(self, x):
        rows.append(x.shape[0])
        inside.append(self)
        try:
            return predict(self, x)
        finally:
            inside.pop()

    def spy_forward(self, x, capture=()):
        assert inside, "a model forward outside AdaptedModel.predict"
        return forward(self, x, capture)

    monkeypatch.setattr(architect.AdaptedModel, "predict", spy_predict)
    ck = str(_train(tmp_path, "t") / "final.zjk1")
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1)
    n_val, n_test = len(ds.split("val")[1]), len(ds.split("test")[1])
    assert rows == [n_val] * 3  # tuner.accuracy, once per epoch
    monkeypatch.setattr(architect.AdaptedModel, "forward", spy_forward)
    rows.clear()
    assert main(["eval", "--config", _cfg(tmp_path), "--ckpt", ck, "--ckpt", ck]) == 0
    assert rows == [n_test] * 2
    rows.clear()
    spec = MlpSpec((2, 8, 3))
    plan = cli._plan(parse_run_config(BASE_CFG), spec)
    models = [cli._load_model(spec, plan, load_checkpoint(ck))] * 2
    merger.ensemble(models, ds.x, "prob")
    tuner.accuracy(models[0], ds.x, ds.y)
    assert rows == [120] * 3


LORA_CFG = _with("architect.config", "'(LoRA.adapt):->(layers[0]){inout}'")
NO_PLAN_CFG = "".join(l for l in BASE_CFG.splitlines(True) if not l.startswith("architect."))


def _loader_run(tmp_path, route, cfg, ck):
    """``ck`` reaching a model through ``route``: exit code and output files."""
    out = tmp_path / route
    distilled = _with("tuner.loss", "ce,kd_kl:0.5", cfg)
    cfg = {"greedy_soup": _with("merger.kind", "greedy_soup", cfg),
           "teacher.weights": _with("teacher.weights", ck, distilled),
           "pretrained_weights": _with("pretrained_weights", ck, cfg)}.get(route, cfg)
    command = {"eval": ["eval", "--ckpt", ck],
               "greedy_soup": ["merge", "--ckpt", ck, "--ckpt", ck]}.get(route, ["train"])
    code = main([*command, "--config", _cfg(tmp_path, cfg, f"{route}.cfg"), "--out", str(out)])
    return code, sorted(f.name for f in out.iterdir())


ROUTES = ["eval", "greedy_soup", "teacher.weights", "pretrained_weights"]


@pytest.mark.parametrize("route", ROUTES)
def test_a_checkpoint_entry_no_plan_reads_is_a_spec_mismatch(tmp_path, capsys, route):
    """A LoRA run's checkpoint read without the LoRA plan: eval and the greedy
    soup under a config without ``architect.config``, and the teacher and
    pretrained weights, which take the full plan. Each dropped the factors
    and scored the base model; now each exits 4, names them and writes no
    output file."""
    ck = str(_train(tmp_path, "lora", LORA_CFG) / "final.zjk1")
    capsys.readouterr()
    code, written = _loader_run(tmp_path, route, NO_PLAN_CFG, ck)
    assert code == 4
    err = capsys.readouterr().err
    assert "lora[0].a" in err and "2 other entries" in err, err
    assert written == []


@pytest.mark.parametrize("route", ROUTES)
def test_a_checkpoint_the_plan_reads_whole_loads(tmp_path, capsys, route):
    """The same routes on a checkpoint whose every entry the plan reads: the
    LoRA plan for eval and the soup, the spec entries alone for the teacher
    and pretrained weights."""
    ck = _train(tmp_path, "lora", LORA_CFG) / "final.zjk1"
    if route in ("eval", "greedy_soup"):
        cfg = LORA_CFG
    else:
        cfg, lora = NO_PLAN_CFG, load_checkpoint(ck)
        spec_only = lora.with_entries({p: a for p, a in lora.entries.items()
                                       if not p.startswith("lora")})
        ck = tmp_path / "spec_only.zjk1"
        save_checkpoint(spec_only, ck)
    code, written = _loader_run(tmp_path, route, cfg, str(ck))
    assert code == 0, capsys.readouterr().err
    want = {"eval": ["metrics.json"], "greedy_soup": ["merge_report.json", "merged.zjk1"]}
    assert written == sorted(want.get(route, ["final.zjk1", "history.jsonl"]) + ["resolved.cfg"])


def test_model_spec_reads_a_registered_family_by_field_type(monkeypatch):
    """A family registered in ``SPECS`` alone is read from ``model.<field>``:
    ints, strings and comma lists, a field with a default left unset."""

    @dataclasses.dataclass(frozen=True)
    class Toy:
        sizes: tuple
        depth: int
        act: str = "relu"

    monkeypatch.setitem(SPECS, "toy", Toy)
    cfg = {"model.kind": "toy", "model.sizes": "2,5", "model.depth": "3"}
    assert cli._model_spec(cfg) == Toy((2, 5), 3, "relu")
    assert cli._model_spec({**cfg, "model.act": "gelu"}) == Toy((2, 5), 3, "gelu")
    with pytest.raises(ConfigError, match="model.depth: expected int, got None"):
        cli._model_spec({"model.kind": "toy", "model.sizes": "2,5"})
    with pytest.raises(ConfigError, match="model.sizes: expected int, got 'x'"):
        cli._model_spec({**cfg, "model.sizes": "2,x"})


@pytest.mark.parametrize("n_ckpts", [1, 2])
def test_eval_on_zero_rows(tmp_path, capsys, n_ckpts):
    ck = str(_train(tmp_path, "t") / "final.zjk1")
    cfg = _cfg(tmp_path, _with("data.source", "blobs(k=3,d=2,n=0)"), "empty.cfg")
    capsys.readouterr()
    assert main(["eval", "--config", cfg, *["--ckpt", ck] * n_ckpts]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["accuracy"] == 0.0 and metrics["mean_loss"] == 0.0
    assert metrics["n_models"] == n_ckpts


def test_train_config_takes_the_set_tuner_keys_in_their_field_types(tmp_path, monkeypatch):
    seen, epochs = [], tuner.epochs
    monkeypatch.setattr(tuner, "epochs", lambda *a, **k: seen.append(a[5]) or epochs(*a, **k))
    text = _with("tuner.optimizer", "adamw", _with("tuner.weight_decay", "1e-3"))
    _train(tmp_path, "o", text)
    want = tuner.TrainConfig(optimizer="adamw", lr=0.2, weight_decay=0.001, epochs=3,
                             batch_size=16, seed=0)
    assert seen == [want]
    assert [type(getattr(seen[0], f)) for f in ("lr", "epochs", "batch_size")] == \
        [float, int, int]


@pytest.mark.parametrize("trained, word", [
    ("'(LoRA.adapt|r=2):->(layers[0]){inout}'", r"lora[0].a: (2, 2) != (4, 2)"),
    ("'(LinearProbe.adapt):'", "unknown parameter path 'lora[0].a'"),
])
def test_eval_of_a_checkpoint_without_the_plans_tensors_exit_3(tmp_path, capsys, trained,
                                                              word):
    ck = _train(tmp_path, "t", _with("architect.config", trained)) / "final.zjk1"
    cfg = _with("architect.config", "'(LoRA.adapt|r=4):->(layers[0]){inout}'")
    code = main(["eval", "--config", _cfg(tmp_path, cfg), "--out", str(tmp_path / "e"),
                 "--ckpt", str(ck)])
    assert code == 3
    assert word in capsys.readouterr().err


VIT_CFG = """\
model.kind=mini_vit
model.dim=8
model.blocks=2
model.heads=2
model.mlp_dim=16
model.classes=2
model.seq_len=2
model.input_dim=2
data.source=token_xor(n=64,seq=2,d=2,sigma=0.1)
architect.config='(LoRA.adapt):->(blocks[*].attn.qkv){inout}'
tuner.epochs=1
tuner.batch_size=32
seed=0
"""


@pytest.mark.parametrize("loss", [
    "ce,fitnet:1:pairs=blocks[1].output",
    "ce,rkd_dist:1:hook=blocks[0].output",
    "ce,rkd_angle:1:hook=blocks[1].preact",
    "ce,kd_ncm:1:hook=blocks[0].output",
    "ce,fsp:1:pairs=blocks[0].output>blocks[1].output",
])
def test_feature_terms_on_vit_block_hooks_train(tmp_path, capsys, loss):
    spec = cli._model_spec(parse_run_config(VIT_CFG))
    ptm = tmp_path / "ptm.zjk1"
    save_checkpoint(from_params(spec, build_model(spec, seed=5)), ptm)
    text = _with("teacher.weights", str(ptm), _with("tuner.loss", loss, VIT_CFG))
    out = _train(tmp_path, "v", text)
    last = json.loads((out / "history.jsonl").read_text().splitlines()[-1])
    term = loss.split(",")[1].split(":")[0]
    assert np.isfinite(last[term]) and last[term] > 0


@pytest.mark.parametrize("kind", ["git_rebasin", "ot_fusion", "repair"])
def test_alignment_merges_of_mini_vit_checkpoints_exit_0(tmp_path, capsys, kind):
    # they exited 3, "operation defined for mlp models"
    spec = cli._model_spec(parse_run_config(VIT_CFG))
    cks = [str(tmp_path / f"{seed}.zjk1") for seed in (1, 2)]
    for seed, ck in zip((1, 2), cks):
        save_checkpoint(from_params(spec, build_model(spec, seed=seed)), ck)
    out = tmp_path / "o"
    # OT's default eps is absolute, and too small to converge on these costs
    text = _with("merger.eps", "0.1", _with("merger.kind", kind, VIT_CFG))
    code = main(["merge", "--config", _cfg(tmp_path, text),
                 "--out", str(out), "--ckpt", cks[0], "--ckpt", cks[1]])
    assert code == 0, capsys.readouterr().err
    merged = load_checkpoint(out / "merged.zjk1")
    assert merged.kind == "mini_vit" and set(merged.entries) == set(spec.param_shapes())
    assert f"with {kind}" in capsys.readouterr().out


def test_second_prefix_at_one_block_exit_3(tmp_path, capsys):
    cfg = _with("architect.config", "'(Prefix.adapt):->(blocks[0]){inout}->(blocks[0]){inout}'",
                VIT_CFG)
    assert main(["plan", "--config", _cfg(tmp_path, cfg)]) == 3
    assert "prefix twice at 'blocks[0]'" in capsys.readouterr().err


def test_inspect_lists_paths(tmp_path, capsys):
    out = _train(tmp_path, "i")
    code = main(["inspect", "--ckpt", str(out / "final.zjk1")])
    assert code == 0
    text = capsys.readouterr().out
    assert "layers[0].weight" in text
    assert "kind=mlp" in text


def test_inspect_without_a_checkpoint_exit_3(capsys):
    # it printed nothing and exited 0
    assert main(["inspect"]) == 3
    assert capsys.readouterr() == ("", "error: inspect needs at least one --ckpt\n")


def test_wise_ft_endpoint_via_cli(tmp_path):
    out = _train(tmp_path, "w")
    ck = str(out / "final.zjk1")
    mo = tmp_path / "wmerged"
    cfg = BASE_CFG + "merger.kind=wise_ft\nmerger.alpha=1\n"
    code = main(["merge", "--config", _cfg(tmp_path, cfg), "--out", str(mo),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 0
    from zjkit.checkpoint import load_checkpoint
    a = load_checkpoint(ck)
    b = load_checkpoint(mo / "merged.zjk1")
    for p in a.entries:
        assert np.array_equal(a.entries[p], b.entries[p])


def test_corrupt_checkpoint_exit_5(tmp_path, capsys):
    out = _train(tmp_path, "c")
    blob = bytearray((out / "final.zjk1").read_bytes())
    blob[-6] ^= 0xFF  # a payload byte of the last entry; its CRC32 follows
    bad = tmp_path / "bad.zjk1"
    bad.write_bytes(bytes(blob))
    code = main(["eval", "--config", _cfg(tmp_path), "--ckpt", str(bad)])
    assert code == 5
    assert "checksum mismatch" in capsys.readouterr().err


def test_inspect_of_undecodable_checkpoint_exit_5(tmp_path, capsys):
    _ptm(tmp_path)
    blob = bytearray((tmp_path / "ptm.zjk1").read_bytes())
    blob[10] = 0xFF  # first byte of the model kind: not UTF-8
    bad = tmp_path / "bad.zjk1"
    bad.write_bytes(bytes(blob))
    assert main(["inspect", "--ckpt", str(bad)]) == 5
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exit_5(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "history.jsonl").mkdir(parents=True)  # a directory in the file's place
    code = main(["train", "--config", _cfg(tmp_path), "--out", str(out)])
    assert code == 5
    assert "error:" in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == ["history.jsonl", "resolved.cfg"]


DIVERGING_CFG = """\
model.kind=mlp
model.widths=2,32,32,3
data.source=blobs(k=3,d=2,n=300,sigma=0.15)
architect.config='(LoRA.adapt|r=4,alpha=8):->(layers[0]){inout}'
tuner.batch_size=16
tuner.epochs=40
tuner.lr=2
"""


def _epochs_kept(out):
    return [json.loads(line)["epoch"] for line in (out / "history.jsonl").read_text().splitlines()]


def test_a_run_that_diverges_keeps_its_config_and_finished_epochs(tmp_path, capsys):
    """``resolved.cfg`` is written before training and ``history.jsonl`` after
    each epoch, so a run that fails at epoch 1 still names its config, in the
    bytes a finished run writes, and keeps epoch 0's line, in the bytes of
    the same run stopped after one epoch."""
    out, one = tmp_path / "o", tmp_path / "one"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", _cfg(tmp_path, DIVERGING_CFG), "--out", str(out)])
        main(["train", "--config", _cfg(tmp_path, _with("tuner.epochs", "1", DIVERGING_CFG)),
              "--out", str(one)])
    assert code == 6
    assert "NaN or Inf" in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == ["history.jsonl", "resolved.cfg"]
    assert (out / "resolved.cfg").read_text() == cli.render_config(
        parse_run_config(DIVERGING_CFG))
    assert _epochs_kept(out) == [0]
    assert (out / "history.jsonl").read_bytes() == (one / "history.jsonl").read_bytes()


def test_a_trained_entry_past_float32_range_is_exit_6_and_saves_no_checkpoint(tmp_path,
                                                                              capsys):
    """The diverging run's epoch 0 leaves weights past float32's range. The
    checkpoint is refused where it is made, naming the entry, with no numpy
    warning, and the epoch's history stays."""
    out = tmp_path / "o"
    code = main(["train", "--config", _cfg(tmp_path, _with("tuner.epochs", "1", DIVERGING_CFG)),
                 "--out", str(out)])
    assert code == 6
    assert "entry layers[2].weight contains NaN or Inf" in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == ["history.jsonl", "resolved.cfg"]
    assert _epochs_kept(out) == [0]


# -- exit codes ----------------------------------------------------------


EXIT_CODES = [
    (ZjError("x"), 3),  # the base class, never raised itself
    (ParseError(4, {"("}), 2),
    (ConfigError("x"), 3),
    (ShapeMismatch("x"), 3),
    (AmbiguousAssignment("x"), 3),
    (SpecMismatch("x"), 4),
    (IoError("x"), 5),
    (CorruptCheckpoint("x"), 5),
    (FileNotFoundError("x"), 5),
    (NonFiniteValue("x"), 6),
    (NoConvergence("x"), 6),
    (MalformedData("x"), 7),
]


def _raising(exc):
    def site(tmp_path):
        raise exc
    return site


def _file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _flipped_payload(tmp_path):
    blob = bytearray(Path(_ptm(tmp_path)).read_bytes())
    blob[-6] ^= 0xFF  # a payload byte of the last entry; its CRC32 follows
    return _file(tmp_path, "flipped.zjk1", bytes(blob))


# Failures that had a class of their own until it was folded into the class
# that now reports them, raised at their real site; the id is the old name.
FOLDED = {
    "BadMagic": (lambda tmp: data_mod.load_idx(_file(tmp, "img", bytes(16)),
                                               _file(tmp, "lab", bytes(8))),
                 MalformedData, 7),
    "LabelMismatch": (lambda tmp: data_mod.load_csv(_file(tmp, "d.csv", b"1,2,0.5\n")),
                      MalformedData, 7),
    "MalformedCsv": (lambda tmp: data_mod.load_csv(_file(tmp, "d.csv", b"1,2,0\n1,2\n")),
                     MalformedData, 7),
    "ChecksumMismatch": (lambda tmp: load_checkpoint(_flipped_payload(tmp)),
                         CorruptCheckpoint, 5),
    "ConvergenceFailure": (lambda tmp: linalg.thin_svd(np.full((2, 2), np.nan)),
                           NoConvergence, 6),
}


@pytest.mark.parametrize(
    "site, cls, code",
    [(_raising(e), type(e), c) for e, c in EXIT_CODES] + list(FOLDED.values()),
    ids=[type(e).__name__ for e, _ in EXIT_CODES] + list(FOLDED))
def test_exit_code_table(monkeypatch, capsys, tmp_path, site, cls, code):
    with pytest.raises(cls) as info:
        site(tmp_path)
    exc = info.value
    assert type(exc) is cls

    def fail(cfg, args):
        site(tmp_path)

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert main(["inspect"]) == code
    err = capsys.readouterr().err
    assert f"error: {exc}" in err
    assert ("offset: 4" in err) == isinstance(exc, ParseError)


def _readme_exit_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return {int(code): set(re.findall(r"`(\w+)`", text))
            for code, text in re.findall(r"^\| `(\d)` \| (.*) \|$", readme, re.M)}


def _docstring_exit_table(doc):
    """Rows ``    <code>  <text>``, each with its 7-space continuation lines."""
    return {int(code): set(re.findall(r"\b[A-Z][a-z]+[A-Z]\w*", text))
            for code, text in re.findall(r"^    (\d)  (.*(?:\n {7}.*)*)", doc, re.M)}


def test_error_classes_match_the_readme_table():
    """Every error class, and no other, is in each copy of the exit-code
    table, at its code: the README's, the errors module's and the one
    ``zjkit --help`` prints."""
    classes = [errors.ZjError, *errors.ZjError.__subclasses__()]
    assert sorted(c.__name__ for c in classes) == sorted(
        type(e).__name__ for e, _ in EXIT_CODES if isinstance(e, ZjError))
    assert all(not c.__subclasses__() for c in classes[1:])  # one level deep
    tables = {"README.md": _readme_exit_table(),
              "errors.__doc__": _docstring_exit_table(errors.__doc__),
              "cli.__doc__": _docstring_exit_table(cli.__doc__)}
    for name, rows in tables.items():
        for cls in classes[1:]:
            assert cls.__name__ in rows.get(cls.exit_code, ()), (name, cls.__name__)
        # and the table names no class that is gone
        assert set().union(*rows.values()) <= {c.__name__ for c in classes} | {"ValueError"}, name


# -- malformed run-config values -----------------------------------------


@pytest.mark.parametrize("key, value, word", [
    ("tuner.epochs", "two", "tuner.epochs"),
    ("tuner.loss", "ce:x", "ce weight"),
    ("tuner.batch_size", "0", "batch_size"),
    ("data.source", "blobs(n=abc)", "data.source n"),
    ("data.source", "blobs(q=1)", "no argument 'q'"),
    ("data.source", "blobs(n=-5)", "blobs(n=-5)"),
    ("data.source", "blobs(k=0)", "blobs(k=0)"),
    ("data.source", "csv()", "needs path"),
    ("tuner.loss", "ce,fsp:1:pairs=a>b", "unknown hook"),
    ("tuner.loss", "ce,kd_kl:1:T=0", "temperature must be positive"),
    ("tuner.reg", "spec_norm:1:iters=0", "iters 0 is not a positive integer"),
    ("tuner.lr", "nan", "lr must be finite"),
    ("tuner.lr", "inf", "lr must be finite"),
    ("tuner.momentum", "nan", "momentum must be finite"),
    ("tuner.weight_decay", "inf", "weight_decay must be finite"),
    ("tuner.loss", "ce:nan", "ce weight must be finite"),
    ("tuner.loss", "ce,kd_kl:1:T=nan", "kd_kl T must be finite"),
    ("tuner.reg", "l2:inf", "l2 weight must be finite"),
    ("model.widths", "2,99999999999999999999,3", "more elements than an array can index"),
    ("tuner.loss", "ce,kd_kl:1:temp=2", "kd_kl has no key 'temp'; it reads T"),
    ("tuner.loss", "ce,rkd_dist:1:pairs=feature", "rkd_dist has no key 'pairs'; it reads hook"),
    ("tuner.loss", "ce:1:foo=3", "ce has no key 'foo'; it reads no key"),
    ("tuner.reg", "spec_norm:1:iter=3", "spec_norm has no key 'iter'; it reads iters"),
    ("tuner.loss", "ce:1::extra", "term 'ce:1::extra' has more fields than name:weight:keys"),
    ("tuner.reg", "l2:0.1::", "term 'l2:0.1::' has more fields than name:weight:keys"),
    ("data.source", "blobs(spread=inf)", "data.source spread must be finite"),
    ("data.source", "blobs(spread=1e308)", "blobs(spread=1e308)"),
    ("data.source", "token_xor(seq=0)", "token_xor needs seq >= 2 and d >= 2"),
    ("data.source", "token_xor(seq=1)", "token_xor needs seq >= 2 and d >= 2"),
    ("data.source", "token_xor(d=0)", "token_xor needs seq >= 2 and d >= 2"),
    ("data.source", "token_xor(d=1)", "token_xor needs seq >= 2 and d >= 2"),
    ("data.source", "blobs(sigma=nan)", "data.source sigma must be finite"),
    ("data.source", "blobs(sigma=inf)", "data.source sigma must be finite"),
    ("data.source", "moons(noise=nan)", "data.source noise must be finite"),
    ("data.source", "blobs_shifted(delta=inf)", "data.source delta must be finite"),
])
def test_malformed_train_value_exit_3(tmp_path, capsys, key, value, word):
    text = _with("teacher.weights", _ptm(tmp_path), _with(key, value))
    code = main(["train", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert word in capsys.readouterr().err


def test_data_source_past_memory_exit_3(tmp_path, capsys, monkeypatch):
    def blobs(k=3, d=2, n=300, sigma=0.1, seed=0, spread=2.0):
        raise MemoryError  # what numpy raises for blobs(n=99999999999999)
    monkeypatch.setitem(cli._SOURCES, "blobs", blobs)
    out = tmp_path / "o"
    code = main(["train", "--config", _cfg(tmp_path), "--out", str(out)])
    assert code == 3
    assert "data.source 'blobs(k=3,d=2,n=120,sigma=0.1)': out of memory" in capsys.readouterr().err
    assert not (out / "final.zjk1").exists()


def test_train_on_an_empty_train_split_exit_3(tmp_path, capsys):
    text = _with("data.source", "blobs(k=3,d=2,n=1)")
    out = tmp_path / "o"
    assert main(["train", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 3
    assert "train needs a non-empty train split" in capsys.readouterr().err
    assert not (out / "final.zjk1").exists()


def test_data_source_arguments_take_the_type_of_their_default():
    cfg = parse_run_config("data.source=blobs(n=40,spread=2.5,k=4)\n")
    got = cli._load_dataset(cfg, 3)
    want = data_mod.blobs(n=40, spread=2.5, k=4, seed=3)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


@pytest.mark.parametrize("kind, key, value, word", [
    ("wise_ft", "merger.alpha", "half", "merger.alpha"),
    ("wise_ft", "merger.alpha", "2", "alpha 2.0 outside [0,1]"),
    ("repair", "merger.alpha", "-0.5", "alpha -0.5 outside [0,1]"),
    ("fisher", "merger.lams", "-1,1", "nonnegative lambdas with positive sum"),
    ("fisher", "merger.lams", "0,0", "nonnegative lambdas with positive sum"),
    ("fisher", "merger.lams", "1,nan", "need finite nonnegative lambdas"),
    ("fisher", "merger.lams", "1", "1 lambdas for 2 checkpoints"),
])
def test_malformed_merge_value_exit_3(tmp_path, capsys, kind, key, value, word):
    ck = _ptm(tmp_path)
    text = _with(key, value, _with("merger.samples", "16", _with("merger.kind", kind)))
    code = main(["merge", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path / "o"), "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    assert word in capsys.readouterr().err
    assert not (tmp_path / "o" / "merged.zjk1").exists()


def test_unknown_ensemble_mode_exit_3(tmp_path, capsys):
    ck = _ptm(tmp_path)
    code = main(["eval", "--config", _cfg(tmp_path, _with("merger.ensemble", "bogus")),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    assert "unknown ensemble mode 'bogus'" in capsys.readouterr().err


def test_unknown_ensemble_mode_with_one_checkpoint_exit_3(tmp_path, capsys):
    """One model predicts by its own argmax, but the mode is checked all the same."""
    code = main(["eval", "--config", _cfg(tmp_path, _with("merger.ensemble", "bogus")),
                 "--ckpt", _ptm(tmp_path)])
    assert code == 3
    assert "unknown ensemble mode 'bogus'" in capsys.readouterr().err


# -- fisher merge ----------------------------------------------------------


FISHER_CFG = _with("merger.samples", "16", _with("merger.kind", "fisher"))


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_fisher_merge_bad_sample_count_exit_3(tmp_path, capsys, samples):
    ck = _ptm(tmp_path)
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.samples", samples,
                                                           FISHER_CFG)),
                 "--out", str(tmp_path / "o"), "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    assert "merger.samples" in capsys.readouterr().err


def test_fisher_merge_of_adapter_checkpoints_exit_4(tmp_path, capsys):
    lora = _with("architect.config", "'(LoRA.adapt):->(layers[0]){inout}'", FISHER_CFG)
    ck = str(_train(tmp_path, "t", lora) / "final.zjk1")
    capsys.readouterr()
    code = main(["merge", "--config", _cfg(tmp_path, lora), "--out", str(tmp_path / "o"),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 4
    assert "lora[0]" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["git_rebasin", "ot_fusion", "repair"])
def test_alignment_merge_of_adapter_checkpoints_exit_4(tmp_path, capsys, kind):
    # LoRA factors would not move with the permuted or rescaled units
    lora = _with("architect.config", "'(LoRA.adapt):->(layers[0]){inout}'",
                 _with("merger.kind", kind))
    ck = str(_train(tmp_path, "t", lora) / "final.zjk1")
    capsys.readouterr()
    code = main(["merge", "--config", _cfg(tmp_path, lora), "--out", str(tmp_path / "o"),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 4
    assert "lora[0]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "merged.zjk1").exists()


def test_fisher_merge_reports_fisher_mass(tmp_path):
    cks = [_ptm(tmp_path, "a.zjk1"), str(_train(tmp_path, "t") / "final.zjk1")]
    reports = []
    for out in ("o1", "o2"):
        code = main(["merge", "--config", _cfg(tmp_path, FISHER_CFG),
                     "--out", str(tmp_path / out), "--ckpt", cks[0], "--ckpt", cks[1]])
        assert code == 0
        reports.append((tmp_path / out / "merge_report.json").read_bytes())
    assert reports[0] == reports[1]
    mass = json.loads(reports[0])["fisher_mass"]
    spec = MlpSpec((2, 8, 3))
    ds = cli._load_dataset(parse_run_config(FISHER_CFG), 0)
    for i, (ck, got) in enumerate(zip(cks, mass)):
        f = merger.fisher_estimate(spec, load_checkpoint(ck), ds, n_samples=16, seed=i)
        assert got == {p: float(a.sum()) for p, a in f.entries.items()}
        assert set(got) == set(spec.param_shapes())
        assert all(v >= 0 for v in got.values())


# -- OT fusion -------------------------------------------------------------


OT_CFG = _with("merger.kind", "ot_fusion")


@pytest.mark.parametrize("key,value", [("merger.eps", "0"), ("merger.eps", "-1"),
                                       ("merger.eps", "nan"), ("merger.eps", "inf"),
                                       ("merger.iters", "0")])
def test_ot_fusion_bad_eps_or_iters_exit_3(tmp_path, capsys, key, value):
    ck = _ptm(tmp_path)
    code = main(["merge", "--config", _cfg(tmp_path, _with(key, value, OT_CFG)),
                 "--out", str(tmp_path / "o"), "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    assert key in capsys.readouterr().err


def test_ot_fusion_of_a_non_finite_checkpoint_exit_6(tmp_path, capsys):
    ck = load_checkpoint(_ptm(tmp_path))
    ck.entries["layers[0].weight"][3, 1] = np.inf
    save_checkpoint(ck, tmp_path / "inf.zjk1")
    code = main(["merge", "--config", _cfg(tmp_path, OT_CFG), "--out", str(tmp_path / "o"),
                 "--ckpt", _ptm(tmp_path), "--ckpt", str(tmp_path / "inf.zjk1")])
    assert code == 6
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'inf.zjk1'}: entry layers[0].weight contains NaN or Inf\n")
    assert not (tmp_path / "o" / "merged.zjk1").exists()


@pytest.mark.parametrize("kind", ["uniform_soup", "wise_ft"])
def test_a_non_finite_checkpoint_entry_ends_a_merge_with_exit_6(tmp_path, capsys, kind):
    # the entry's checksum is valid: these recipes wrote a NaN merged.zjk1 and
    # exited 0, and only a later eval failed, naming no entry
    ck = str(_train(tmp_path, "t") / "final.zjk1")
    nan = load_checkpoint(ck)
    nan.entries["layers[0].bias"][2] = np.nan
    save_checkpoint(nan, tmp_path / "nan.zjk1")
    capsys.readouterr()
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.kind", kind)),
                 "--out", str(tmp_path / "o"), "--ckpt", ck, "--ckpt", str(tmp_path / "nan.zjk1")])
    assert code == 6
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'nan.zjk1'}: entry layers[0].bias contains NaN or Inf\n")
    assert not (tmp_path / "o" / "merged.zjk1").exists()


def test_repair_prints_its_degenerate_unit_note(tmp_path, capsys):
    # a hidden unit whose weights and bias are zero has no spread to rescale;
    # the note went only to a log that was off by default
    dead = load_checkpoint(_ptm(tmp_path))
    dead.entries["layers[0].weight"][4] = 0.0
    dead.entries["layers[0].bias"][4] = 0.0
    save_checkpoint(dead, tmp_path / "dead.zjk1")
    ck = str(tmp_path / "dead.zjk1")
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.kind", "repair")),
                 "--out", str(tmp_path / "o"), "--ckpt", ck, "--ckpt", ck])
    assert code == 0
    assert capsys.readouterr().err == "layer 0: 1 degenerate units, shift-only\n"


def test_ot_fusion_reports_sinkhorn_per_layer(tmp_path):
    cks = [_ptm(tmp_path, "a.zjk1"), str(_train(tmp_path, "t") / "final.zjk1")]
    reports = []
    for out in ("o1", "o2"):
        code = main(["merge", "--config", _cfg(tmp_path, _with("merger.eps", "0.1", OT_CFG)),
                     "--out", str(tmp_path / out), "--ckpt", cks[0], "--ckpt", cks[1]])
        assert code == 0
        reports.append((tmp_path / out / "merge_report.json").read_bytes())
    assert reports[0] == reports[1]
    _, perm = merger.ot_fuse(*(load_checkpoint(ck) for ck in cks), eps=0.1)
    assert json.loads(reports[0])["sinkhorn"] == perm.stats
    (record,) = perm.stats  # one hidden layer
    assert record["iterations"] >= 1
    assert 0 <= record["marginal_violation"] <= 1e-4
    assert 0 < record["coupling_entropy"] <= np.log(8 * 8)


def test_ot_fusion_of_a_net_with_no_hidden_layer_checks_eps_exit_3(tmp_path, capsys):
    # no unit group reaches Sinkhorn, which was the one check: this exited 0
    spec = MlpSpec((4, 3))
    ck = tmp_path / "a.zjk1"
    save_checkpoint(from_params(spec, build_model(spec)), ck)
    text = _with("merger.eps", "nan", _with("model.widths", "4,3", OT_CFG))
    code = main(["merge", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--ckpt", str(ck), "--ckpt", str(ck)])
    assert code == 3
    assert "eps must be positive and finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "o" / "merged.zjk1").exists()


# -- the align step and the recipe dispatch -----------------------------------


# one task for every run seed: without seed=0 in data.source, --seed redraws the blobs
PAIR_CFG = """\
model.kind=mlp
model.widths=4,16,16,3
data.source=blobs(k=3,d=4,n=200,sigma=1.0,seed=0)
tuner.epochs=2
tuner.batch_size=16
merger.kind=repair
merger.alpha=0.4
"""


def _independent_pair(tmp_path, cfg):
    """Two runs of ``cfg`` from independent initialisations, seeds 3 and 13."""
    cks = []
    for seed in (3, 13):
        assert main(["train", "--config", cfg, "--seed", str(seed),
                     "--out", str(tmp_path / str(seed))]) == 0
        cks.append(str(tmp_path / str(seed) / "final.zjk1"))
    return cks


def _repair_composition(a, b, alpha):
    """weight_match -> permute_model -> wise_ft(a, b', alpha) -> repair toward
    (a, b', 1 - alpha): alpha weights b', as in wise_ft."""
    aligned = merger.permute_model(b, merger.weight_match(a, b)[0])
    calib = data_mod.blobs(k=3, d=4, n=200, sigma=1.0, seed=0).split("train")[0][:256]
    return merger.repair(merger.wise_ft(a, aligned, alpha), (a, aligned, 1.0 - alpha),
                         MlpSpec((4, 16, 16, 3)), calib)


def test_repair_merge_is_the_aligned_library_composition(tmp_path, capsys):
    """The library composition, byte for byte, on two independently
    initialised runs. The CLI used to REPAIR the interpolation of the
    unaligned pair, and then weighted the first checkpoint by alpha."""
    cfg = _cfg(tmp_path, PAIR_CFG)
    cks = _independent_pair(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["merge", "--config", cfg, "--out", str(out),
                 "--ckpt", cks[0], "--ckpt", cks[1]]) == 0
    capsys.readouterr()
    a, b = (load_checkpoint(ck) for ck in cks)
    perm, history = merger.weight_match(a, b)
    assert any(not np.array_equal(m, np.arange(m.size)) for m in perm.maps)
    save_checkpoint(_repair_composition(a, b, 0.4), tmp_path / "want.zjk1")
    assert (out / "merged.zjk1").read_bytes() == (tmp_path / "want.zjk1").read_bytes()
    report = json.loads((out / "merge_report.json").read_text())
    assert report["permutation"] == merger.permutation_summary(perm)
    assert report["objective"] == history


def test_merger_alpha_weights_the_second_checkpoint_in_wise_ft_and_repair(tmp_path, capsys):
    """At alpha 0.3 ``wise_ft`` gives 0.7 a + 0.3 b, and ``repair`` the
    composition that interpolates a and b' the same way."""
    cks = _independent_pair(tmp_path, _cfg(tmp_path, PAIR_CFG))
    a, b = (load_checkpoint(ck) for ck in cks)
    want = {"wise_ft": merger.wise_ft(a, b, 0.3), "repair": _repair_composition(a, b, 0.3)}
    for kind, ckpt in want.items():
        cfg = _cfg(tmp_path, _with("merger.kind", kind, _with("merger.alpha", "0.3", PAIR_CFG)),
                   name=f"{kind}.cfg")
        assert main(["merge", "--config", cfg, "--out", str(tmp_path / kind),
                     "--ckpt", cks[0], "--ckpt", cks[1]]) == 0
        save_checkpoint(ckpt, tmp_path / f"{kind}.zjk1")
        got = (tmp_path / kind / "merged.zjk1").read_bytes()
        assert got == (tmp_path / f"{kind}.zjk1").read_bytes(), kind
    capsys.readouterr()


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind", ["wise_ft", "ot_fusion", "git_rebasin", "repair"])
def test_a_two_checkpoint_recipe_of_one_or_three_exit_3(tmp_path, capsys, kind, n):
    ck = _ptm(tmp_path)
    out = tmp_path / "o"
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.kind", kind)),
                 "--out", str(out), *["--ckpt", ck] * n])
    assert code == 3
    assert f"error: {kind} needs exactly two checkpoints" in capsys.readouterr().err
    assert not (out / "merged.zjk1").exists()


@pytest.mark.parametrize("n", [1, 2])
def test_an_unknown_merger_kind_exit_3(tmp_path, capsys, n):
    ck = _ptm(tmp_path)
    out = tmp_path / "o"
    code = main(["merge", "--config", _cfg(tmp_path, _with("merger.kind", "bogus")),
                 "--out", str(out), *["--ckpt", ck] * n])
    assert code == 3
    assert capsys.readouterr().err == "error: unknown merger.kind 'bogus'\n"
    assert not (out / "merged.zjk1").exists()


def _bad_merger_values():
    """(kind, key, value, message) for each key each recipe reads: a value that
    is not of the default's type, and an alpha outside [0, 1]."""
    for kind, recipe in merger.RECIPES.items():
        for key, default in recipe.keys.items():
            cast = "float" if isinstance(default, tuple) else type(default).__name__
            yield kind, key, "abc", f"merger.{key}: expected {cast}, got 'abc'"
            if key == "alpha":
                yield kind, key, "2", "merger.alpha 2.0 outside [0,1]"


@pytest.mark.parametrize("kind, key, value, words", list(_bad_merger_values()))
def test_a_bad_merger_value_fails_before_any_alignment_or_data_load(
        tmp_path, capsys, monkeypatch, kind, key, value, words):
    """Every key the recipe reads is cast before the run loads data or aligns,
    so its message carries no prefix of the run's merger settings."""
    for module, name in ((cli, "_load_dataset"), (merger, "weight_match"),
                         (merger, "ot_align"), (merger, "fisher_estimate")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("ran past the casts"))
    ck = _ptm(tmp_path)
    text = _with(f"merger.{key}", value, _with("merger.kind", kind))
    code = main(["merge", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    assert capsys.readouterr().err == f"error: {words}\n"


@pytest.mark.parametrize("kind, key, value, words", [
    ("fisher", "data.source", "nope()", "unknown data source 'nope'"),
    ("repair", "data.source", "blobs(sigma=nan)", "data.source sigma must be finite, got nan"),
    ("greedy_soup", "architect.config", "'(LoRA.adapt):->(layers[7]){inout}'", "layers[7]"),
    # the full fine-tunes hold no LoRA factors for the plan, as under zjkit eval
    ("greedy_soup", "architect.config", "'(LoRA.adapt):->(layers[0]){inout}'",
     "unknown parameter path 'lora[0].a'"),
])
def test_a_data_or_plan_error_is_not_prefixed_with_merger_settings(
        tmp_path, capsys, kind, key, value, words):
    ck = _ptm(tmp_path)
    text = _with(key, value, _with("merger.samples", "16", _with("merger.kind", kind)))
    code = main(["merge", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--ckpt", ck, "--ckpt", ck])
    assert code == 3
    err = capsys.readouterr().err
    assert words in err and "merger." not in err


def test_a_recipe_registered_in_recipes_merges_with_no_cli_edit(tmp_path, capsys, monkeypatch):
    """A recipe registered in ``merger.RECIPES`` alone merges through
    ``zjkit merge``: its keys are cast, its data loaded and its pair rule
    applied, as ``SPECS`` does for a model family."""

    def combine(ckpts, run):
        run.report["train_rows"] = len(run.data.split("train")[1])
        return merger.wise_ft(*ckpts, run.alpha)

    monkeypatch.setitem(merger.RECIPES, "toy", merger.Recipe(
        combine, keys={"alpha": 0.5}, pair=True, data=True))
    cks = [_ptm(tmp_path, "a.zjk1"), str(_train(tmp_path, "t") / "final.zjk1")]
    text = _with("merger.alpha", "0.25", _with("merger.kind", "toy"))
    out = tmp_path / "o"
    assert main(["merge", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--ckpt", cks[0], "--ckpt", cks[1]]) == 0
    save_checkpoint(merger.wise_ft(*(load_checkpoint(ck) for ck in cks), 0.25),
                    tmp_path / "want.zjk1")
    assert (out / "merged.zjk1").read_bytes() == (tmp_path / "want.zjk1").read_bytes()
    report = json.loads((out / "merge_report.json").read_text())
    assert report["recipe"] == "toy" and report["train_rows"] > 0
    capsys.readouterr()
    assert main(["merge", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "one"),
                 "--ckpt", cks[0]]) == 3
    assert capsys.readouterr().err == "error: toy needs exactly two checkpoints\n"
    monkeypatch.setattr(cli, "_load_dataset", lambda *a: pytest.fail("loaded data"))
    assert main(["merge", "--config", _cfg(tmp_path, _with("merger.alpha", "2", text)),
                 "--out", str(tmp_path / "two"), "--ckpt", cks[0], "--ckpt", cks[1]]) == 3
    assert capsys.readouterr().err == "error: merger.alpha 2.0 outside [0,1]\n"


def test_each_recipe_key_defaults_to_the_library_parameter_it_feeds():
    """``zjkit merge`` passes every key a recipe reads, so an unset key must
    give what the library function gives when its argument is left out."""
    feeds = {"eps": (merger.ot_align, "eps"), "iters": (merger.ot_align, "iters"),
             "sweeps": (merger.weight_match, "max_sweeps"),
             "samples": (merger.fisher_estimate, "n_samples")}
    checked = set()
    for kind, recipe in merger.RECIPES.items():
        for key in recipe.keys.keys() & feeds.keys():
            fn, param = feeds[key]
            assert recipe.keys[key] == inspect.signature(fn).parameters[param].default, kind
            checked.add(kind)
    assert checked == {"fisher", "ot_fusion", "git_rebasin", "repair"}


# -- run-config fuzz ------------------------------------------------------

# bad or odd values for any key; keys that size the work take FUZZ_SMALL only,
# so no example starts a long run or a large allocation
FUZZ_TEXT = ["", "0", "1", "2", "-1", "0.5", "-0.5", "1e308", "-1e308", "nan", "inf",
             "-inf", "99999999999999999999", "-99999999999999999999", "abc", "1,2", "2,,3",
             "(", ")", "=", ":", ";", ">", "+", "'", "\u00e9", "1:2:3"]
FUZZ_SMALL = ["", "0", "1", "2", "-1", "0.5", "nan", "inf", "abc", "1,2",
              "-99999999999999999999"]
SIZING_KEYS = {"tuner.epochs", "merger.iters", "merger.sweeps", "merger.samples",
               *(k for k in cli.KNOWN_KEYS if k.startswith("model."))}
SIZING_ARGS = {"n", "k", "d", "seq", "iters"}  # data.source and term arguments
# the keys an MLP run reads: the mini-ViT's model keys are left out
FUZZ_KEYS = sorted(cli.KNOWN_KEYS - {f"model.{f.name}" for f in dataclasses.fields(MiniVitSpec)})
RECIPES = list(merger.RECIPES)


def _small_or_any(key):
    return st.sampled_from(FUZZ_SMALL if key in SIZING_ARGS else FUZZ_TEXT)


@st.composite
def _fuzz_source(draw):
    """A data.source call: a known source or not, with up to two arguments."""
    name = draw(st.sampled_from(sorted(cli._SOURCES) + ["nope"]))
    keys = list(inspect.signature(cli._SOURCES[name]).parameters) if name in cli._SOURCES else []
    args = draw(st.lists(st.sampled_from(keys + ["bogus"]), max_size=2, unique=True))
    return f"{name}({','.join(f'{k}={draw(_small_or_any(k))}' for k in args)})"


@st.composite
def _fuzz_terms(draw):
    """ce plus one term of any kind, with a drawn weight and one key."""
    kind = draw(st.sampled_from(sorted(tuner.TERMS) + ["bogus"]))
    key = draw(st.sampled_from(list(tuner.TERMS[kind].defaults if kind in tuner.TERMS else ())
                               + ["bogus"]))
    return f"ce,{kind}:{draw(st.sampled_from(FUZZ_TEXT))}:{key}={draw(_small_or_any(key))}"


@st.composite
def _fuzz_value(draw, key):
    if key in SIZING_KEYS:
        return draw(st.sampled_from(FUZZ_SMALL))
    if key == "data.source":
        return draw(st.one_of(_fuzz_source(), st.sampled_from(FUZZ_TEXT)))
    if key in ("tuner.loss", "tuner.reg"):
        return draw(st.one_of(_fuzz_terms(), st.sampled_from(FUZZ_TEXT)))
    return draw(st.sampled_from(FUZZ_TEXT))


@st.composite
def _fuzz_case(draw):
    command = draw(st.sampled_from(["plan", "train", "merge", "eval"]))
    recipe = draw(st.sampled_from(RECIPES))
    key = draw(st.sampled_from(FUZZ_KEYS))
    return command, recipe, key, draw(_fuzz_value(key))


@pytest.fixture(scope="module")
def fuzz_ptm(tmp_path_factory):
    return _ptm(tmp_path_factory.mktemp("fuzz"))


# some drawn values overflow a float64 op, which numpy warns of (ROADMAP item 1):
# reported here, not raised as the other tests raise a RuntimeWarning
@pytest.mark.filterwarnings("default::RuntimeWarning")
@fixed_or_explored(200)
@given(_fuzz_case())
@example(("train", "uniform_soup", "data.source", "blobs(spread=inf)"))
@example(("train", "uniform_soup", "data.source", "blobs(spread=1e308)"))
@example(("train", "uniform_soup", "data.source", "token_xor(seq=0)"))
@example(("train", "uniform_soup", "data.source", "token_xor(seq=1)"))
@example(("train", "uniform_soup", "data.source", "token_xor(d=0)"))
@example(("train", "uniform_soup", "data.source", "token_xor(d=1)"))
@example(("train", "uniform_soup", "data.source", "blobs(sigma=nan)"))
@example(("train", "uniform_soup", "data.source", "moons(noise=nan)"))
@example(("train", "uniform_soup", "data.source", "blobs_shifted(delta=inf)"))
def test_a_bad_run_config_value_ends_with_a_documented_exit_code(fuzz_ptm, case):
    """One run-config key of plan, train, merge (under each recipe) or eval
    set to a bad value: the command returns a documented exit code and
    raises nothing."""
    command, recipe, key, value = case
    text = _with(key, value, _with("merger.kind", recipe,
                                   _with("teacher.weights", fuzz_ptm)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # an out_dir value is a directory under it
        cfg = _cfg(Path(tmp), text)
        argv = [command, "--config", cfg]
        if command in ("merge", "eval"):
            argv += ["--ckpt", fuzz_ptm, "--ckpt", fuzz_ptm]
        code = main(argv)
    assert code in (0, 2, 3, 4, 5, 6, 7), (case, code)
