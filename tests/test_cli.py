"""CLI: config parsing, commands, exit codes, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from zjkit import architect, cli, errors, linalg, merger, tuner
from zjkit import data as data_mod
from zjkit.checkpoint import from_params, load_checkpoint, save_checkpoint
from zjkit.cli import main, parse_run_config
from zjkit.errors import (
    AmbiguousAssignment,
    ConfigError,
    CorruptCheckpoint,
    DetachedRoot,
    IoError,
    MalformedData,
    NoConvergence,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
    SpecMismatch,
    ZjError,
)
from zjkit.models import MlpSpec, build_model

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
    models = [cli._model_for_eval(spec, plan, load_checkpoint(ck))] * 2
    merger.ensemble(models, ds.x, "prob")
    tuner.accuracy(models[0], ds.x, ds.y)
    assert rows == [120] * 3


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
    seen, train = [], tuner.train
    monkeypatch.setattr(tuner, "train", lambda *a, **k: seen.append(a[5]) or train(*a, **k))
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
    assert sorted(f.name for f in out.iterdir()) == ["final.zjk1", "history.jsonl"]


# -- exit codes ----------------------------------------------------------


EXIT_CODES = [
    (ZjError("x"), 3),  # the base class, never raised itself
    (ParseError(4, {"("}), 2),
    (ConfigError("x"), 3),
    (ShapeMismatch("x"), 3),
    (DetachedRoot("x"), 3),
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
    ("tuner.reg", "spec_norm:1:iters=0", "iters must be >= 1"),
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
])
def test_malformed_train_value_exit_3(tmp_path, capsys, key, value, word):
    text = _with("teacher.weights", _ptm(tmp_path), _with(key, value))
    code = main(["train", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert word in capsys.readouterr().err


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
    assert "cost matrix contains NaN/Inf" in capsys.readouterr().err


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
