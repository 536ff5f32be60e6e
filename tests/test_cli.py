"""End-to-end CLI runs against the bundled sample data."""

import csv
import gc
import hashlib
import importlib
import inspect
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from scoreline import cli, ingest, regress
from scoreline.cli import data_fingerprint, main
from scoreline.features import APPROACHES, SIDES, FeatureBuilder
from scoreline.regress import workers
from scoreline.schema import default_schema

from conftest import SAMPLE_DIR
from helpers import assert_no_child_left, forest_children_fail, nested_tree, open_fd_count


def run(*argv):
    return main([str(a) for a in argv])


def base_args(out_dir):
    return ["--data-dir", SAMPLE_DIR, "--test-size", 8, "--out-dir", out_dir]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------------- train


def test_train_writes_artifacts(tmp_path):
    code = run("train", *base_args(tmp_path), "--approach", "lineup_stats",
               "--technique", "svr", "--svr-max-iter", 2000)
    assert code == 0
    for name in ("model_home.json", "model_away.json", "train_manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "train_manifest.json").read_text())
    assert manifest["label"] == "lineup_stats+svr"
    assert manifest["feature_count"] == 52
    assert manifest["seed"] == 0
    assert manifest["config_hash"]
    assert manifest["data_fingerprint"]
    assert "svr_status" in manifest


def test_train_rerun_byte_identical(tmp_path, monkeypatch):
    args = ("train", *base_args(tmp_path), "--approach", "team_stats",
            "--technique", "rfr", "--forest-trees", 10, "--seed", 7)
    assert run(*args) == 0
    names = ("model_home.json", "model_away.json", "train_manifest.json")
    first = {n: (tmp_path / n).read_bytes() for n in names}
    # the two fits spread over one group per usable CPU; the artifacts
    # must not depend on how many there are
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        assert run(*args) == 0
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n], (cpus, n)


# sha256 of model_home.json and model_away.json from train on the sample
# league (test 8), for the tree fits that draw no feature subsets. Their
# node arrays, numbering included, are those of the depth-first grower that
# level-by-level growth replaced.
UNDRAWN_TREE_SHA256 = {
    ("players", "dtr"): ("c48ad5a4670d0f601c0d57c3d8dfde56eb93d02433ec7fdcfeafd19cdfba6d31",
                         "da92c3dfa9a39d364aaa2111022868734ef8a1fe0d04e5d93c1c896c6eda6f51"),
    ("players", "all"): ("ffc2655442242a33ec69e890df3bd3560958ed075f47ca6fb96a5060e2f83166",
                         "a8eaa780df846d71e907ac4fa1dd9eacd3af108c35da4427969ee4b4ec82fb4a"),
    ("players", "all-no-bootstrap"): (
        "d10dfacef90de5752145511096e8a0482a92e8c0b629f842050bb5213015f86a",
        "42c94536e298f133b45bd0d023ce8318cd516f77a01b097d83a1c86ac0cee35d"),
    ("lineup_stats", "dtr"): ("ce1c2fa457828350f343ac87d2d16b69d99e9ca9166a4f46ae09e14dd76e1ee5",
                              "95b2d7c0ecb0283cc1557eead86706245d7ba7fce3eb577d3420d0bef7e33469"),
    ("lineup_stats", "all"): ("4215ff0c14b7bd48a28763970e024eeaad8217fa7f45fbf85f40cbd1dc3760c9",
                              "196baff9ccc247c762ba5d3711847d1110e5ea9321f4201764be165f2c497788"),
    ("lineup_stats", "all-no-bootstrap"): (
        "8d24842a00c21c88586b39f0801a16fb656cb41cdeecea1a174c4a89419432c9",
        "dc86d0110b3453e4f6a61ce1cda593d0c4194fe9864dd2302cb4da79019ba68c"),
    ("team_stats", "dtr"): ("7df8e4c6983ce6d1055e3403403db8b1306e9cc57c100881187371f31d1369dc",
                            "791d11520adfeeea063fe161788aaa1e7d76e78c6edc3943325879957c64a738"),
    ("team_stats", "all"): ("205a7e72cc67d5ce84589c15e344e8a044847b147c859ef50d6ca3b2460cc37b",
                            "e23bb601bd4f025886588da274eda3174c84fb1ef52b6ddcc84d3742dc0ed497"),
    ("team_stats", "all-no-bootstrap"): (
        "98fec1826b4cb88f7e91057474d72c3d2bedd68bfb2659575df31608330f3004",
        "ea0fe102de84d5f50204e0f0c37f88f8ec07f57ca2b37056efdc10e1ee2c4563"),
}
UNDRAWN_TREE_FLAGS = {"dtr": ["--technique", "dtr"],
                      "all": ["--technique", "rfr", "--forest-features", "all"],
                      "all-no-bootstrap": ["--technique", "rfr", "--forest-features", "all",
                                           "--forest-no-bootstrap"]}


@pytest.mark.parametrize("approach, fit", sorted(UNDRAWN_TREE_SHA256))
def test_trees_that_draw_nothing_keep_their_bytes(tmp_path, approach, fit):
    assert run("train", *base_args(tmp_path), "--approach", approach,
               *UNDRAWN_TREE_FLAGS[fit]) == 0
    assert tuple(hashlib.sha256((tmp_path / f"model_{side}.json").read_bytes()).hexdigest()
                 for side in SIDES) == UNDRAWN_TREE_SHA256[approach, fit]


def test_data_fingerprint_is_sha256_over_whole_files():
    sha = hashlib.sha256()
    for name in ("fixtures.csv", "player_stats.csv", "odds.csv"):
        sha.update(name.encode())
        sha.update((SAMPLE_DIR / name).read_bytes())
    assert data_fingerprint(SAMPLE_DIR) == sha.hexdigest()[:16]


def test_train_usage_errors(tmp_path):
    # argparse rejects unknown choices itself
    with pytest.raises(SystemExit) as exc:
        run("train", *base_args(tmp_path), "--approach", "bogus",
            "--technique", "lr")
    assert exc.value.code == 2
    # resolved-config problems come back as exit 2
    assert run("train", *base_args(tmp_path), "--approach", "players") == 2
    assert run("train", *base_args(tmp_path), "--approach", "players",
               "--technique", "lr", "--model", "home-win") == 2
    assert run("train", "--approach", "players", "--technique", "lr",
               "--out-dir", tmp_path, "--test-size", 8) == 2  # no data_dir


def test_bad_data_dir_returns_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("train", "--data-dir", empty, "--test-size", 8,
               "--out-dir", tmp_path, "--approach", "players",
               "--technique", "lr") == 1


def _schema_with_first_name(name) -> str:
    schema = default_schema()
    raw = {"offensive": {g: list(v) for g, v in schema.offensive.items()},
           "defensive": {g: list(v) for g, v in schema.defensive.items()}}
    raw["offensive"]["DF"][0] = name
    return json.dumps(raw)


MALFORMED_SCHEMAS = {
    "integer name": (_schema_with_first_name(5), "offensive DF must be a list of non-empty"),
    "list name": (_schema_with_first_name(["xG"]), "offensive DF must be a list of non-empty"),
    "too deep": ("[" * 200_000, "is not valid JSON"),
    "top-level list": ("[1, 2]", "top level must be a JSON object, not list"),
}


@pytest.mark.parametrize("command", [["train", "--approach", "team_stats", "--technique", "lr"],
                                     ["evaluate", "--model", "home-win"]], ids=lambda c: c[0])
@pytest.mark.parametrize("case", MALFORMED_SCHEMAS)
def test_malformed_schema_returns_1(tmp_path, capsys, case, command):
    """A --schema file that is not an object of lists of stat names, or
    not parseable JSON, is one "error:" line naming the file: exit 1."""
    text, reason = MALFORMED_SCHEMAS[case]
    path = tmp_path / "schema.json"
    path.write_text(text, encoding="utf-8")
    assert run(*command, *base_args(tmp_path / "out"), "--schema", path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema file {path}") and err.count("\n") == 1, err
    assert reason in err, err


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open files in /proc")
@pytest.mark.parametrize("how", ["exits", "killed"])
def test_dead_forest_worker_returns_1(tmp_path, monkeypatch, capsys, how):
    open_fds = open_fd_count()
    forest_children_fail(monkeypatch, how)
    assert run("train", *base_args(tmp_path), "--approach", "team_stats",
               "--technique", "rfr", "--forest-trees", 6) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: worker process ") and err.count("\n") == 1, err
    assert "before sending its result" in err
    assert_no_child_left(open_fds)


def test_default_test_size_exceeds_sample_returns_1(tmp_path):
    # default holds out 100 fixtures; the sample has only 40
    assert run("train", "--data-dir", SAMPLE_DIR, "--out-dir", tmp_path,
               "--approach", "players", "--technique", "lr") == 1


def test_config_file_with_cli_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# sample run\n"
        f"data_dir = {SAMPLE_DIR}\n"
        "test_size = 8\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "approach = team_stats\n"
        "technique = knn\n"
        "knn_k = 3\n",
        encoding="utf-8")
    assert run("train", "--config", conf) == 0
    manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
    assert manifest["config"]["knn_k"] == 3

    # a CLI flag beats the file
    assert run("train", "--config", conf, "--knn-k", 7) == 0
    manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
    assert manifest["config"]["knn_k"] == 7

    # a byte order mark before the first line is not part of it
    conf.write_bytes(b"\xef\xbb\xbf" + conf.read_bytes())
    assert run("train", "--config", conf) == 0
    manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
    assert manifest["config"]["knn_k"] == 3


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.conf"
    bad_key.write_text("knn_q = 3\n", encoding="utf-8")
    assert run("train", "--config", bad_key) == 2
    bad_value = tmp_path / "value.conf"
    bad_value.write_text("test_size = often\n", encoding="utf-8")
    assert run("train", "--config", bad_value) == 2
    no_equals = tmp_path / "plain.conf"
    no_equals.write_text("just words\n", encoding="utf-8")
    assert run("train", "--config", no_equals) == 2
    assert run("train", "--config", tmp_path / "absent.conf") == 2
    # a file that is not UTF-8 is a usage error naming it
    undecodable = tmp_path / "latin.conf"
    undecodable.write_bytes(b"seed = 1 \xff\n")
    capsys.readouterr()
    assert run("train", "--config", undecodable) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config file {undecodable}: "), err
    # an unreadable boolean, keyword-or-number or number names its file and line
    for key, text in (("forest_bootstrap", "maybe"), ("forest_features", "abc"),
                      ("svr_gamma", "wide")):
        conf = tmp_path / f"{key}.conf"
        conf.write_text(f"{key} = {text}\n", encoding="utf-8")
        assert run("train", "--config", conf) == 2
        assert capsys.readouterr().err == f"usage error: {conf}:1: bad value for {key}: {text!r}\n"


WORDS_TEXTS = (
    [("forest_features", text) for text in ("sqrt", "all", "7", "+7", "7.0", "0", "abc",
                                            " sqrt", "all ", " 7 ")]
    + [("svr_gamma", text) for text in ("scale", "1", "0.5", "1e-300", "-0.5", "nan", "inf",
                                        "wide", " scale", "0.5 ")]
    + [("approach", text) for text in ("team_stats", " team_stats", "lineup_stats ")])


@pytest.mark.parametrize("key, text", WORDS_TEXTS, ids=[f"{k}={t}" for k, t in WORDS_TEXTS])
def test_words_setting_reads_alike_from_flag_and_config(tmp_path, key, text):
    """A setting that takes a keyword or a number, or one of a set of
    choices, resolves a text to the same type and value, or rejects it,
    whether given as a flag or as a config line: the type enters the config
    hash, so 1 and 1.0 differ, and surrounding spaces are dropped both ways."""
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {text}\n", encoding="utf-8")
    option = cli.SETTINGS[key].option
    outcomes = []
    for argv in ([f"{option}={text}"], ["--config", str(conf)]):
        args = cli.build_parser().parse_args(["train", *argv])
        try:
            value = getattr(cli.resolve_config(args), key)
        except cli.UsageError:
            outcomes.append("rejected")
        else:
            outcomes.append((type(value), value))
    assert outcomes[0] == outcomes[1], outcomes
    # forest_features takes an int and svr_gamma a float, as their defaults' engines do
    assert outcomes[0] == {"7": (int, 7), "1": (float, 1.0)}.get(text, outcomes[0])


def test_every_setting_default_is_its_engine_default():
    """A hyperparameter's default is spelled twice: in its Setting and as
    the keyword default of each engine fit it feeds. The two agree, in
    value and type, for every technique the setting feeds."""
    checked = []
    for technique, (engine, _fixed) in cli.TECHNIQUE_ENGINES.items():
        params = inspect.signature(regress._FITS[engine]).parameters
        for setting in cli.SETTINGS.values():
            if technique in setting.engine:
                default = params[setting.engine[technique]].default
                assert (type(setting.default), setting.default) == (type(default), default), \
                    (technique, setting.name)
                checked.append((technique, setting.name))
    # every technique a setting feeds is one the CLI offers
    assert len(checked) == sum(len(s.engine) for s in cli.SETTINGS.values()) > 0


def test_hyperparameter_validation_returns_2(tmp_path):
    assert run("train", *base_args(tmp_path), "--approach", "players",
               "--technique", "knn", "--knn-k", 0) == 2
    assert run("train", *base_args(tmp_path), "--approach", "players",
               "--technique", "rfr", "--forest-fraction", 1.5) == 2
    assert run("train", *base_args(tmp_path), "--approach", "players",
               "--technique", "svr", "--svr-c", -1.0) == 2
    bad = [(key, "nan") for key in ("stake", "forest_fraction", "svr_c",
                                    "svr_epsilon", "svr_tol")]
    bad += [("svr_c", "inf"), ("svr_tol", "-1"),
            ("svr_gamma", "abc"), ("svr_gamma", "-0.5"), ("svr_gamma", "nan"),
            ("forest_features", "abc"), ("forest_features", "0"), ("seed", "-1")]
    for key, value in bad:
        flag = "--" + key.replace("_", "-")
        # train does not read the stake, so its flag goes through bet
        command = (("bet", "--model", "home-win") if key == "stake"
                   else ("train", "--approach", "players", "--technique", "svr"))
        assert run(*command, *base_args(tmp_path), flag, value) == 2, (flag, value)
        conf = tmp_path / f"{key}.conf"
        conf.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert run("train", *base_args(tmp_path), "--approach", "players",
                   "--technique", "svr", "--config", conf) == 2, (key, value)
    # the linear SVR's step size is gone with its subgradient solver
    with pytest.raises(SystemExit) as exc:
        run("train", *base_args(tmp_path), "--approach", "players",
            "--technique", "svr", "--svr-lr", 0.5)
    assert exc.value.code == 2
    conf = tmp_path / "svr_lr.conf"
    conf.write_text("svr_lr = 0.5\n", encoding="utf-8")
    assert run("train", *base_args(tmp_path), "--approach", "players",
               "--technique", "svr", "--config", conf) == 2


RESOLVED_DEFAULTS = {
    "approach": "team_stats", "data_dir": "sample", "forest_bootstrap": True,
    "forest_features": "sqrt", "forest_fraction": 1.0, "forest_trees": 100,
    "knn_k": 5, "missing_odds": "skip", "model": None, "out_dir": "defaults",
    "schema": None, "seed": 0, "stake": 1.0, "svr_c": 1.0, "svr_epsilon": 0.1,
    "svr_gamma": "scale", "svr_max_iter": 50000, "svr_tol": 1e-06,
    "technique": "lr", "test_size": 8, "tree_depth": 6, "tree_min_leaf": 5,
}


def test_resolved_config_pinned(tmp_path, monkeypatch):
    # relative paths keep the config, and so its hash, free of the checkout's path
    shutil.copytree(SAMPLE_DIR, tmp_path / "sample")
    monkeypatch.chdir(tmp_path)
    Path("custom.conf").write_text(
        "forest_bootstrap = off\nsvr_gamma = 0.5\nforest_features = 7\n",
        encoding="utf-8")
    args = ("train", "--data-dir", "sample", "--test-size", 8,
            "--approach", "team_stats", "--technique", "lr")
    assert run(*args, "--out-dir", "defaults") == 0
    assert run(*args, "--out-dir", "custom", "--config", "custom.conf",
               "--knn-k", 3) == 0
    custom = {**RESOLVED_DEFAULTS, "out_dir": "custom", "forest_bootstrap": False,
              "svr_gamma": 0.5, "forest_features": 7, "knn_k": 3}
    for out_dir, config, config_hash in (("defaults", RESOLVED_DEFAULTS, "1cbddddae481a735"),
                                         ("custom", custom, "470152e712eed186")):
        manifest = json.loads(Path(out_dir, "train_manifest.json").read_text())
        # the JSON text, not dict equality, so that 1 and 1.0 differ
        assert json.dumps(manifest["config"], sort_keys=True) == json.dumps(config, sort_keys=True)
        assert manifest["config_hash"] == config_hash


# ----------------------------------------------------------------- predict


@pytest.fixture(scope="module")
def players_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("players_lr")
    assert run("train", *base_args(out), "--approach", "players",
               "--technique", "lr") == 0
    return out


@pytest.fixture(scope="module")
def team_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("team_lr")
    assert run("train", *base_args(out), "--approach", "team_stats",
               "--technique", "lr") == 0
    return out


def test_predict_upcoming_fixtures(tmp_path, players_artifacts, capsys):
    out = tmp_path / "upcoming_predictions.csv"
    code = run("predict", "--out-dir", tmp_path,
               "--artifacts", players_artifacts,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv", "--out", out)
    assert code == 0
    header, rows = read_csv(out)
    assert header[:2] == ["fixture_id", "model"]
    assert [r[0] for r in rows] == ["U901", "U902", "U903", "U904"]
    for r in rows:
        assert r[4].isdigit() and r[5].isdigit()  # integer scoreline
        assert r[6] == "" and r[7] == ""  # no actuals yet
    # U904 fields two all-debutant squads: predictions still emitted but
    # the run warns that lineup coverage is incomplete
    err = capsys.readouterr().err
    assert "coverage warning" in err


def test_predict_default_out_path(tmp_path, team_artifacts):
    code = run("predict", "--out-dir", tmp_path, "--artifacts", team_artifacts,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv")
    assert code == 0
    header, rows = read_csv(tmp_path / "predictions.csv")
    assert len(rows) == 4


def test_predict_usage_and_missing_artifacts(tmp_path):
    assert run("predict", "--out-dir", tmp_path,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv") == 2
    assert run("predict", "--out-dir", tmp_path, "--artifacts", tmp_path) == 2
    empty = tmp_path / "no_artifacts"
    empty.mkdir()
    assert run("predict", "--out-dir", tmp_path, "--artifacts", empty,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv") == 1
    # predict reads no hyperparameter, so it takes no such flag
    with pytest.raises(SystemExit) as exc:
        run("predict", "--artifacts", empty, "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv",
            "--forest-trees", 99, "--technique", "svr")
    assert exc.value.code == 2


def _break_knn(payload):
    payload["k"] = len(payload["train_y"]) + 1


def _break_tree(payload):
    tree = payload["trees"][0]
    assert tree["feature"][0] >= 0, "the tree is a single leaf"
    tree["feature"][0] = 10**6


CORRUPTIONS = {
    "lr": ("lr", lambda payload: payload["coef"].pop()),
    "knn": ("knn", _break_knn),
    "dtr": ("dtr", _break_tree),
    "rfr": ("rfr", lambda payload: payload["trees"][0].pop("right")),
    "svr": ("svr", lambda payload: payload["w"].pop()),
    "svr-rbf": ("svr-rbf", lambda payload: payload["beta"].pop()),
    "svr-rbf-gamma-null": ("svr-rbf", lambda payload: payload.update(gamma=None)),
    "svr-rbf-gamma-negative": ("svr-rbf", lambda payload: payload.update(gamma=-5.0)),
    "knn-k-fraction": ("knn", lambda payload: payload.update(k=2.5)),
    "knn-k-true": ("knn", lambda payload: payload.update(k=True)),
    "knn-scaler-mean-null": ("knn", lambda payload: _set_cell(payload, "scaler_mean", None)),
    "knn-scaler-mean-nan": ("knn", lambda payload: _set_cell(payload, "scaler_mean", math.nan)),
    "knn-train-x-null": ("knn", lambda payload: _set_cell(payload, "train_X", None)),
    "knn-train-x-nan": ("knn", lambda payload: _set_cell(payload, "train_X", math.nan)),
    "svr-scaler-std-null": ("svr", lambda payload: _set_cell(payload, "scaler_std", None)),
    "svr-scaler-std-nan": ("svr", lambda payload: _set_cell(payload, "scaler_std", math.nan)),
    "svr-scaler-std-negative": ("svr", lambda payload: _set_cell(payload, "scaler_std", -1.0)),
}


def _set_cell(payload, key, value):
    """Set the last cell of a payload vector, or of a matrix's last row."""
    cells = payload[key][-1] if isinstance(payload[key][-1], list) else payload[key]
    cells[-1] = value


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_predict_rejects_corrupted_artifact(tmp_path, case, capsys):
    technique, corrupt = CORRUPTIONS[case]
    artifacts = tmp_path / "artifacts"
    assert run("train", *base_args(artifacts), "--approach", "team_stats",
               "--technique", technique, "--forest-trees", 3,
               "--svr-max-iter", 200) == 0
    path = artifacts / "model_home.json"
    blob = json.loads(path.read_text())
    corrupt(blob["payload"])
    path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("predict", "--out-dir", tmp_path, "--artifacts", artifacts,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "model_home.json" in err


def test_predict_overflowing_model_reports_one_error(tmp_path, capsys):
    """A stored forest whose finite leaf values overflow when averaged is
    reported by its non-finite prediction alone, with no NumPy warning."""
    artifacts = tmp_path / "artifacts"
    assert run("train", *base_args(artifacts), "--approach", "team_stats",
               "--technique", "rfr", "--forest-trees", 5) == 0
    path = artifacts / "model_home.json"
    blob = json.loads(path.read_text())
    for tree in blob["payload"]["trees"]:
        tree["value"] = [1e308 if feature == -1 else value
                         for feature, value in zip(tree["feature"], tree["value"])]
    path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("predict", "--out-dir", tmp_path, "--artifacts", artifacts,
               "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv") == 1
    assert capsys.readouterr().err == "error: cannot round non-finite prediction inf\n"


MALFORMED_MANIFESTS = {
    "a list": ("[1]", "is not a JSON object"),
    "an empty object": ("{}", "lacks a valid label, approach, config_hash, seed, config"),
    "no data_dir": ('{"config": {}, "label": "x"}', "lacks a valid approach, config_hash, seed, "
                                                     "config.data_dir, config.test_size"),
    "wrong types": ('{"config": {"data_dir": "d", "test_size": "8", "schema": 5}, "label": [1], '
                    '"approach": "players", "config_hash": "h", "seed": 0}',
                    "lacks a valid label, config.test_size, config.schema"),
    "truncated": ('{"config": {"data_dir": ', "cannot read train manifest"),
}
ARTIFACT_COMMANDS = {
    "predict": ("predict", "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv"),
    "evaluate": ("evaluate",),
    "bet": ("bet",),
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_train_manifest_returns_1(tmp_path, team_artifacts, capsys, command, case):
    artifacts = Path(shutil.copytree(team_artifacts, tmp_path / "artifacts"))
    text, message = MALFORMED_MANIFESTS[case]
    manifest = artifacts / "train_manifest.json"
    manifest.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(*ARTIFACT_COMMANDS[command], "--artifacts", artifacts,
               "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(manifest) in err and message in err, err


def _depth(node):
    if "feature" not in node:
        return 0
    return 1 + max(_depth(node["left"]), _depth(node["right"]))


@pytest.mark.parametrize("technique", ["dtr", "rfr"])
def test_train_manifest_records_tree_size(tmp_path, technique):
    assert run("train", *base_args(tmp_path), "--approach", "lineup_stats",
               "--technique", technique, "--forest-trees", 7, "--tree-depth", 4,
               "--tree-min-leaf", 2) == 0
    manifest = json.loads((tmp_path / "train_manifest.json").read_text())
    for side in SIDES:
        trees = json.loads((tmp_path / f"model_{side}.json").read_text())["payload"]["trees"]
        assert len(trees) == (7 if technique == "rfr" else 1)
        expected = {"nodes": sum(len(tree["feature"]) for tree in trees),
                    "depth": max(_depth(nested_tree(tree)) for tree in trees)}
        assert manifest["tree_size"][side] == expected
        assert expected["nodes"] > len(trees) and 0 < expected["depth"] <= 4


# ---------------------------------------------------------------- evaluate


BUNDLE_FILES = ("fitness.csv", "standings.csv", "tau.csv", "zones.csv",
                "betting.csv", "predictions.csv", "overview.csv",
                "summary.txt", "evaluate_manifest.json")


def test_evaluate_home_win_bundle(tmp_path):
    assert run("evaluate", *base_args(tmp_path), "--model", "home-win") == 0
    for name in BUNDLE_FILES:
        assert (tmp_path / name).exists(), name
    header, rows = read_csv(tmp_path / "fitness.csv")
    assert header == ["model", "side", "n", "mae", "rmse", "r2"]
    assert [(r[0], r[1]) for r in rows] == [("home-win", "home"),
                                            ("home-win", "away")]
    assert all(int(r[2]) == 8 for r in rows)
    # heuristics have no stats matrix, so no importance report
    assert not (tmp_path / "importance.csv").exists()


def test_evaluate_artifacts_single_model(tmp_path, team_artifacts):
    assert run("evaluate", *base_args(tmp_path),
               "--artifacts", team_artifacts) == 0
    _, rows = read_csv(tmp_path / "fitness.csv")
    assert {r[0] for r in rows} == {"team_stats+lr"}
    # stats-based approaches also get a chi-squared report
    header, imp_rows = read_csv(tmp_path / "importance.csv")
    assert header == ["approach", "side", "feature", "score"]
    assert {r[0] for r in imp_rows} == {"team_stats"}


def test_evaluate_artifacts_records_trained_config(tmp_path):
    artifacts = tmp_path / "rfr"
    assert run("train", *base_args(artifacts), "--approach", "team_stats",
               "--technique", "rfr", "--forest-trees", 10, "--seed", 7) == 0
    trained = json.loads((artifacts / "train_manifest.json").read_text())
    assert run("evaluate", "--artifacts", artifacts, "--out-dir", tmp_path / "eval") == 0
    manifest = json.loads((tmp_path / "eval" / "evaluate_manifest.json").read_text())
    assert manifest["config"]["forest_trees"] == 10
    assert manifest["config"]["technique"] == "rfr"
    assert (manifest["config_hash"], manifest["seed"]) == (trained["config_hash"], 7)
    summary = (tmp_path / "eval" / "summary.txt").read_text()
    assert "seed 7, stake 1, missing-odds policy skip" in summary
    assert manifest["data_fingerprint"] == trained["data_fingerprint"]
    # the train manifest fixes the data, split, seed, schema and every
    # hyperparameter; a flag that would change one of them is refused, and
    # --model with the trained --data-dir no longer wins over --artifacts
    for flags in (("--test-size", 3), ("--forest-trees", 5),
                  ("--model", "home-win", "--data-dir", SAMPLE_DIR)):
        assert run("evaluate", "--artifacts", artifacts, "--out-dir", tmp_path / "eval",
                   *flags) == 2, flags
    assert run("bet", "--artifacts", artifacts, "--out-dir", tmp_path / "eval",
               "--test-size", 3) == 2
    with pytest.raises(SystemExit) as exc:  # bet reads no seed, so takes no --seed
        run("bet", "--artifacts", artifacts, "--out-dir", tmp_path / "eval", "--seed", 1)
    assert exc.value.code == 2
    assert run("bet", "--artifacts", artifacts, "--out-dir", tmp_path / "eval",
               "--stake", 2) == 0


def test_evaluate_needs_a_selection(tmp_path, team_artifacts, capsys):
    assert run("evaluate", *base_args(tmp_path)) == 2
    # --all is a mode of its own: a selection beside it is refused, not dropped
    for flags, named in ((("--model", "home-win"), "--model"),
                         (("--artifacts", team_artifacts), "--artifacts")):
        capsys.readouterr()
        assert run("evaluate", *base_args(tmp_path), "--all", *flags) == 2, flags
        err = capsys.readouterr().err
        assert "--all" in err and named in err, err
    assert not (tmp_path / "overview.csv").exists()


# sha256 of every CSV and the summary of each heuristic's bundle on the
# sample league (test 8), run from the repository root with a relative
# --data-dir so that the summary's data line is the same on every host.
# Heuristic rows are integers, correctly rounded means and square roots, so
# their bytes do not depend on the BLAS build; ML rows' late digits do.
HEURISTIC_BUNDLE_SHA256 = {
    "home-win": {
        "betting.csv": "eeaaecf81589ae16151d0558fe60eede765a0e971dbb6093d02e0285bc69f2ae",
        "fitness.csv": "17d50212efb1168d6f1d0ca0bffe17aab49125982626e218df77ce62a689e873",
        "overview.csv": "c87486f6de8476b78903b0aa51055b516a8bb6beabc52536b2f71df69af8a9f2",
        "predictions.csv": "0540cd1621dff34f19e30408fed4a9d3c563647c8fcbafc9b7183a3f1c5a44bb",
        "standings.csv": "9e7f9c3702a2dee9384e13adf54221788bef7002341dcfae51295ed6a9934016",
        "tau.csv": "4822e083a6c5cf32b4e84db3b9e1ae565f507ba6e98dcc5f733838096ab2b7af",
        "zones.csv": "906288026d9c5f9cf7ff356bcd5cd433e3e58c1312e3938ceb3cc1f391bee296",
        "summary.txt": "3629a1fbe0a4b5a8579613fd7f2a1e810b04a2971a9844bad724e30a6d6e89f7",
    },
    "tradition": {
        "betting.csv": "ed1c087f13259ec8dfaa9bac5531b71ed6b0d36c88cf2cd2341587ba625f8d30",
        "fitness.csv": "3dd00c08200dcab3dce5bb4359b22f0b17972a5301d9be29d09dd93191649e06",
        "overview.csv": "37ba2c27d549c94dd1150b8db674d3a7f14d970c1cf1b17842237dfbc7a5cf82",
        "predictions.csv": "9d70d740ae85b05d4be251cceaa9a6e74960fd759b9554dc563d28b32ee0267e",
        "standings.csv": "a14a3c52534572df70d5e6c959a54b1278c92d1763762dfa4d2f61e2d8feafcd",
        "tau.csv": "04a1e140918ad09fe41f4cb83db644ff29ebbe4dd56cee0bfa347f645777b9fa",
        "zones.csv": "78d5efa558c8815f8e1b32c23714d60623a55a85f3e7b984339bf5263041206d",
        "summary.txt": "76982010f82dbd4917a08f1e2d6274a1565909f2653c5305cdbed243aefa74a1",
    },
    "recency": {
        "betting.csv": "ed0adeb30067a72950378ca7431529b8fed0897447d17943f43d0c84be6d38d6",
        "fitness.csv": "342ffe880c3271412732405e6a58cb1d705932fd0777d58c7e14499b5237e995",
        "overview.csv": "98456cf2f98719b32383edf7e720770ab0d8b172ec3f7b092b744ff313bf8e67",
        "predictions.csv": "9bc39b25c882e2e4d19efd996527aaffced87e6d74e9b086016d67f735b9f407",
        "standings.csv": "891efa7384faee96641798f49e6e41e5bb8cbbad203cca56ec7158c265d51541",
        "tau.csv": "83ad13486686dd0da3d4a82d55dc3fd6e55bcad9704481b5c46447a9f3c48527",
        "zones.csv": "e9e65ce4da4d7b8491efb31b366ef493f6488e127a626bfc5ee6b1e4af2c5620",
        "summary.txt": "6ce0585f9ceddbda0f344e31c9edf6097306bdf5590f5e31d3b734524cabc293",
    },
}


# The same on the benchmark's 20-club league (test 30), run from the
# directory that holds it with --data-dir league: 20-team tables, a
# relegation zone and 30 bets per heuristic.
LEAGUE_20_BUNDLE_SHA256 = {
    "home-win": {
        "betting.csv": "6369b0679f64abbef480ff405f44bd182aa8d1c3c9417064a102ee1b785833f6",
        "fitness.csv": "22f3827e17b48a4ef270299524546d21fe47f36e12d64306a4ff947e9d092492",
        "overview.csv": "c87486f6de8476b78903b0aa51055b516a8bb6beabc52536b2f71df69af8a9f2",
        "predictions.csv": "4a83fdf356588297795dec9623e1ef1f2c0f03de3c8aa97b4f639e787b6382bf",
        "standings.csv": "c7e418b68da18b7002cb8ac2c01844ce4ff1203a419e214cf5933d3319aaa554",
        "tau.csv": "b61060375a6095aced92ab5110545e294feddedfd59ec34e89a1fea9a9ab4361",
        "zones.csv": "2063233448f46cb6d532ffea83079d54aeaadedff2403eaf124631b5666d87b2",
        "summary.txt": "ec14be9512597814fcccdec8053e54cc17e66422f929211e6ac181ad9b209a7f",
    },
    "tradition": {
        "betting.csv": "0c612fb12ad8ac689da32aaf474799023166d5649e60d9d35cb634ca986bd2b6",
        "fitness.csv": "57772095481487a46a97769631a0495f0b84d54df658255865c75916f4b1b181",
        "overview.csv": "37ba2c27d549c94dd1150b8db674d3a7f14d970c1cf1b17842237dfbc7a5cf82",
        "predictions.csv": "210e36de7b9bbaaee79319d3c4a3871a548fd8c306c64d4d9d8b829eef56196f",
        "standings.csv": "03fa7a0c950eca24a57a94c16259ff5243e19e6e169cd66120def2ccb57852c1",
        "tau.csv": "98cdef7a4c88a5fe8d26bb819bbf4574286a9d12f2b85fc1277ba37e63e4f004",
        "zones.csv": "e99ce4f5ca3673fa646af930579ccabd02cef308781ec787ce50dd798888674a",
        "summary.txt": "f3803c85e125930a248adb6709e424a01337d2eb190334a08b47ccb167eacb09",
    },
    "recency": {
        "betting.csv": "117402a0eb71e243cdc4ef1d2f1724ec8d123f81a7e705697d637b6b313dbc90",
        "fitness.csv": "3c9c95796846bcab556352d3842d6b79a20ba57b724180011ef1703916082f42",
        "overview.csv": "98456cf2f98719b32383edf7e720770ab0d8b172ec3f7b092b744ff313bf8e67",
        "predictions.csv": "85de3d74aa2fd6916818e60a98dc7cc4f8427f276ce238f8868ba8caf29b7160",
        "standings.csv": "00225d4c7fcdd85e1e461187c5ea25bec0f757a715a28e8fd7956d8ea4f04316",
        "tau.csv": "5e9c41fd9f82463f0719c0293dfbd72c1fa821167b47cf9f715d79d0a70cf366",
        "zones.csv": "e9e65ce4da4d7b8491efb31b366ef493f6488e127a626bfc5ee6b1e4af2c5620",
        "summary.txt": "f5bc08e8a837de387da1b80607de0206b6cdfbf6fd1f3bc0e92a1d116dfca2d2",
    },
}


@pytest.fixture(scope="module")
def league_20(tmp_path_factory):
    """A directory holding the benchmark's 20-club league as ``league``.
    The generator draws from random.Random, so every Python version gets
    the same league."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(Path(SAMPLE_DIR).parents[1] / "perfbench"))
        league = importlib.import_module("league")
    root = tmp_path_factory.mktemp("league-20")
    league.generate(root / "league", teams=20, seasons=1, extra_rounds=3, rolling=1, seed=1)
    return root


@pytest.mark.parametrize("model, league", [
    *(pytest.param(model, "sample", id=model) for model in HEURISTIC_BUNDLE_SHA256),
    *(pytest.param(model, "league-20", id=f"league-20-{model}")
      for model in LEAGUE_20_BUNDLE_SHA256),
])
def test_heuristic_bundle_bytes(tmp_path, monkeypatch, capsys, request, model, league):
    if league == "sample":
        monkeypatch.chdir(Path(SAMPLE_DIR).parents[1])
        data, test_size, digests = Path("data", "sample"), 8, HEURISTIC_BUNDLE_SHA256[model]
    else:
        monkeypatch.chdir(request.getfixturevalue("league_20"))
        data, test_size, digests = Path("league"), 30, LEAGUE_20_BUNDLE_SHA256[model]
    assert run("evaluate", "--data-dir", data, "--test-size", test_size,
               "--model", model, "--out-dir", tmp_path) == 0
    written = {p.name for p in tmp_path.iterdir() if p.suffix in (".csv", ".txt")}
    assert written == set(digests)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in written} == digests
    # the command prints the summary it wrote
    assert capsys.readouterr().out.endswith((tmp_path / "summary.txt").read_text())


def test_summary_notes_zones_unavailable(tmp_path):
    """One test fixture makes a two-team table: no top-4 or bottom-3 zone,
    so the zone cells are empty and the summary says why."""
    assert run("evaluate", "--data-dir", SAMPLE_DIR, "--test-size", 1,
               "--model", "home-win", "--out-dir", tmp_path) == 0
    assert (tmp_path / "summary.txt").read_text().endswith(
        "\nnotes:\n  home-win: zone accuracy unavailable "
        "(top-4 needs at least 4 teams, have 2)\n")
    assert read_csv(tmp_path / "zones.csv")[1] == [["home-win", "", ""]]


def test_summary_notes_skipped_fixture(tmp_path):
    """A lineup model cannot predict a test fixture without lineups: it is
    scored over the fixtures it predicted, and the summary and manifest
    name the one it skipped."""
    data = shutil.copytree(SAMPLE_DIR, tmp_path / "data")
    fixtures = data / "fixtures.csv"
    lines = fixtures.read_text(encoding="utf-8").splitlines()
    lines = [",".join(line.split(",")[:-2] + ["", ""]) if line.startswith("F033,") else line
             for line in lines]
    fixtures.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("train", "--data-dir", data, "--test-size", 8, "--approach", "lineup_stats",
               "--technique", "lr", "--out-dir", tmp_path / "trained") == 0
    out = tmp_path / "eval"
    assert run("evaluate", "--artifacts", tmp_path / "trained", "--out-dir", out) == 0
    reason = "fixture 'F033' has no lineups"
    assert (out / "summary.txt").read_text().endswith(
        f"\nnotes:\n  lineup_stats+lr: skipped F033: {reason}\n")
    assert [row[2] for row in read_csv(out / "fitness.csv")[1]] == ["7", "7"]
    _, (bets,) = read_csv(out / "betting.csv")
    assert int(bets[3]) + int(bets[4]) == 7  # placed + no quote for the predicted score
    manifest = json.loads((out / "evaluate_manifest.json").read_text())
    assert manifest["skipped"] == {"lineup_stats+lr": [["F033", reason]]}


def test_every_benchmark_hook_target_resolves(tmp_path, monkeypatch):
    """perfbench times each layer by wrapping a name where the CLI looks it
    up, and reports a layer whose name has moved as unmeasured. Every target
    must resolve, and a heuristic bundle must still make each metric call
    that the evaluation layer's time is measured from."""
    monkeypatch.syspath_prepend(str(Path(SAMPLE_DIR).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.unmeasured == []
        assert run("evaluate", *base_args(tmp_path), "--model", "home-win") == 0
    finally:
        tracer.unhook()
    assert tracer.unmeasured == []
    # fitness x2, both standings, tau, zones x2, bet_run, rank_models x6, rank_sum_overview
    assert sum(span.name == "evaluate.metrics_s" for span in tracer.spans) == 15


def test_unreadable_csv_returns_1(tmp_path, capsys):
    """A CSV field over the csv module's size limit is a data error naming
    its row, not a traceback."""
    data = tmp_path / "data"
    shutil.copytree(SAMPLE_DIR, data)
    lines = (data / "odds.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + "9" * 200_000 + "\n"
    (data / "odds.csv").write_text("".join(lines), encoding="utf-8")
    assert run("evaluate", "--data-dir", data, "--test-size", 8,
               "--out-dir", tmp_path / "out", "--model", "home-win") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 3: unreadable odds file: field larger than field limit"), err


# ------------------------------------------ odds: read only where bets are placed


def odds_free_commands(data, out):
    """train, predict and importance on ``data``: none of them reads odds."""
    assert run("train", "--data-dir", data, "--test-size", 8, "--out-dir", out / "art",
               "--approach", "team_stats", "--technique", "lr") == 0
    assert run("predict", "--artifacts", out / "art", "--fixtures", SAMPLE_DIR / "upcoming.csv",
               "--out", out / "predictions.csv") == 0
    assert run("importance", "--data-dir", data, "--test-size", 8,
               "--approach", "lineup_stats", "--out", out / "importance.csv") == 0


def test_malformed_odds_fail_only_betting_commands(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(SAMPLE_DIR, data)
    lines = (data / "odds.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    fid, home, away, _odds = lines[5].rstrip("\n").split(",")
    lines[5] = f"{fid},{home},{away},0.5\n"
    (data / "odds.csv").write_text("".join(lines), encoding="utf-8")
    odds_free_commands(data, tmp_path)
    capsys.readouterr()
    for argv in (("evaluate", "--model", "home-win"), ("bet", "--model", "home-win")):
        assert run(*argv, "--data-dir", data, "--test-size", 8,
                   "--out-dir", tmp_path / argv[0]) == 1, argv
        assert capsys.readouterr().err == (
            f"error: fixture {fid!r}: odds for ({home}, {away}) must exceed 1.0\n"), argv


def test_odds_free_commands_never_load_odds(tmp_path, monkeypatch):
    def load_odds(*args):
        raise AssertionError("odds loaded")

    monkeypatch.setattr(ingest, "load_odds", load_odds)
    odds_free_commands(SAMPLE_DIR, tmp_path)


def test_train_without_odds_file_writes_nothing(tmp_path, capsys):
    """train reads no odds, but its manifest fingerprints every data file:
    a missing one fails before any artifact is written."""
    data = tmp_path / "data"
    shutil.copytree(SAMPLE_DIR, data)
    (data / "odds.csv").unlink()
    out = tmp_path / "art"
    assert run("train", "--data-dir", data, "--test-size", 8, "--out-dir", out,
               "--approach", "team_stats", "--technique", "lr") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: ") and \
        err.rstrip().endswith("odds.csv'") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("where", ["archive", "upcoming"])
def test_kickoff_with_offset_returns_1(tmp_path, players_artifacts, capsys, where):
    """A kickoff with a UTC offset cannot be ordered against naive ones, in
    the archive or against it: the run stops with one error line naming
    the row, not a traceback from a later sort or feature build."""
    name = "fixtures.csv" if where == "archive" else "upcoming.csv"
    data = tmp_path / "data"
    shutil.copytree(SAMPLE_DIR, data)
    text = (data / name).read_text(encoding="utf-8")
    (data / name).write_text(re.sub(r"(T\d\d:\d\d:\d\d)", r"\1+00:00", text, count=2),
                             encoding="utf-8")
    if where == "archive":
        code = run("train", "--data-dir", data, "--test-size", 8, "--out-dir", tmp_path,
                   "--approach", "team_stats", "--technique", "lr")
    else:
        code = run("predict", "--out-dir", tmp_path, "--artifacts", players_artifacts,
                   "--fixtures", data / name)
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: row 2: kickoff '[^']+\+00:00' has a UTC offset; "
                        r"give local time without one\n", err), err


# ------------------------------------------------------------ the full grid


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    assert run("evaluate", *base_args(out), "--all", "--seed", 0) == 0
    return out


def test_grid_overview_shape(grid_dir):
    header, rows = read_csv(grid_dir / "overview.csv")
    assert header == ["model", "home", "away", "betting", "standings",
                      "top4", "relegation", "rank_sum"]
    assert len(rows) == 21
    heuristics = {"home-win", "tradition", "recency"}
    ml = {f"{a}+{t}"
          for a in ("players", "lineup_stats", "team_stats")
          for t in ("lr", "knn", "dtr", "rfr", "svr", "svr-rbf")}
    assert {r[0] for r in rows} == heuristics | ml


def test_grid_rank_sum_column(grid_dir):
    _, rows = read_csv(grid_dir / "overview.csv")
    sums = [int(r[7]) for r in rows]
    for r in rows:
        assert int(r[7]) == sum(int(x) for x in r[1:7])
    assert sums == sorted(sums)  # best first


def test_grid_bundle_complete(grid_dir):
    for name in BUNDLE_FILES:
        assert (grid_dir / name).exists(), name
    _, fit_rows = read_csv(grid_dir / "fitness.csv")
    assert len(fit_rows) == 42  # 21 models x 2 sides
    _, imp_rows = read_csv(grid_dir / "importance.csv")
    assert {r[0] for r in imp_rows} == {"lineup_stats", "team_stats"}
    assert len(imp_rows) == 4 * 52  # 2 approaches x 2 sides x 52 features
    manifest = json.loads((grid_dir / "evaluate_manifest.json").read_text())
    assert len(manifest["models"]) == 21
    assert manifest["config_hash"]


def test_grid_builds_each_matrix_once(tmp_path, monkeypatch):
    """Three approaches x two sides, each built once over every fixture."""
    calls = []
    build = FeatureBuilder.build_matrix

    def counted(self, fixtures, approach, side, *args, **kwargs):
        calls.append((approach, side))
        return build(self, fixtures, approach, side, *args, **kwargs)

    monkeypatch.setattr(FeatureBuilder, "build_matrix", counted)
    assert run("evaluate", *base_args(tmp_path), "--all", "--forest-trees", 2,
               "--svr-max-iter", 50) == 0
    assert sorted(calls) == sorted((a, s) for a in APPROACHES for s in SIDES)


def test_heuristic_commands_build_no_features(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a heuristic run constructed a FeatureBuilder")

    monkeypatch.setattr(cli, "FeatureBuilder", refuse)
    for command in ("evaluate", "bet"):
        assert run(command, *base_args(tmp_path / command), "--model", "home-win") == 0


@pytest.mark.parametrize("argv", [
    ("train", "--approach", "team_stats", "--technique", "rfr", "--forest-trees", 2),
    ("evaluate", "--all", "--forest-trees", 2),
])
def test_no_feature_builder_alive_during_fits(tmp_path, monkeypatch, argv):
    """Matrices are built before any fit, and the builder, with every form
    table it keeps, is gone by the first fit."""
    builders, fits = [], []
    construct, fit = cli.FeatureBuilder, cli.fit_model

    def tracked(*args, **kwargs):
        builder = construct(*args, **kwargs)
        builders.append(weakref.ref(builder))
        return builder

    def checked(*args, **kwargs):
        gc.collect()
        assert builders and not any(ref() for ref in builders)
        fits.append(args[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "FeatureBuilder", tracked)
    monkeypatch.setattr(cli, "fit_model", checked)
    assert run(argv[0], *base_args(tmp_path), *argv[1:]) == 0
    assert len(builders) == 1 and fits


@pytest.mark.skipif(workers.usable_cpus() < 2, reason="train forks only on 2 or more CPUs")
def test_forest_train_forks_without_warning(tmp_path):
    """From Python 3.12, os.fork warns when the process runs other OS
    threads; scoreline pins BLAS to one thread, so forking the child that
    fits the away forest must not warn."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-W", "error:This process:DeprecationWarning", "-m", "scoreline.cli",
         "train", *map(str, base_args(tmp_path)), "--approach", "team_stats",
         "--technique", "rfr", "--forest-trees", "4"],
        env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_grid_rerun_byte_identical(grid_dir, monkeypatch):
    first = {name: (grid_dir / name).read_bytes() for name in BUNDLE_FILES}
    first["importance.csv"] = (grid_dir / "importance.csv").read_bytes()
    # the grid's fits spread over one group per usable CPU; the bundle and
    # its manifest must not depend on how many there are
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        assert run("evaluate", "--data-dir", SAMPLE_DIR, "--test-size", 8,
                   "--out-dir", grid_dir, "--all", "--seed", 0) == 0
        for name, blob in first.items():
            assert (grid_dir / name).read_bytes() == blob, (cpus, name)


@pytest.mark.parametrize("cpus", [2, 3])
def test_commands_fork_one_child_per_extra_group(tmp_path, monkeypatch, cpus):
    """train's two fits and the grid's 36 each run in one fit run, one
    group per usable CPU and never more than the fits: W usable CPUs fork
    at most W - 1 children per command, not a set per forest. The sample's
    stats file is under the range minimum, so its read forks nothing."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    for argv, fits in ((["train", "--approach", "team_stats", "--technique", "rfr"], 2),
                       (["evaluate", "--all"], 36)):
        forks.clear()
        assert run(argv[0], *base_args(tmp_path / argv[0]), *argv[1:]) == 0
        assert len(forks) == min(cpus, fits) - 1, argv


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_predict_forks_one_child_per_extra_stats_range(tmp_path, team_artifacts, monkeypatch,
                                                       cpus):
    """predict fits nothing, so its forks are the stats read's. With the
    range minimum at 100 000 bytes the sample's stats file holds three
    ranges: W usable CPUs fork min(W, 3) - 1 children, and none while
    another thread runs, and every run writes the same predictions."""
    forks, fork = [], os.fork

    def counted():
        if threading.active_count() > 1:
            raise AssertionError("os.fork called while another thread runs")
        forks.append(os.getpid())
        return fork()

    def predict(name):
        out = tmp_path / name
        assert run("predict", "--artifacts", team_artifacts,
                   "--fixtures", Path(SAMPLE_DIR) / "upcoming.csv", "--out", out) == 0
        return out.read_bytes()

    assert (SAMPLE_DIR / "player_stats.csv").stat().st_size // 100_000 == 3
    alone = predict("alone.csv")
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(ingest, "RANGE_BYTES", 100_000)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert predict("ranges.csv") == alone
    assert len(forks) == min(cpus, 3) - 1
    forks.clear()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert predict("threaded.csv") == alone
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def _mutated_line(kind: str, rng: random.Random, line: bytes) -> list[bytes]:
    """A stats line (its line end kept) after one mutation at a random cell
    and place, as the lines that replace it."""
    body = line.rstrip(b"\r\n")
    cells, end = body.split(b","), line[len(body):]
    at = rng.randrange(len(cells))
    if kind in ('"', "\0", "\xff"):
        place = rng.randrange(len(cells[at]) + 1)
        cells[at] = cells[at][:place] + kind.encode("latin-1") + cells[at][place:]
    elif kind == "dropped cell":
        del cells[at]
    elif kind == "inserted cell":
        cells.insert(at, b"x")
    elif kind == "repeated line":
        return [line, line]
    else:
        cells[-1] = kind.encode()
    return [b",".join(cells) + end]


@pytest.mark.parametrize("kind", ['"', "\0", "\xff", "nan", "inf", "1e400", "-1", "dropped cell",
                                  "inserted cell", "repeated line"])
def test_mutated_stats_file_fails_alike_in_one_range_or_two(tmp_path, monkeypatch, capsys, kind):
    """The sample league with one stats line mutated at seeded places, read
    in one byte range and in two: evaluate exits with the same code and the
    same single "error:" line either way, never a traceback."""
    raw = (SAMPLE_DIR / "player_stats.csv").read_bytes()
    lines = raw.splitlines(keepends=True)
    monkeypatch.setattr(ingest, "RANGE_BYTES", len(raw) // 3)
    for seed in range(3):
        rng = random.Random(f"{kind} {seed}")
        at = rng.randrange(1, len(lines))
        data = tmp_path / f"data-{seed}"
        shutil.copytree(SAMPLE_DIR, data)
        (data / "player_stats.csv").write_bytes(
            b"".join(lines[:at] + _mutated_line(kind, rng, lines[at]) + lines[at + 1:]))
        outcomes = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            code = run("evaluate", "--model", "recency", "--data-dir", data, "--test-size", 8,
                       "--out-dir", tmp_path / "out")
            outcomes.append((code, capsys.readouterr().err))
        (code, err), case = outcomes[0], (kind, seed, at)
        assert outcomes[1] == outcomes[0], case
        assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")
                                          and err.count("\n") == 1), (case, code, err)


def test_grid_rerun_byte_identical_on_any_blas_thread_count(tmp_path):
    """BLAS splits its sums by thread count; the package pins it to one
    thread, so a bundle made under 1 and under 2 BLAS threads is the same,
    manifests included (each run has its own working directory and the
    same relative --out-dir)."""
    src = Path(cli.__file__).resolve().parents[1]
    bundles = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                          os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "scoreline.cli", "evaluate", "--all",
                        "--data-dir", str(SAMPLE_DIR), "--test-size", "8", "--out-dir", "bundle"],
                       cwd=cwd, env=env, check=True, capture_output=True)
        bundles.append({p.name: p.read_bytes() for p in (cwd / "bundle").iterdir()})
    assert sorted(bundles[0]) == sorted(bundles[1])
    assert set(BUNDLE_FILES) <= set(bundles[0])
    for name in bundles[0]:
        assert bundles[0][name] == bundles[1][name], name


# -------------------------------------------------------- importance + bet


def test_importance_command(tmp_path):
    out = tmp_path / "importance.csv"
    assert run("importance", *base_args(tmp_path), "--approach", "team_stats",
               "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["approach", "side", "feature", "score"]
    for side in ("home", "away"):
        scores = [float(r[3]) for r in rows if r[1] == side]
        assert len(scores) == 52
        assert scores == sorted(scores, reverse=True)


def test_importance_requires_approach(tmp_path):
    assert run("importance", *base_args(tmp_path)) == 2
    with pytest.raises(SystemExit) as exc:
        run("importance", *base_args(tmp_path), "--approach", "team_stats",
            "--svr-c", 5, "--model", "home-win")
    assert exc.value.code == 2


def test_importance_players_rejected(tmp_path, monkeypatch, capsys):
    # the player encoding carries -1 markers, which chi-squared cannot take:
    # a usage error, raised before any data is loaded
    def load_context(*args):
        raise AssertionError("importance loaded data for the players approach")

    monkeypatch.setattr(cli, "load_context", load_context)
    assert run("importance", *base_args(tmp_path), "--approach", "players") == 2
    assert capsys.readouterr().err == (
        "usage error: importance requires --approach lineup_stats or team_stats\n")


def test_bet_command(tmp_path):
    out = tmp_path / "ledger.csv"
    assert run("bet", *base_args(tmp_path), "--model", "home-win",
               "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["model", "fixture_id", "pred_home", "pred_away",
                      "odds_found", "odds", "correct", "payout"]
    assert len(rows) == 8
    assert all(r[0] == "home-win" and r[2] == "1" and r[3] == "0"
               for r in rows)


def test_bet_default_out(tmp_path):
    assert run("bet", *base_args(tmp_path), "--model", "recency") == 0
    assert (tmp_path / "betting_ledger.csv").exists()
