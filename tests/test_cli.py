"""End-to-end CLI runs against the bundled sample data."""

import csv
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from scoreline.cli import data_fingerprint, main
from scoreline.features import APPROACHES, SIDES, FeatureBuilder
from scoreline.regress import workers

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
    # the forest's trees grow in one group per usable CPU; the artifacts
    # must not depend on how many there are
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        assert run(*args) == 0
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n], (cpus, n)


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


def test_config_file_errors(tmp_path):
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
}


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
    assert "model_home.json" in err and "Traceback" not in err


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


def test_grid_rerun_byte_identical(grid_dir):
    first = {name: (grid_dir / name).read_bytes() for name in BUNDLE_FILES}
    first["importance.csv"] = (grid_dir / "importance.csv").read_bytes()
    assert run("evaluate", "--data-dir", SAMPLE_DIR, "--test-size", 8,
               "--out-dir", grid_dir, "--all", "--seed", 0) == 0
    for name, blob in first.items():
        assert (grid_dir / name).read_bytes() == blob, name


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


def test_importance_players_rejected(tmp_path):
    # the player encoding carries -1 markers, which chi-squared cannot take
    assert run("importance", *base_args(tmp_path), "--approach", "players") == 1


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
