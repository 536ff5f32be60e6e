"""Command-line interface: train, predict, evaluate, importance, bet.

Runs are driven by a key=value config file plus CLI overrides; every
artifact embeds the resolved config hash, the seed and a dataset
fingerprint so identical runs produce identical bytes.

Exit codes: 0 success, 1 data/model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .evaluate import (
    EvaluateError,
    MISSING_ODDS_POLICIES,
    actual_standings,
    bet_run,
    chi2_importance,
    fitness,
    kendall_tau,
    rank_models,
    rank_sum_overview,
    simulate_standings,
    zone_accuracy,
)
from .features import APPROACHES, SIDES, FeatureBuilder, FeatureError
from .heuristics import HEURISTICS, HeuristicError
from .ingest import (
    DATA_FILES,
    Dataset,
    IngestError,
    load_dataset,
    load_fixtures,
    write_csv,
)
from .predict import (
    HeuristicPredictor,
    ModelPairPredictor,
    PredictError,
    PREDICTION_COLUMNS,
    PredictionSet,
    prediction_rows,
    save_predictions_csv,
)
from .regress import BadArtifact, RegressError, StoreError, fit_model, load_model, save_model
from .regress.store import read_json
from .regress.tree import tree_size
from .schema import SchemaError, default_schema, load_schema

# each CLI technique's engine and the fit keywords it fixes
TECHNIQUE_ENGINES = {
    "lr": ("lr", {}), "knn": ("knn", {}), "dtr": ("dtr", {}), "rfr": ("rfr", {}),
    "svr": ("svr", {"kernel": "linear"}), "svr-rbf": ("svr", {"kernel": "rbf"}),
}
ML_TECHNIQUES = tuple(TECHNIQUE_ENGINES)
SCENARIOS = ("home", "away", "betting", "standings", "top4", "relegation")
HIGHER_IS_BETTER = {
    "home": False, "away": False, "betting": True,
    "standings": True, "top4": True, "relegation": True,
}
STATS_APPROACHES = ("lineup_stats", "team_stats")
IMPORTANCE_COLUMNS = ("approach", "side", "feature", "score")
FORMAT_VERSION = 1


class UsageError(Exception):
    pass


class MissingArtifact(Exception):
    def __init__(self, path):
        super().__init__(f"missing artifact {path}; run `scoreline train` first")


# ------------------------------------------------------------------ config

def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key} expects a boolean, got {raw!r}")


def _parse_forest_features(raw):
    if raw in ("sqrt", "all"):
        return raw
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f'forest_features must be "sqrt", "all" or a positive int, got {raw!r}')
    return value


def _parse_gamma(raw):
    if raw == "scale":
        return raw
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f'svr_gamma must be "scale" or a positive finite number, got {raw!r}')
    return value


class Setting(NamedTuple):
    """One run setting. Its config key is ``name`` and its flag is ``flag``,
    by default ``--`` plus the name with ``-`` for ``_``.

    ``kind`` is int, float, bool or str, a tuple of choices, or a parser
    that turns the merged text into a value and checks it. ``valid`` is a
    (predicate, "what the value must be") pair. ``engine`` maps each
    technique the setting feeds to its fit keyword. ``commands`` name the
    subcommands that read it and so take its flag.
    """

    name: str
    kind: object = str
    default: object = None
    valid: tuple | None = None
    engine: dict = {}
    help: str = ""
    flag: str | None = None
    commands: tuple = ("train", "evaluate")

    def read(self, raw: str):
        """A config file's text as this setting's type."""
        if self.kind in (int, float):
            return self.kind(raw)
        if self.kind is bool:
            return _parse_bool(raw, self.name)
        return raw

    def resolve(self, value):
        """The merged value, parsed and range-checked."""
        if isinstance(self.kind, tuple):
            if value is not None and value not in self.kind:
                raise UsageError(f"{self.name} must be one of {self.kind}, got {value!r}")
        elif self.kind not in (int, float, bool, str):
            return self.kind(value)
        elif self.kind is float and not math.isfinite(value):
            raise UsageError(f"{self.name} must be a finite number, got {value!r}")
        if self.valid is not None and not self.valid[0](value):
            raise UsageError(f"{self.name} must be {self.valid[1]}, got {value!r}")
        return value

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")

    def add_flag(self, group) -> None:
        shown = ("on" if self.default else "off") if self.kind is bool else self.default
        kwargs = {"dest": self.name, "help": f"{self.help} (default: {shown})"}
        if self.kind is bool:
            kwargs.update(action="store_const", const=not self.default)
        elif isinstance(self.kind, tuple):
            kwargs.update(choices=self.kind)
        elif self.kind in (int, float):
            kwargs.update(type=self.kind)
        group.add_argument(self.option, **kwargs)


_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_TREES = ("dtr", "rfr")
_SVRS = ("svr", "svr-rbf")
_DATA = ("train", "evaluate", "importance", "bet")  # commands that load a data_dir
_BETS = ("evaluate", "bet")

RUN_SETTINGS = (
    Setting("data_dir", help="directory holding fixtures.csv, player_stats.csv, odds.csv",
            commands=_DATA),
    Setting("out_dir", default="runs", help="output directory", commands=("predict", *_DATA)),
    Setting("test_size", int, 100, _AT_LEAST_1, help="fixtures held out for testing",
            commands=_DATA),
    Setting("approach", APPROACHES, help="feature approach", commands=("train", "importance")),
    Setting("technique", ML_TECHNIQUES, help="regression technique", commands=("train",)),
    Setting("model", HEURISTICS, help="heuristic model", commands=("train", *_BETS)),
    Setting("seed", int, 0, _NON_NEGATIVE, {"rfr": "seed"}, "random seed"),
    Setting("schema", help="feature schema JSON; unset means the bundled one", commands=_DATA),
    Setting("stake", float, 1.0, _POSITIVE, help="stake per bet", commands=_BETS),
    Setting("missing_odds", MISSING_ODDS_POLICIES, "skip",
            help="policy for a predicted scoreline without odds", commands=_BETS),
)
HYPERPARAMETERS = (
    Setting("knn_k", int, 5, _AT_LEAST_1, {"knn": "k"}, "neighbours averaged"),
    Setting("tree_depth", int, 6, _AT_LEAST_1, dict.fromkeys(_TREES, "max_depth"),
            "maximum tree depth"),
    Setting("tree_min_leaf", int, 5, _AT_LEAST_1, dict.fromkeys(_TREES, "min_leaf"),
            "minimum rows per leaf"),
    Setting("forest_trees", int, 100, _AT_LEAST_1, {"rfr": "n_trees"}, "trees per forest"),
    Setting("forest_features", _parse_forest_features, "sqrt", None,
            {"rfr": "max_features"}, 'per-split feature subset: "sqrt", "all" or an int'),
    Setting("forest_bootstrap", bool, True, None, {"rfr": "bootstrap"},
            "turn off bootstrap sampling of each tree's rows",
            flag="--forest-no-bootstrap"),
    Setting("forest_fraction", float, 1.0, (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            {"rfr": "bootstrap_fraction"}, "bootstrap sample size as a fraction of the rows"),
    Setting("svr_c", float, 1.0, _POSITIVE, dict.fromkeys(_SVRS, "C"), "SVR penalty C"),
    Setting("svr_epsilon", float, 0.1, _NON_NEGATIVE, dict.fromkeys(_SVRS, "epsilon"),
            "half-width of the insensitive tube"),
    Setting("svr_tol", float, 1e-6, _NON_NEGATIVE, dict.fromkeys(_SVRS, "tol"),
            "stopping tolerance: the linear SVR's duality gap relative to its "
            "objective, the RBF SVR's KKT gap"),
    Setting("svr_max_iter", int, 50_000, _AT_LEAST_1, dict.fromkeys(_SVRS, "max_iter"),
            "iteration cap: Newton steps (linear) or SMO pair steps (RBF)"),
    Setting("svr_gamma", _parse_gamma, "scale", None, {"svr-rbf": "gamma"},
            'RBF width: "scale" or a positive float'),
)
SETTINGS = {s.name: s for s in RUN_SETTINGS + HYPERPARAMETERS}
# the settings a trained pair's manifest does not fix: an --artifacts run
# takes these from its own command line
UNTRAINED = ("out_dir", "stake", "missing_odds")


def parse_config_file(path) -> dict:
    """key = value lines; blank lines and full-line # comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = SETTINGS[key].read(raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return out


class RunConfig(SimpleNamespace):
    """Fully resolved run settings (defaults < config file < CLI flags), one
    attribute per entry of SETTINGS."""

    def as_dict(self) -> dict:
        return dict(vars(self))

    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {name: s.default for name, s in SETTINGS.items()}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for name in SETTINGS:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    return RunConfig(**{name: s.resolve(values[name]) for name, s in SETTINGS.items()})


def technique_params(cfg: RunConfig, technique: str) -> tuple[str, dict]:
    """Map a CLI technique name to (engine name, fit keyword arguments)."""
    engine, fixed = TECHNIQUE_ENGINES[technique]
    tuned = {s.engine[technique]: getattr(cfg, s.name)
             for s in SETTINGS.values() if technique in s.engine}
    return engine, {**fixed, **tuned}


# ------------------------------------------------------------------ helpers

def data_fingerprint(data_dir) -> str:
    sha = hashlib.sha256()
    for name in DATA_FILES:
        sha.update(name.encode())
        with open(Path(data_dir, name), "rb") as fh:  # in blocks: no whole-file copy
            for block in iter(lambda: fh.read(1 << 16), b""):
                sha.update(block)
    return sha.hexdigest()[:16]


def load_context(data_dir, test_size: int, schema) -> tuple[Dataset, FeatureBuilder]:
    """The dataset and its feature builder, per a run's or a train manifest's config."""
    if not data_dir:
        raise UsageError("data_dir is required (flag --data-dir or config file)")
    dataset = load_dataset(data_dir, test_size)
    return dataset, FeatureBuilder(dataset, load_schema(schema) if schema else default_schema())


def run_record(cfg: RunConfig) -> dict:
    """The config, its hash and the seed, as every manifest records them."""
    return {"config": cfg.as_dict(), "config_hash": cfg.config_hash(), "seed": cfg.seed}


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def fnum(x) -> str:
    """Round-trippable cell text for optional floats."""
    if x is None:
        return ""
    return repr(float(x))


def build_pair(builder: FeatureBuilder, fixtures, approach: str, require_target=True) -> dict:
    """The home and away feature matrices of one approach, by side."""
    return {side: builder.build_matrix(fixtures, approach, side, require_target=require_target)
            for side in SIDES}


def split_pairs(dataset: Dataset, builder: FeatureBuilder, approaches) -> tuple[dict, dict]:
    """Train and test matrices by approach and side, cut from one build per
    side over every fixture. Every train part is cut before any test part,
    so the first ``NoRowsBuilt`` is the one separate builds would raise."""
    train_ids = {f.fixture_id for f in dataset.train_fixtures}
    test_ids = {f.fixture_id for f in dataset.test_fixtures}
    full, train = {}, {}
    for approach in approaches:
        for side in SIDES:
            full[approach, side] = builder.build_matrix(dataset.fixtures, approach, side)
            train.setdefault(approach, {})[side] = full[approach, side].part(train_ids)
    test = {a: {side: full[a, side].part(test_ids) for side in SIDES} for a in approaches}
    return train, test


def train_pair(cfg: RunConfig, matrices: dict, technique: str) -> dict:
    """Fit home and away models of one technique on their training matrices."""
    engine, params = technique_params(cfg, technique)
    return {side: fit_model(engine, m.X(), m.y(), params, feature_names=m.feature_names)
            for side, m in matrices.items()}


def _train_manifest(cfg: RunConfig, label: str, models: dict, matrices: dict,
                    schema_fp: str) -> dict:
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": "train",
        "label": label,
        "approach": cfg.approach,
        "technique": cfg.technique,
        **run_record(cfg),
        "data_fingerprint": data_fingerprint(cfg.data_dir),
        "schema_fingerprint": schema_fp,
        "feature_count": models["home"].n_features,
        "rows": {side: len(m.rows) for side, m in matrices.items()},
        "skipped": {side: [list(s) for s in m.skipped] for side, m in matrices.items()},
    }
    if cfg.approach == "players":
        manifest["coverage"] = {side: m.coverage for side, m in matrices.items()}
    if cfg.technique in _SVRS:
        manifest["svr_status"] = {side: m.status for side, m in models.items()}
    if cfg.technique in _TREES:
        manifest["tree_size"] = {side: tree_size(m.trees) for side, m in models.items()}
    return manifest


# ----------------------------------------------------------------- commands

def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.model is not None:
        raise UsageError("heuristics need no training; use `evaluate --model`")
    if not cfg.approach or not cfg.technique:
        raise UsageError("train requires --approach and --technique")
    dataset, builder = load_context(cfg.data_dir, cfg.test_size, cfg.schema)
    label = f"{cfg.approach}+{cfg.technique}"
    matrices = build_pair(builder, dataset.train_fixtures, cfg.approach)
    models = train_pair(cfg, matrices, cfg.technique)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for side, model in models.items():
        save_model(model, out_dir / f"model_{side}.json")
    write_json(out_dir / "train_manifest.json",
               _train_manifest(cfg, label, models, matrices, builder.schema.fingerprint()))
    print(f"trained {label}: {len(matrices['home'].rows)} home rows, "
          f"{len(matrices['away'].rows)} away rows, {models['home'].n_features} features")
    for side, matrix in matrices.items():
        for fid, reason in matrix.skipped:
            print(f"skipped {side} {fid}: {reason}")
    print(f"artifacts written to {out_dir}")
    return 0


def _check_trained_flags(args: argparse.Namespace, trained: dict) -> None:
    """Refuse the flags an --artifacts run would drop: a setting the train
    manifest fixes, given on the command line with another value."""
    dropped = [s.option for name, s in SETTINGS.items()
               if name not in UNTRAINED and getattr(args, name, None) is not None
               and s.resolve(getattr(args, name)) != trained.get(name)]
    if dropped:
        raise UsageError(f"{', '.join(dropped)} cannot change a trained pair; "
                         "--artifacts takes these settings from its train manifest")


# the fields an --artifacts run reads from a train manifest, and their types
MANIFEST_FIELDS = {"label": str, "approach": str, "config_hash": str, "seed": int, "config": dict}
MANIFEST_CONFIG = {"data_dir": str, "test_size": int, "schema": (str, type(None))}


def _mistyped(blob: dict, fields: dict, prefix: str = "") -> list[str]:
    return [prefix + key for key, kind in fields.items()
            if not isinstance(blob.get(key), kind) or isinstance(blob.get(key), bool)]


def read_train_manifest(path: Path) -> dict:
    """A train manifest, with the fields an --artifacts run reads."""
    manifest = read_json(path, "train manifest")
    if not isinstance(manifest, dict):
        raise BadArtifact(f"train manifest {path} is not a JSON object")
    bad = _mistyped(manifest, MANIFEST_FIELDS)
    if "config" not in bad:
        bad += _mistyped(manifest["config"], MANIFEST_CONFIG, "config.")
    if bad:
        raise BadArtifact(f"train manifest {path} lacks a valid {', '.join(bad)}")
    return manifest


def _load_artifacts(args: argparse.Namespace):
    """A train run's manifest, its model pair, and the dataset and feature
    builder of its config, once the command line is checked against it."""
    art = Path(args.artifacts)
    manifest_path = art / "train_manifest.json"
    home_path = art / "model_home.json"
    away_path = art / "model_away.json"
    for path in (manifest_path, home_path, away_path):
        if not path.exists():
            raise MissingArtifact(path)
    manifest = read_train_manifest(manifest_path)
    _check_trained_flags(args, manifest["config"])
    pair = ModelPairPredictor(manifest["label"], load_model(home_path), load_model(away_path))
    conf = manifest["config"]
    return manifest, pair, *load_context(conf["data_dir"], conf["test_size"], conf.get("schema"))


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not args.artifacts:
        raise UsageError("predict requires --artifacts DIR from a train run")
    if not args.fixtures:
        raise UsageError("predict requires --fixtures FILE of upcoming matches")
    manifest, pair, _dataset, builder = _load_artifacts(args)
    upcoming = load_fixtures(args.fixtures, require_goals=False)
    pset = pair.predict(upcoming, build_pair(builder, upcoming, manifest["approach"],
                                             require_target=False))
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "predictions.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_predictions_csv(pset, out)
    for fid, reason in pset.skipped:
        print(f"skipped {fid}: {reason}")
    if pset.coverage is not None and pset.coverage < 1.0:
        print(f"coverage warning: only {100 * pset.coverage:.1f}% of listed "
              f"lineup players are known from training", file=sys.stderr)
    print(f"wrote {len(pset.predictions)} predictions to {out}")
    return 0


def _grid_prediction_sets(cfg: RunConfig, dataset: Dataset, train: dict,
                          test: dict) -> list[PredictionSet]:
    """Heuristics, then every approach x technique; ``train`` and ``test``
    hold each approach's matrices by side."""
    psets = []
    for name in HEURISTICS:
        predictor = HeuristicPredictor(name, dataset.train_fixtures,
                                       history=dataset.fixtures)
        psets.append(predictor.predict(dataset.test_fixtures))
    for approach in APPROACHES:
        for technique in ML_TECHNIQUES:
            models = train_pair(cfg, train[approach], technique)
            pair = ModelPairPredictor(f"{approach}+{technique}", models["home"], models["away"])
            psets.append(pair.predict(dataset.test_fixtures, test[approach]))
    return psets


def _single_prediction_set(cfg: RunConfig, args: argparse.Namespace):
    """One PredictionSet, its dataset, the training matrices to rank, and the
    run record for the manifest, per CLI selection; a trained pair keeps its
    train manifest's record, since that config made its predictions."""
    if getattr(args, "artifacts", None):
        manifest, pair, dataset, builder = _load_artifacts(args)
        approach = manifest["approach"]
        train, test = split_pairs(dataset, builder, [approach])
        pset = pair.predict(dataset.test_fixtures, test[approach])
        importance = {approach: train[approach]} if approach in STATS_APPROACHES else {}
        record = {key: manifest[key] for key in ("config", "config_hash", "seed")}
        return [pset], dataset, importance, record
    if cfg.model is not None:
        dataset, _builder = load_context(cfg.data_dir, cfg.test_size, cfg.schema)
        predictor = HeuristicPredictor(cfg.model, dataset.train_fixtures,
                                       history=dataset.fixtures)
        return [predictor.predict(dataset.test_fixtures)], dataset, {}, run_record(cfg)
    raise UsageError("evaluate needs --all, --model NAME, or --artifacts DIR")


def _importance_rows(train: dict) -> list[list]:
    """Chi-squared rankings of each approach's training matrices."""
    rows = []
    for approach, matrices in train.items():
        for side, matrix in matrices.items():
            ranking = chi2_importance(matrix.X(), matrix.y(), matrix.feature_names)
            for feature, score in ranking:
                rows.append([approach, side, feature, fnum(score)])
    return rows


def _evaluate_bundle(cfg: RunConfig, dataset: Dataset, psets: list,
                     out_dir: Path, seed: int) -> dict:
    """Write the full report bundle; returns the scenario value map."""
    by_id = {f.fixture_id: f for f in dataset.fixtures}
    fitness_rows = []
    standings_rows = []
    tau_rows = []
    zone_rows = []
    bet_rows = []
    values = {s: {} for s in SCENARIOS}
    notes = []

    for pset in psets:
        label = pset.model
        preds = pset.predictions
        covered = [by_id[p.fixture_id] for p in preds]
        fr_home = fitness([p.raw_home for p in preds],
                          [p.actual_home for p in preds], label, "home")
        fr_away = fitness([p.raw_away for p in preds],
                          [p.actual_away for p in preds], label, "away")
        for fr in (fr_home, fr_away):
            fitness_rows.append([fr.model, fr.side, fr.n, fnum(fr.mae),
                                 fnum(fr.rmse), fnum(fr.r2)])
        values["home"][label] = fr_home.mae
        values["away"][label] = fr_away.mae

        pred_table = simulate_standings(preds, covered)
        act_table = actual_standings(covered)
        for source, table in (("predicted", pred_table), ("actual", act_table)):
            for pos, row in enumerate(table.rows, start=1):
                standings_rows.append([label, source, pos, row.team, row.played,
                                       row.points, row.goal_diff, row.goals_for])
        tau = kendall_tau(pred_table, act_table)
        values["standings"][label] = tau
        tau_rows.append([label, fnum(tau)])
        try:
            top4 = zone_accuracy(pred_table, act_table, "top-4")
            bottom3 = zone_accuracy(pred_table, act_table, "bottom-3")
        except EvaluateError as exc:
            top4 = bottom3 = None
            notes.append(f"{label}: zone accuracy unavailable ({exc})")
        values["top4"][label] = top4
        values["relegation"][label] = bottom3
        zone_rows.append([label, fnum(top4), fnum(bottom3)])

        ledger = bet_run(preds, dataset.odds, cfg.stake, cfg.missing_odds)
        values["betting"][label] = ledger.net_earnings
        correct = sum(1 for e in ledger.entries if e.correct)
        bet_rows.append([label, fnum(ledger.stake), ledger.policy,
                         ledger.bets_placed, ledger.bets_skipped, correct,
                         fnum(ledger.total_payout), fnum(ledger.net_earnings)])

        for fid, reason in pset.skipped:
            notes.append(f"{label}: skipped {fid}: {reason}")

    ranks = {s: rank_models(values[s], HIGHER_IS_BETTER[s]) for s in SCENARIOS}
    overview = rank_sum_overview(ranks, models=[p.model for p in psets])

    write_csv(out_dir / "fitness.csv",
              ["model", "side", "n", "mae", "rmse", "r2"], fitness_rows)
    write_csv(out_dir / "standings.csv",
              ["model", "source", "position", "team", "played", "points",
               "goal_diff", "goals_for"], standings_rows)
    write_csv(out_dir / "tau.csv", ["model", "tau"], tau_rows)
    write_csv(out_dir / "zones.csv", ["model", "top4_pct", "bottom3_pct"],
              zone_rows)
    write_csv(out_dir / "betting.csv",
              ["model", "stake", "policy", "bets_placed", "bets_skipped",
               "correct_scorelines", "total_payout", "net_earnings"], bet_rows)
    write_csv(out_dir / "predictions.csv", PREDICTION_COLUMNS, prediction_rows(psets))
    write_csv(out_dir / "overview.csv",
              ["model", *SCENARIOS, "rank_sum"],
              [[row.model, *(r for _, r in row.ranks), row.rank_sum]
               for row in overview])

    summary = [
        "scoreline evaluation summary",
        f"data: {cfg.data_dir or 'per train manifest'} "
        f"({len(dataset.train_fixtures)} train / {len(dataset.test_fixtures)} test fixtures)",
        f"seed {seed}, stake {cfg.stake:g}, missing-odds policy {cfg.missing_odds}",
        "",
        "model ranking (rank sum over six scenarios, lower is better):",
    ]
    for i, row in enumerate(overview, start=1):
        scen = ", ".join(f"{name} {rank}" for name, rank in row.ranks)
        summary.append(f"{i:3d}. {row.model:24s} rank sum {row.rank_sum:3d}  ({scen})")
    if notes:
        summary.append("")
        summary.append("notes:")
        summary.extend(f"  {note}" for note in notes)
    summary.append("")
    (out_dir / "summary.txt").write_text("\n".join(summary), encoding="utf-8")
    return values


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.all:
        clash = [flag for flag, given in (("--artifacts", args.artifacts),
                                          ("--model", args.model)) if given]
        if clash:
            raise UsageError(f"--all cannot be combined with {' or '.join(clash)}")
        dataset, builder = load_context(cfg.data_dir, cfg.test_size, cfg.schema)
        train, test = split_pairs(dataset, builder, APPROACHES)
        psets = _grid_prediction_sets(cfg, dataset, train, test)
        importance = {a: train[a] for a in STATS_APPROACHES}
        record = run_record(cfg)
    else:
        psets, dataset, importance, record = _single_prediction_set(cfg, args)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _evaluate_bundle(cfg, dataset, psets, out_dir, record["seed"])
    if importance:
        write_csv(out_dir / "importance.csv", IMPORTANCE_COLUMNS,
                  _importance_rows(importance))
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": "evaluate",
        **record,
        "data_fingerprint": data_fingerprint(record["config"]["data_dir"]),
        "models": [p.model for p in psets],
        "skipped": {p.model: [list(s) for s in p.skipped] for p in psets},
    }
    write_json(out_dir / "evaluate_manifest.json", manifest)
    print(f"evaluated {len(psets)} model(s); reports in {out_dir}")
    print((out_dir / "summary.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_importance(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.approach:
        raise UsageError("importance requires --approach")
    dataset, builder = load_context(cfg.data_dir, cfg.test_size, cfg.schema)
    rows = _importance_rows(
        {cfg.approach: build_pair(builder, dataset.train_fixtures, cfg.approach)})
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "importance.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, IMPORTANCE_COLUMNS, rows)
    print(f"wrote {len(rows)} feature scores to {out}")
    for approach, side, feature, score in rows[:5]:
        print(f"  {side:5s} {feature:24s} {score}")
    return 0


def cmd_bet(cfg: RunConfig, args: argparse.Namespace) -> int:
    psets, dataset, _importance, _record = _single_prediction_set(cfg, args)
    pset = psets[0]
    ledger = bet_run(pset.predictions, dataset.odds, cfg.stake, cfg.missing_odds)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "betting_ledger.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [[pset.model, e.fixture_id, e.pred_home, e.pred_away, e.odds_found,
             fnum(e.odds), e.correct, fnum(e.payout)] for e in ledger.entries]
    write_csv(out, ["model", "fixture_id", "pred_home", "pred_away",
                    "odds_found", "odds", "correct", "payout"], rows)
    print(f"{pset.model}: placed {ledger.bets_placed}, skipped "
          f"{ledger.bets_skipped}, payout {ledger.total_payout:.2f}, "
          f"net {ledger.net_earnings:+.2f}")
    print(f"ledger written to {out}")
    return 0


# --------------------------------------------------------------- arg parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreline",
        description="Football score prediction: features, regressors, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, help):  # config files may still set any key
        command_parser = sub.add_parser(command, help=help)
        run = command_parser.add_argument_group("run configuration")
        run.add_argument("--config", help="key = value config file")
        hyper = command_parser.add_argument_group("hyperparameters")
        for group, settings in ((run, RUN_SETTINGS), (hyper, HYPERPARAMETERS)):
            for setting in settings:
                if command in setting.commands:
                    setting.add_flag(group)
        return command_parser

    add("train", help="fit home/away models and write artifacts")
    p_predict = add("predict", help="predict scorelines for a fixtures file")
    p_predict.add_argument("--artifacts", help="directory written by train")
    p_predict.add_argument("--fixtures", help="fixtures CSV (goals may be empty)")
    p_predict.add_argument("--out", help="output CSV path")
    p_eval = add("evaluate", help="run the evaluation suite")
    p_eval.add_argument("--all", action="store_true",
                        help="full grid: every approach x technique + heuristics")
    p_eval.add_argument("--artifacts", help="evaluate one trained model pair")
    p_imp = add("importance", help="chi-squared feature ranking for an approach")
    p_imp.add_argument("--out", help="output CSV path")
    p_bet = add("bet", help="betting backtest for one model")
    p_bet.add_argument("--artifacts", help="evaluate one trained model pair")
    p_bet.add_argument("--out", help="output CSV path")
    return parser


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "importance": cmd_importance,
    "bet": cmd_bet,
}

DATA_ERRORS = (IngestError, FeatureError, HeuristicError, PredictError,
               EvaluateError, RegressError, StoreError, SchemaError,
               MissingArtifact, OSError, ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
