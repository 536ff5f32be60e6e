"""Command-line interface: train, predict, evaluate, importance, bet.

Runs are driven by a key=value config file plus CLI overrides; every
artifact embeds the resolved config hash, the seed and a dataset
fingerprint so identical runs produce identical bytes.

Exit codes: 0 success, 1 data/model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .evaluate import (
    EvaluateError,
    MISSING_ODDS_POLICIES,
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
from .heuristics import HEURISTICS, HeuristicError, actual_standings
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
    pair_scorelines,
    prediction_rows,
    save_predictions_csv,
)
from .regress import (_FITS, BadArtifact, BadParameter, RegressError, StoreError, fit_model,
                      load_model, save_model, workers)
from .regress.base import ARGUMENTS, AT_LEAST_1, POSITIVE, check
from .regress.store import read_json
from .regress.tree import tree_size
from .schema import FeatureSchema, SchemaError, default_schema, load_schema

# each CLI technique's engine and the fit keywords it fixes
TECHNIQUE_ENGINES = {
    "lr": ("lr", {}), "knn": ("knn", {}), "dtr": ("dtr", {}), "rfr": ("rfr", {}),
    "svr": ("svr", {"kernel": "linear"}), "svr-rbf": ("svr", {"kernel": "rbf"}),
}
ML_TECHNIQUES = tuple(TECHNIQUE_ENGINES)
# each ranked scenario, in overview.csv column order, and whether a higher
# value ranks better
SCENARIOS = {
    "home": False, "away": False, "betting": True,
    "standings": True, "top4": True, "relegation": True,
}
# each per-model bundle file and its header, in the order the bundle writes them
REPORTS = {
    "fitness.csv": ("model", "side", "n", "mae", "rmse", "r2"),
    "standings.csv": ("model", "source", "position", "team", "played", "points",
                      "goal_diff", "goals_for"),
    "tau.csv": ("model", "tau"),
    "zones.csv": ("model", "top4_pct", "bottom3_pct"),
    "betting.csv": ("model", "stake", "policy", "bets_placed", "bets_skipped",
                    "correct_scorelines", "total_payout", "net_earnings"),
    "predictions.csv": PREDICTION_COLUMNS,
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

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class Setting(NamedTuple):
    """One run setting. Its config key is ``name`` and its flag is ``flag``,
    by default ``--`` plus the name with ``-`` for ``_``.

    ``kind``, ``valid`` and ``words``, fields 1-3, are its rule, as an
    engine argument's ARGUMENTS row (see ``regress.base.check``). ``engine``
    maps each technique the setting feeds to its fit keyword. ``commands``
    name the subcommands that read it and so take its flag.
    """

    name: str
    kind: object = str
    valid: tuple | None = None
    words: tuple = ()
    default: object = None
    engine: dict = {}
    help: str = ""
    flag: str | None = None
    commands: tuple = ("train", "evaluate")

    def read(self, raw: str):
        """A config file's text as this setting's type, or as one of its words."""
        if raw in self.words or self.kind not in (int, float, bool):
            return raw
        return _parse_bool(raw) if self.kind is bool else self.kind(raw)

    def resolve(self, value):
        """The merged value checked as an engine argument is; None is unset."""
        try:
            return value if value is None else check(self.name, value, *self[1:4])
        except BadParameter as exc:
            raise UsageError(str(exc)) from None

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")

    def add_flag(self, group) -> None:
        shown = ("on" if self.default else "off") if self.kind is bool else self.default
        kwargs = {"dest": self.name, "help": f"{self.help} (default: {shown})"}
        if self.kind is bool:
            kwargs.update(action="store_const", const=not self.default)
        elif isinstance(self.kind, tuple):  # argparse strips before it checks the choices
            kwargs.update(type=str.strip, choices=self.kind)
        elif self.words:  # stripped as a config value is; resolve converts it
            kwargs.update(type=str.strip)
        elif self.kind in (int, float):
            kwargs.update(type=self.kind)
        group.add_argument(self.option, **kwargs)


_DATA = ("train", "evaluate", "importance", "bet")  # commands that load a data_dir
_BETS = ("evaluate", "bet")
# each technique's fit keywords and their defaults
_KEYWORDS = {technique: inspect.signature(_FITS[engine]).parameters
             for technique, (engine, _fixed) in TECHNIQUE_ENGINES.items()}


def _engine_setting(name: str, keyword: str, help: str, **options) -> Setting:
    """The setting feeding fit keyword ``keyword`` to each technique whose
    fit takes it, with the keyword's ARGUMENTS rule and the fit's default."""
    engine = {technique: keyword for technique, params in _KEYWORDS.items() if keyword in params}
    default = _KEYWORDS[next(iter(engine))][keyword].default
    return Setting(name, *ARGUMENTS[keyword], default=default, engine=engine, help=help, **options)


RUN_SETTINGS = (
    Setting("data_dir", help="directory holding fixtures.csv, player_stats.csv, odds.csv",
            commands=_DATA),
    Setting("out_dir", default="runs", help="output directory", commands=("predict", *_DATA)),
    Setting("test_size", int, AT_LEAST_1, default=100, help="fixtures held out for testing",
            commands=_DATA),
    Setting("approach", APPROACHES, help="feature approach", commands=("train", "importance")),
    Setting("technique", ML_TECHNIQUES, help="regression technique", commands=("train",)),
    Setting("model", HEURISTICS, help="heuristic model", commands=("train", *_BETS)),
    _engine_setting("seed", "seed", "random seed"),
    Setting("schema", help="feature schema JSON; unset means the bundled one", commands=_DATA),
    Setting("stake", float, POSITIVE, default=1.0, help="stake per bet", commands=_BETS),
    Setting("missing_odds", MISSING_ODDS_POLICIES, default="skip",
            help="policy for a predicted scoreline without odds", commands=_BETS),
)
HYPERPARAMETERS = (
    _engine_setting("knn_k", "k", "neighbours averaged"),
    _engine_setting("tree_depth", "max_depth", "maximum tree depth"),
    _engine_setting("tree_min_leaf", "min_leaf", "minimum rows per leaf"),
    _engine_setting("forest_trees", "n_trees", "trees per forest"),
    _engine_setting("forest_features", "max_features",
                    'per-split feature subset: "sqrt", "all" or an int'),
    _engine_setting("forest_bootstrap", "bootstrap",
                    "turn off bootstrap sampling of each tree's rows",
                    flag="--forest-no-bootstrap"),
    _engine_setting("forest_fraction", "bootstrap_fraction",
                    "bootstrap sample size as a fraction of the rows"),
    _engine_setting("svr_c", "C", "SVR penalty C"),
    _engine_setting("svr_epsilon", "epsilon", "half-width of the insensitive tube"),
    _engine_setting("svr_tol", "tol",
                    "stopping tolerance: the duality gap relative to max(1, objective)"),
    _engine_setting("svr_max_iter", "max_iter", "cap on the interior-point solver's Newton steps"),
    _engine_setting("svr_gamma", "gamma", 'RBF width: "scale" or a positive float'),
)
SETTINGS = {s.name: s for s in RUN_SETTINGS + HYPERPARAMETERS}
# the settings a trained pair's manifest does not fix: an --artifacts run
# takes these from its own command line
UNTRAINED = ("out_dir", "stake", "missing_odds")


def parse_config_file(path) -> dict:
    """key = value lines; blank lines and full-line # comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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

def _data_dir(data_dir):
    if not data_dir:
        raise UsageError("data_dir is required (flag --data-dir or config file)")
    return data_dir


def data_fingerprint(data_dir) -> str:
    sha = hashlib.sha256()
    for name in DATA_FILES:
        sha.update(name.encode())
        with open(Path(data_dir, name), "rb") as fh:  # in blocks: no whole-file copy
            for block in iter(lambda: fh.read(1 << 16), b""):
                sha.update(block)
    return sha.hexdigest()[:16]


def load_context(data_dir, test_size: int, schema, *, odds: bool
                 ) -> tuple[Dataset, FeatureSchema]:
    """The dataset and the feature schema, per a run's or a train manifest's
    config; only a command that places bets reads the odds."""
    dataset = load_dataset(_data_dir(data_dir), test_size, odds=odds)
    return dataset, load_schema(schema) if schema else default_schema()


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


def _matrices(dataset: Dataset, schema: FeatureSchema, fixtures, approaches,
              require_target=True):
    """Each approach's home and away matrices over ``fixtures``, as
    (approach, side, matrix), from one feature builder: the stats
    approaches and both sides read the same form tables, and the builder
    with its tables is dropped once the last matrix is out, before any fit."""
    builder = FeatureBuilder(dataset, schema)
    for approach in approaches:
        for side in SIDES:
            yield approach, side, builder.build_matrix(fixtures, approach, side, require_target)


def build_pair(dataset: Dataset, schema: FeatureSchema, fixtures, approach: str,
               require_target=True) -> dict:
    """The home and away feature matrices of one approach, by side."""
    return {side: m for _a, side, m in _matrices(dataset, schema, fixtures, [approach],
                                                 require_target)}


def split_pairs(dataset: Dataset, schema: FeatureSchema, approaches) -> tuple[dict, dict]:
    """Train and test matrices by approach and side, cut from one build per
    side over every fixture. Every train part is cut before any test part,
    so the first ``NoRowsBuilt`` is the one separate builds would raise."""
    train_ids = {f.fixture_id for f in dataset.train_fixtures}
    test_ids = {f.fixture_id for f in dataset.test_fixtures}
    full, train = {}, {}
    for approach, side, matrix in _matrices(dataset, schema, dataset.fixtures, approaches):
        full[approach, side] = matrix
        train.setdefault(approach, {})[side] = matrix.part(train_ids)
    test = {a: {side: full[a, side].part(test_ids) for side in SIDES} for a in approaches}
    return train, test


def run_fits(cfg: RunConfig, train: dict, approaches, techniques, finish=None) -> dict:
    """Fit one model per (side, approach, technique) job on
    ``train[approach][side]``; returns each job's ``finish(job, model)``, or
    its model, by job.

    The jobs, listed side-major, are cut into contiguous groups, one per
    usable CPU (``workers.split``); this process runs the first and a
    forked child each other (``workers.run_groups``), so on two CPUs the
    home fits run here and the away fits in one child. A group runs each
    of its fits even after one fails, and the error raised is the first in
    (approach, technique, side) order, the one a sequential run raises.
    No result depends on the number of groups.
    """
    jobs = list(itertools.product(SIDES, approaches, techniques))

    def work(group: slice) -> list:
        outcomes = []
        for job in jobs[group]:
            side, approach, technique = job
            matrix = train[approach][side]
            engine, params = technique_params(cfg, technique)
            try:
                model = fit_model(engine, matrix.X(), matrix.y(), params,
                                  feature_names=matrix.feature_names)
                outcomes.append((None, finish(job, model) if finish else model))
            except Exception as exc:  # raised below, in sequential order
                outcomes.append((exc, None))
        return outcomes

    done = dict(zip(jobs, itertools.chain.from_iterable(
        workers.run_groups(work, workers.split(len(jobs))))))
    for approach, technique, side in itertools.product(approaches, techniques, SIDES):
        error = done[side, approach, technique][0]
        if error is not None:
            raise error
    return {job: result for job, (_error, result) in done.items()}


def _train_manifest(cfg: RunConfig, label: str, models: dict, matrices: dict,
                    data_fp: str, schema_fp: str) -> dict:
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": "train",
        "label": label,
        "approach": cfg.approach,
        "technique": cfg.technique,
        **run_record(cfg),
        "data_fingerprint": data_fp,
        "schema_fingerprint": schema_fp,
        "feature_count": models["home"].n_features,
        "rows": {side: len(m.rows) for side, m in matrices.items()},
        "skipped": {side: [list(s) for s in m.skipped] for side, m in matrices.items()},
    }
    if matrices["home"].coverage is not None:
        manifest["coverage"] = {side: m.coverage for side, m in matrices.items()}
    if cfg.technique in ("svr", "svr-rbf"):
        manifest["svr_status"] = {side: m.status for side, m in models.items()}
    if cfg.technique in ("dtr", "rfr"):
        manifest["tree_size"] = {side: tree_size(m.trees) for side, m in models.items()}
    return manifest


# ----------------------------------------------------------------- commands

def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.model is not None:
        raise UsageError("heuristics need no training; use `evaluate --model`")
    if not cfg.approach or not cfg.technique:
        raise UsageError("train requires --approach and --technique")
    # before loading: train reads no odds, but the fingerprint covers every
    # data file, so a missing one fails before any artifact is written
    data_fp = data_fingerprint(_data_dir(cfg.data_dir))
    dataset, schema = load_context(cfg.data_dir, cfg.test_size, cfg.schema, odds=False)
    label = f"{cfg.approach}+{cfg.technique}"
    matrices = build_pair(dataset, schema, dataset.train_fixtures, cfg.approach)
    models = {side: model for (side, _a, _t), model in
              run_fits(cfg, {cfg.approach: matrices}, [cfg.approach], [cfg.technique]).items()}

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for side, model in models.items():
        save_model(model, out_dir / f"model_{side}.json")
    write_json(out_dir / "train_manifest.json",
               _train_manifest(cfg, label, models, matrices, data_fp, schema.fingerprint()))
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


def _load_artifacts(args: argparse.Namespace, odds: bool):
    """A train run's manifest, its model pair, and the dataset (with its
    odds, if ``odds``) and feature schema of its config, once the command
    line is checked against it."""
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
    return manifest, pair, *load_context(conf["data_dir"], conf["test_size"], conf.get("schema"),
                                         odds=odds)


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not args.artifacts:
        raise UsageError("predict requires --artifacts DIR from a train run")
    if not args.fixtures:
        raise UsageError("predict requires --fixtures FILE of upcoming matches")
    manifest, pair, dataset, schema = _load_artifacts(args, odds=False)
    upcoming = load_fixtures(args.fixtures, require_goals=False)
    pset = pair.predict(upcoming, build_pair(dataset, schema, upcoming, manifest["approach"],
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


def _prediction_sets(cfg: RunConfig, args: argparse.Namespace):
    """The prediction sets of the CLI selection, their dataset, the training
    matrices to rank and the run record: ``--all`` gives every heuristic,
    then every approach x technique, ``--model`` one heuristic, and
    ``--artifacts`` a trained pair with the record of the train manifest
    whose config made its predictions. A grid fit returns only its raw test
    predictions: no model outlives its fit or crosses a pipe."""
    grid, pair = getattr(args, "all", False), None  # bet takes no --all
    if getattr(args, "artifacts", None):
        manifest, pair, dataset, schema = _load_artifacts(args, odds=True)
        record = {key: manifest[key] for key in ("config", "config_hash", "seed")}
        approaches, names = [manifest["approach"]], ()
    elif grid or cfg.model is not None:
        dataset, schema = load_context(cfg.data_dir, cfg.test_size, cfg.schema, odds=True)
        record = run_record(cfg)
        approaches, names = (APPROACHES, HEURISTICS) if grid else ((), (cfg.model,))
    else:
        raise UsageError("evaluate needs --all, --model NAME, or --artifacts DIR")
    train, test = split_pairs(dataset, schema, approaches) if approaches else ({}, {})
    psets = [HeuristicPredictor(name, dataset.train_fixtures, history=dataset.fixtures)
             .predict(dataset.test_fixtures) for name in names]
    if pair is not None:
        psets.append(pair.predict(dataset.test_fixtures, test[approaches[0]]))
    elif grid:
        def predict_test(job, model):
            side, approach, _technique = job
            return model.predict(test[approach][side].X())

        raw = run_fits(cfg, train, APPROACHES, ML_TECHNIQUES, predict_test)
        psets += [pair_scorelines(f"{approach}+{technique}", dataset.test_fixtures,
                                  test[approach],
                                  {side: raw[side, approach, technique] for side in SIDES})
                  for approach in APPROACHES for technique in ML_TECHNIQUES]
    return psets, dataset, {a: train[a] for a in STATS_APPROACHES if a in train}, record


def _importance_rows(train: dict) -> list[list]:
    """Chi-squared rankings of each approach's training matrices."""
    rows = []
    for approach, matrices in train.items():
        for side, matrix in matrices.items():
            ranking = chi2_importance(matrix.X(), matrix.y(), matrix.feature_names)
            for feature, score in ranking:
                rows.append([approach, side, feature, fnum(score)])
    return rows


def _model_reports(cfg: RunConfig, dataset: Dataset, by_id: dict,
                   pset: PredictionSet) -> tuple[dict, dict, list]:
    """One model's rows of each REPORTS file, its value in each scenario and
    its summary notes, over the test fixtures it predicted."""
    label, preds = pset.model, pset.predictions
    covered = [by_id[p.fixture_id] for p in preds]
    fits = {side: fitness([getattr(p, f"raw_{side}") for p in preds],
                          [getattr(p, f"actual_{side}") for p in preds]) for side in SIDES}
    pred_table = simulate_standings(preds, covered)
    act_table = actual_standings(covered)
    tau = kendall_tau(pred_table, act_table)
    notes = []
    try:
        top4 = zone_accuracy(pred_table, act_table, "top-4")
        bottom3 = zone_accuracy(pred_table, act_table, "bottom-3")
    except EvaluateError as exc:
        top4 = bottom3 = None
        notes.append(f"{label}: zone accuracy unavailable ({exc})")
    ledger = bet_run(preds, dataset.odds, cfg.stake, cfg.missing_odds)
    notes += [f"{label}: skipped {fid}: {reason}" for fid, reason in pset.skipped]
    rows = {
        "fitness.csv": [[label, side, fr.n, fnum(fr.mae), fnum(fr.rmse), fnum(fr.r2)]
                        for side, fr in fits.items()],
        "standings.csv": [[label, table.source, pos, row.team, row.played, row.points,
                           row.goal_diff, row.goals_for]
                          for table in (pred_table, act_table)
                          for pos, row in enumerate(table.rows, start=1)],
        "tau.csv": [[label, fnum(tau)]],
        "zones.csv": [[label, fnum(top4), fnum(bottom3)]],
        "betting.csv": [[label, fnum(ledger.stake), ledger.policy, ledger.bets_placed,
                         ledger.bets_skipped, sum(e.correct for e in ledger.entries),
                         fnum(ledger.total_payout), fnum(ledger.net_earnings)]],
        "predictions.csv": prediction_rows([pset]),
    }
    values = {"home": fits["home"].mae, "away": fits["away"].mae,
              "betting": ledger.net_earnings, "standings": tau,
              "top4": top4, "relegation": bottom3}
    return rows, values, notes


def _evaluate_bundle(cfg: RunConfig, dataset: Dataset, psets: list,
                     out_dir: Path, record: dict) -> str:
    """Write the full report bundle; returns the summary text. ``record``
    names the data directory the run read and its seed."""
    by_id = {f.fixture_id: f for f in dataset.fixtures}
    model_rows, model_values, model_notes = zip(
        *(_model_reports(cfg, dataset, by_id, pset) for pset in psets))
    ranks = {s: rank_models({p.model: v[s] for p, v in zip(psets, model_values)}, higher)
             for s, higher in SCENARIOS.items()}
    overview = rank_sum_overview(ranks)
    for name, header in REPORTS.items():
        write_csv(out_dir / name, header, [row for rows in model_rows for row in rows[name]])
    write_csv(out_dir / "overview.csv",
              ["model", *SCENARIOS, "rank_sum"],
              [[row.model, *(r for _, r in row.ranks), row.rank_sum]
               for row in overview])

    summary = [
        "scoreline evaluation summary",
        f"data: {record['config']['data_dir']} "
        f"({len(dataset.train_fixtures)} train / {len(dataset.test_fixtures)} test fixtures)",
        f"seed {record['seed']}, stake {cfg.stake:g}, missing-odds policy {cfg.missing_odds}",
        "",
        "model ranking (rank sum over six scenarios, lower is better):",
    ]
    for i, row in enumerate(overview, start=1):
        scen = ", ".join(f"{name} {rank}" for name, rank in row.ranks)
        summary.append(f"{i:3d}. {row.model:24s} rank sum {row.rank_sum:3d}  ({scen})")
    notes = [f"  {note}" for one_model in model_notes for note in one_model]
    if notes:
        summary += ["", "notes:", *notes]
    summary.append("")
    text = "\n".join(summary)
    (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    return text


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.all:
        clash = [flag for flag, given in (("--artifacts", args.artifacts),
                                          ("--model", args.model)) if given]
        if clash:
            raise UsageError(f"--all cannot be combined with {' or '.join(clash)}")
    psets, dataset, importance, record = _prediction_sets(cfg, args)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = _evaluate_bundle(cfg, dataset, psets, out_dir, record)
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
    print(summary, end="")
    return 0


def cmd_importance(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.approach not in STATS_APPROACHES:  # chi-squared needs non-negative features
        raise UsageError(f"importance requires --approach {' or '.join(STATS_APPROACHES)}")
    dataset, schema = load_context(cfg.data_dir, cfg.test_size, cfg.schema, odds=False)
    rows = _importance_rows(
        {cfg.approach: build_pair(dataset, schema, dataset.train_fixtures, cfg.approach)})
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "importance.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, IMPORTANCE_COLUMNS, rows)
    print(f"wrote {len(rows)} feature scores to {out}")
    for approach, side, feature, score in rows[:5]:
        print(f"  {side:5s} {feature:24s} {score}")
    return 0


def cmd_bet(cfg: RunConfig, args: argparse.Namespace) -> int:
    psets, dataset, _importance, _record = _prediction_sets(cfg, args)
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
