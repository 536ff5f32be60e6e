"""Tiny factories and reference oracles shared across test modules."""

import os
import signal
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from scoreline.features import (
    APPROACHES,
    EmptyGroup,
    FeatureBuilder,
    MissingLineup,
    UnknownTeam,
)
from scoreline.ingest import Dataset, Fixture, PlayerMatchStats, StatsArchive
from scoreline.predict import ScorelinePrediction
from scoreline.regress import forest, workers
from scoreline.regress.tree import Tree

BASE_KICKOFF = datetime(2020, 9, 1, 15, 0)


def fx(fid: str, day: float, home: str, away: str, hg=None, ag=None,
       season: int = 2020, home_lineup=None, away_lineup=None) -> Fixture:
    """Fixture factory; ``day`` is an offset in days from BASE_KICKOFF."""
    return Fixture(
        fixture_id=fid,
        season=season,
        kickoff=BASE_KICKOFF + timedelta(days=day),
        home_team=home,
        away_team=away,
        home_goals=hg,
        away_goals=ag,
        home_lineup=tuple(home_lineup) if home_lineup else None,
        away_lineup=tuple(away_lineup) if away_lineup else None,
    )


def rec(player: str, fid: str, group: str, **stats) -> PlayerMatchStats:
    return PlayerMatchStats(player_id=player, fixture_id=fid,
                            position_group=group,
                            stats={k: float(v) for k, v in stats.items()})


def mini_dataset(fixtures, records, odds=None, split_index=None) -> Dataset:
    """Dataset from loose parts, sorted the way load_dataset would sort."""
    ordered = tuple(sorted(fixtures, key=lambda f: (f.kickoff, f.fixture_id)))
    if split_index is None:
        split_index = len(ordered)
    return Dataset(fixtures=ordered, stats=StatsArchive(records),
                   odds=dict(odds or {}), split_index=split_index)


def pred(fid: str, ph: int, pa: int, ah=None, aa=None, model: str = "m",
         raw_home=None, raw_away=None) -> ScorelinePrediction:
    return ScorelinePrediction(
        fixture_id=fid, model=model,
        raw_home=float(ph) if raw_home is None else float(raw_home),
        raw_away=float(pa) if raw_away is None else float(raw_away),
        pred_home=ph, pred_away=pa, actual_home=ah, actual_away=aa)


# ------------------------------------------------------- reference oracles


def sse(v):
    v = np.asarray(v, dtype=np.float64)
    return float(((v - v.mean()) ** 2).sum()) if v.size else 0.0


def exhaustive_tree_sse(X, y, rows, depth, max_depth, min_leaf):
    """Reference CART: try every (feature, midpoint) split, recurse greedily."""
    sub_y = y[rows]
    if depth >= max_depth or len(rows) < 2 * min_leaf or np.all(sub_y == sub_y[0]):
        return sse(sub_y)
    best = None
    for feat in range(X.shape[1]):
        values = np.unique(X[rows, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = rows[X[rows, feat] <= thr]
            right = rows[X[rows, feat] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            cost = sse(y[left]) + sse(y[right])
            key = (cost, feat, thr)
            if best is None or key < best[0]:
                best = (key, left, right)
    if best is None:
        return sse(sub_y)
    (_cost, _feat, _thr), left, right = best
    return (exhaustive_tree_sse(X, y, left, depth + 1, max_depth, min_leaf)
            + exhaustive_tree_sse(X, y, right, depth + 1, max_depth, min_leaf))


def leaf_tree(value: float) -> Tree:
    """A one-node tree that predicts ``value`` for every row."""
    return Tree(*(np.array([fill]) for fill in (-1, 0.0, value, 1, -1, -1)))


def nested_tree(arrays: dict, node: int = 0) -> dict:
    """A tree's node lists (as a payload holds them) as nested node dicts:
    a leaf is {value, n}, a split node adds feature, threshold, left, right."""
    out = {"value": arrays["value"][node], "n": arrays["n"][node]}
    if arrays["feature"][node] >= 0:
        out.update(feature=arrays["feature"][node], threshold=arrays["threshold"][node],
                   left=nested_tree(arrays, arrays["left"][node]),
                   right=nested_tree(arrays, arrays["right"][node]))
    return out


def nested_payload(model) -> dict:
    """A dtr or rfr model's payload in the nested form of format version 1,
    in which the tree goldens were hashed."""
    trees = [nested_tree(arrays) for arrays in model.payload()["trees"]]
    if model.technique == "dtr":
        return {**model.params, "root": trees[0]}
    return {"params": model.params, "trees": trees}


def truncated_builder(dataset: Dataset, cutoff) -> FeatureBuilder:
    """Builder over the dataset with all records from kickoff >= cutoff gone."""
    by_id = {f.fixture_id: f for f in dataset.fixtures}
    kept = [r for r in dataset.stats.records()
            if by_id[r.fixture_id].kickoff < cutoff]
    clipped = Dataset(fixtures=dataset.fixtures, stats=StatsArchive(kept),
                      odds=dataset.odds, split_index=dataset.split_index)
    return FeatureBuilder(clipped)


def assert_no_lookahead(dataset: Dataset, builder: FeatureBuilder) -> int:
    """Every feature row survives truncation at its own kickoff, bitwise."""
    checked = 0
    for fixture in dataset.fixtures:
        clipped = truncated_builder(dataset, fixture.kickoff)
        for side in ("home", "away"):
            for approach in APPROACHES:
                try:
                    if approach == "players":
                        full = builder.encode_players(fixture, side)
                        cut = clipped.encode_players(fixture, side)
                    elif approach == "lineup_stats":
                        full = builder.assemble_lineup_features(fixture, side)
                        cut = clipped.assemble_lineup_features(fixture, side)
                    else:
                        full = builder.assemble_team_features(fixture, side)
                        cut = clipped.assemble_team_features(fixture, side)
                except (MissingLineup, EmptyGroup, UnknownTeam):
                    continue
                np.testing.assert_array_equal(full.values, cut.values)
                checked += 1
    return checked


def forest_children_fail(monkeypatch, how: str) -> None:
    """Make every forked child of this process fail as it grows its trees:
    raise a ValueError ("raises"), exit 3 without a result ("exits"), die
    of SIGKILL ("killed"), or hang while this process is interrupted as it
    grows its own group ("interrupted"). Otherwise this process grows its
    own group as before; forests grow in three groups."""
    parent, grow = os.getpid(), forest.grow_trees

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            if how == "interrupted":
                raise KeyboardInterrupt
        elif how == "raises":
            raise ValueError("split search failed in a child")
        elif how == "exits":
            os._exit(3)
        elif how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            time.sleep(60)
        return grow(*args, **kwargs)

    monkeypatch.setattr(forest, "grow_trees", failing)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def assert_no_child_left(open_fds: int) -> None:
    """No child process is left, reaped or not, and no pipe to one is open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fd_count() == open_fds
