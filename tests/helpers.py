"""Tiny factories and reference oracles shared across test modules."""

import math
import os
import signal
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from scoreline.features import APPROACHES, SIDES, FeatureBuilder, NoRowsBuilt
from scoreline.ingest import (
    POSITION_GROUPS,
    STATS_COLUMNS,
    Dataset,
    Fixture,
    NegativeStat,
    ParseError,
    PlayerMatchStats,
    StatsArchive,
    UnknownFixture,
    _rows,
)
from scoreline.predict import ScorelinePrediction
from scoreline.regress import tree, workers
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
    return Dataset(fixtures=ordered, stats=StatsArchive.of(records),
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
    trees = [nested_tree({name: col.tolist() for name, col in tree._asdict().items()})
             for tree in model.trees]
    if model.technique == "dtr":
        return {**model.params, "root": trees[0]}
    return {"params": model.params, "trees": trees}


def load_stats_by_rows(path, fixtures) -> StatsArchive:
    """The stats loader as a row-at-a-time reader: each row is checked as
    it is read, in order, and the first check it fails raises."""
    known = {f.fixture_id for f in fixtures}
    records: dict[tuple[str, str], PlayerMatchStats] = {}
    for rownum, (pid, fid, group, stat, raw) in _rows(path, STATS_COLUMNS, "stats"):
        player, fixture, position, name = pid.strip(), fid.strip(), group.strip(), stat.strip()
        for value, column in ((player, "player_id"), (fixture, "fixture_id")):
            if not value:
                raise ParseError(rownum, f"missing value for {column!r}")
            if column == "fixture_id" and value not in known:
                raise UnknownFixture(value)
        if not position:
            raise ParseError(rownum, "missing value for 'position_group'")
        if position not in POSITION_GROUPS:
            raise ParseError(rownum, f"position_group {position!r} not in {POSITION_GROUPS}")
        if not name:
            raise ParseError(rownum, "missing value for 'stat_name'")
        try:
            value = float(raw)
        except ValueError:
            if raw.strip():
                raise ParseError(rownum, f"value {raw!r} is not a number")
            raise ParseError(rownum, "missing value for 'value'")
        if not math.isfinite(value):
            raise ParseError(rownum, f"stat {name!r} is not finite")
        if value < 0:
            raise NegativeStat(player, name)
        key = (player, fixture)
        record = records.setdefault(key, PlayerMatchStats(player, fixture, position, {}))
        if record.position_group != position:
            raise ParseError(rownum, f"conflicting position_group for {key}")
        if name in record.stats:
            raise ParseError(rownum, f"duplicate stat {name!r} for {key}")
        record.stats[name] = value
    return StatsArchive.of(records.values())


def archive_records(archive: StatsArchive) -> list:
    """An archive's records as comparable tuples, each record's stats in
    the order it lists them."""
    return sorted((r.player_id, r.fixture_id, r.position_group, tuple(r.stats.items()))
                  for r in archive.records())


def truncated_builder(dataset: Dataset, cutoff) -> FeatureBuilder:
    """Builder over the dataset with all records from kickoff >= cutoff gone."""
    by_id = {f.fixture_id: f for f in dataset.fixtures}
    kept = [r for r in dataset.stats.records()
            if by_id[r.fixture_id].kickoff < cutoff]
    clipped = Dataset(fixtures=dataset.fixtures, stats=StatsArchive.of(kept),
                      odds=dataset.odds, split_index=dataset.split_index)
    return FeatureBuilder(clipped)


def assert_no_lookahead(dataset: Dataset, builder: FeatureBuilder) -> int:
    """Every feature row survives truncation at its own kickoff, bitwise."""
    checked = 0
    for fixture in dataset.fixtures:
        clipped = truncated_builder(dataset, fixture.kickoff)
        for side in SIDES:
            for approach in APPROACHES:
                try:
                    full, cut = (b.build_matrix([fixture], approach, side).rows[0]
                                 for b in (builder, clipped))
                except NoRowsBuilt:
                    continue
                np.testing.assert_array_equal(full.values, cut.values)
                checked += 1
    return checked


def forest_children_fail(monkeypatch, how: str) -> None:
    """Make every forked child of this process fail as it grows a forest:
    raise a ValueError ("raises"), exit 3 without a result ("exits"), die
    of SIGKILL ("killed"), or hang while this process is interrupted as it
    grows its own forests ("interrupted"). Otherwise this process grows
    its forests as before; a fit run spreads over three groups."""
    parent, grow = os.getpid(), tree.grow_trees

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

    monkeypatch.setattr(tree, "grow_trees", failing)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def assert_no_child_left(open_fds: int) -> None:
    """No child process is left, reaped or not, and no pipe to one is open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fd_count() == open_fds
