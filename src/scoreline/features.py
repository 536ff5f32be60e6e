"""Walk-forward feature construction for the three model input styles.

Three matrix flavours share one builder:

* ``players``: sparse membership encoding, +1 for home starters, -1 for
  away starters, 0 otherwise, over the training-set player universe.
* ``lineup_stats``: per-position-group means of the starters' form
  averages, 40 offensive + 12 defensive = 52 features.
* ``team_stats``: same 52-feature layout, averaged over every player with
  an archive appearance for the team inside the aggregation window instead
  of the starting eleven.

Every number is computed from archive records strictly before the fixture
kickoff, within the fixture's season plus the immediately previous one, so
rebuilding a row after deleting all records at or past kickoff reproduces
it bit for bit. Aggregating is pure over the immutable dataset; rows can
be built concurrently and are returned in kickoff order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ingest import Dataset, Fixture
from .schema import DEFENSIVE_GROUPS, OFFENSIVE_GROUPS, FeatureSchema, default_schema

APPROACHES = ("players", "lineup_stats", "team_stats")
SIDES = ("home", "away")


class FeatureError(Exception):
    """Base class for feature construction failures."""


class MissingLineup(FeatureError):
    def __init__(self, fixture_id: str):
        self.fixture_id = fixture_id
        super().__init__(f"fixture {fixture_id!r} has no lineups")


class EmptyGroup(FeatureError):
    def __init__(self, group: str, stat: str):
        self.group = group
        self.stat = stat
        super().__init__(f"no {group} data and no league fallback for stat {stat!r}")


class UnknownTeam(FeatureError):
    def __init__(self, team: str):
        self.team = team
        super().__init__(f"team {team!r} has no archive records")


class NoRowsBuilt(FeatureError):
    def __init__(self, approach: str, side: str):
        super().__init__(f"no {approach}/{side} rows could be built")


@dataclass(frozen=True)
class FeatureRow:
    """One model input row plus its goals-scored target."""

    fixture_id: str
    side: str
    values: np.ndarray
    target: int | None
    fallback_groups: tuple[str, ...] = ()
    dropped_players: int = 0


@dataclass
class FeatureMatrix:
    """Rows sharing one approach, side and schema, plus a skip report."""

    approach: str
    side: str
    feature_names: tuple[str, ...]
    rows: list[FeatureRow] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    players_listed: int = 0
    players_dropped: int = 0

    def X(self) -> np.ndarray:
        return np.array([row.values for row in self.rows], dtype=np.float64)

    def y(self) -> np.ndarray:
        return np.array([row.target for row in self.rows], dtype=np.float64)

    def fixture_ids(self) -> list[str]:
        return [row.fixture_id for row in self.rows]

    @property
    def coverage(self) -> float:
        """Share of listed lineup players present in the universe."""
        if self.players_listed == 0:
            return 1.0
        return 1.0 - self.players_dropped / self.players_listed


class _Rec(NamedTuple):
    kickoff: datetime
    fixture_id: str
    season: int
    group: str
    stats: dict


class FeatureBuilder:
    """Feature assembly over one immutable dataset.

    The player universe for the ``players`` encoding is frozen from the
    dataset's training fixtures at construction time.
    """

    def __init__(self, dataset: Dataset, schema: FeatureSchema | None = None):
        self.dataset = dataset
        self.schema = schema or default_schema()

        by_id = {f.fixture_id: f for f in dataset.fixtures}
        self._player_records: dict[str, list[_Rec]] = {}
        self._all_records: list[tuple[_Rec, str]] = []  # (record, player_id)
        self._team_appearances: dict[str, list[tuple[datetime, int, str]]] = {}
        for rec in dataset.stats.records():
            fixture = by_id[rec.fixture_id]
            entry = _Rec(fixture.kickoff, fixture.fixture_id, fixture.season, rec.position_group, dict(rec.stats))
            self._player_records.setdefault(rec.player_id, []).append(entry)
            self._all_records.append((entry, rec.player_id))
            team = _attributed_team(fixture, rec.player_id)
            if team is not None:
                self._team_appearances.setdefault(team, []).append(
                    (fixture.kickoff, fixture.season, rec.player_id)
                )
        for recs in self._player_records.values():
            recs.sort(key=lambda r: (r.kickoff, r.fixture_id))
        self._all_records.sort(key=lambda item: (item[0].kickoff, item[0].fixture_id, item[1]))
        for apps in self._team_appearances.values():
            apps.sort()

        universe = set()
        for f in dataset.train_fixtures:
            for lineup in (f.home_lineup, f.away_lineup):
                if lineup:
                    universe.update(lineup)
        self.player_universe: tuple[str, ...] = tuple(sorted(universe))
        self._universe_index = {p: i for i, p in enumerate(self.player_universe)}

        self._league_cache: dict[tuple[int, datetime], dict[str, float]] = {}

    # -- per-player aggregation ------------------------------------------

    def player_form_average(self, player_id: str, as_of: datetime, season: int):
        """Per-stat mean over the player's windowed matches, or None if cold.

        The window is every match strictly before ``as_of`` in the given
        season plus every match of the season before it. A stat missing
        from a record is unmeasured, not zero.
        """
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        hit = False
        for rec in self._player_records.get(player_id, ()):
            if rec.kickoff >= as_of or rec.season not in (season, season - 1):
                continue
            hit = True
            for stat, value in rec.stats.items():
                sums[stat] = sums.get(stat, 0.0) + value
                counts[stat] = counts.get(stat, 0) + 1
        if not hit:
            return None
        return {stat: sums[stat] / counts[stat] for stat in sums}

    def _group_of(self, player_id: str, as_of: datetime, season: int) -> str | None:
        """Position group from the player's most recent windowed record."""
        group = None
        for rec in self._player_records.get(player_id, ()):
            if rec.kickoff >= as_of or rec.season not in (season, season - 1):
                continue
            group = rec.group
        return group

    def _league_means(self, as_of: datetime, season: int) -> dict[str, float]:
        key = (season, as_of)
        cached = self._league_cache.get(key)
        if cached is not None:
            return cached
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for rec, _pid in self._all_records:
            if rec.kickoff >= as_of or rec.season not in (season, season - 1):
                continue
            for stat, value in rec.stats.items():
                sums[stat] = sums.get(stat, 0.0) + value
                counts[stat] = counts.get(stat, 0) + 1
        means = {stat: sums[stat] / counts[stat] for stat in sums}
        self._league_cache[key] = means
        return means

    def group_aggregate(
        self,
        players: Sequence[str],
        group: str,
        as_of: datetime,
        season: int,
        stat_names: Sequence[str],
    ) -> tuple[list[float], bool]:
        """Mean of the pool's per-player form averages for one group.

        Cold players (no windowed record) are ignored; if nobody in the
        pool covers a stat the league-wide windowed mean substitutes, and
        the returned flag reports that any fallback was used.
        """
        members = [p for p in players if self._group_of(p, as_of, season) == group]
        forms = {p: self.player_form_average(p, as_of, season) for p in members}
        values: list[float] = []
        used_fallback = False
        league = None
        for stat in stat_names:
            vals = [forms[p][stat] for p in members if stat in forms[p]]
            if vals:
                values.append(sum(vals) / len(vals))
                continue
            if league is None:
                league = self._league_means(as_of, season)
            if stat not in league:
                raise EmptyGroup(group, stat)
            values.append(league[stat])
            used_fallback = True
        return values, used_fallback

    # -- row assembly -----------------------------------------------------

    def _assemble_stats_row(self, fixture: Fixture, side: str, own_pool, opp_pool) -> FeatureRow:
        as_of, season = fixture.kickoff, fixture.season
        values: list[float] = []
        fallbacks: list[str] = []
        for group in OFFENSIVE_GROUPS:
            vec, fb = self.group_aggregate(own_pool, group, as_of, season, self.schema.offensive[group])
            values.extend(vec)
            if fb:
                fallbacks.append(f"own:{group}")
        for group in DEFENSIVE_GROUPS:
            vec, fb = self.group_aggregate(opp_pool, group, as_of, season, self.schema.defensive[group])
            values.extend(vec)
            if fb:
                fallbacks.append(f"opp:{group}")
        return FeatureRow(
            fixture_id=fixture.fixture_id,
            side=side,
            values=np.array(values, dtype=np.float64),
            target=fixture.goals(side),
            fallback_groups=tuple(fallbacks),
        )

    def assemble_lineup_features(self, fixture: Fixture, side: str) -> FeatureRow:
        """52-feature row from the two starting elevens."""
        if not fixture.has_lineups():
            raise MissingLineup(fixture.fixture_id)
        opp = "away" if side == "home" else "home"
        return self._assemble_stats_row(fixture, side, fixture.lineup(side), fixture.lineup(opp))

    def _squad(self, team: str, as_of: datetime, season: int) -> tuple[str, ...]:
        players = {
            pid
            for kickoff, rec_season, pid in self._team_appearances.get(team, ())
            if kickoff < as_of and rec_season in (season, season - 1)
        }
        return tuple(sorted(players))

    def assemble_team_features(self, fixture: Fixture, side: str) -> FeatureRow:
        """52-feature row averaging every windowed squad member, lineups ignored."""
        opp = "away" if side == "home" else "home"
        own_team, opp_team = fixture.team(side), fixture.team(opp)
        for team in (own_team, opp_team):
            if team not in self._team_appearances:
                raise UnknownTeam(team)
        own_pool = self._squad(own_team, fixture.kickoff, fixture.season)
        opp_pool = self._squad(opp_team, fixture.kickoff, fixture.season)
        return self._assemble_stats_row(fixture, side, own_pool, opp_pool)

    def encode_players(self, fixture: Fixture, side: str) -> FeatureRow:
        """Membership row over the training player universe.

        Players outside the universe are dropped silently; the count is
        carried on the row so matrices can report coverage.
        """
        if not fixture.has_lineups():
            raise MissingLineup(fixture.fixture_id)
        values = np.zeros(len(self.player_universe), dtype=np.float64)
        dropped = 0
        for player in fixture.home_lineup:
            idx = self._universe_index.get(player)
            if idx is None:
                dropped += 1
            else:
                values[idx] = 1.0
        for player in fixture.away_lineup:
            idx = self._universe_index.get(player)
            if idx is None:
                dropped += 1
            else:
                values[idx] = -1.0
        return FeatureRow(
            fixture_id=fixture.fixture_id,
            side=side,
            values=values,
            target=fixture.goals(side),
            dropped_players=dropped,
        )

    def build_matrix(
        self,
        fixtures: Iterable[Fixture],
        approach: str,
        side: str,
        require_target: bool = True,
    ) -> FeatureMatrix:
        """One row per eligible fixture in kickoff order, plus a skip report.

        Row-level errors become skip entries; only producing zero rows is
        fatal.
        """
        if approach not in APPROACHES:
            raise FeatureError(f"approach must be one of {APPROACHES}, got {approach!r}")
        if side not in SIDES:
            raise FeatureError(f"side must be one of {SIDES}, got {side!r}")
        if approach == "players":
            names = self.player_universe
        else:
            names = self.schema.feature_names(side)
        matrix = FeatureMatrix(approach=approach, side=side, feature_names=names)
        ordered = sorted(fixtures, key=lambda f: (f.kickoff, f.fixture_id))
        for fixture in ordered:
            if require_target and fixture.goals(side) is None:
                matrix.skipped.append((fixture.fixture_id, "missing result"))
                continue
            try:
                if approach == "players":
                    row = self.encode_players(fixture, side)
                    matrix.players_listed += len(fixture.home_lineup) + len(fixture.away_lineup)
                    matrix.players_dropped += row.dropped_players
                elif approach == "lineup_stats":
                    row = self.assemble_lineup_features(fixture, side)
                else:
                    row = self.assemble_team_features(fixture, side)
            except (MissingLineup, EmptyGroup, UnknownTeam) as exc:
                matrix.skipped.append((fixture.fixture_id, str(exc)))
                continue
            matrix.rows.append(row)
        if not matrix.rows:
            raise NoRowsBuilt(approach, side)
        return matrix


def _attributed_team(fixture: Fixture, player_id: str) -> str | None:
    # Archive records map to a team through the fixture's lineups; records
    # on fixtures without lineups stay unattributed for squad purposes.
    if fixture.home_lineup and player_id in fixture.home_lineup:
        return fixture.home_team
    if fixture.away_lineup and player_id in fixture.away_lineup:
        return fixture.away_team
    return None
