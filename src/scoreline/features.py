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
it bit for bit. A matrix is built in one chronological pass: its rows are
assembled in kickoff order, and each player, team and league window only
moves forward, adding every record once to running sums in the order a
fresh scan would, so a row equals the same row built alone bit for bit.
No row depends on which other fixtures a build covers, so one build over
every fixture can be cut into train and test parts (``FeatureMatrix.part``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from datetime import datetime
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ingest import LINEUP_SIZE, Dataset, Fixture
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

    def X(self) -> np.ndarray:
        return np.array([row.values for row in self.rows], dtype=np.float64)

    def y(self) -> np.ndarray:
        return np.array([row.target for row in self.rows], dtype=np.float64)

    def fixture_ids(self) -> list[str]:
        return [row.fixture_id for row in self.rows]

    def part(self, fixture_ids: Collection[str]) -> FeatureMatrix:
        """The rows and skip entries of ``fixture_ids``, in kickoff order; as no
        row depends on what else a build covers, it equals a separate build
        of those fixtures and, like one, raises ``NoRowsBuilt`` when empty."""
        part = FeatureMatrix(self.approach, self.side, self.feature_names,
                             [row for row in self.rows if row.fixture_id in fixture_ids],
                             [skip for skip in self.skipped if skip[0] in fixture_ids])
        if not part.rows:
            raise NoRowsBuilt(self.approach, self.side)
        return part

    @property
    def players_listed(self) -> int:
        """Lineup players behind the rows: both elevens of each ``players`` row."""
        return 2 * LINEUP_SIZE * len(self.rows) if self.approach == "players" else 0

    @property
    def players_dropped(self) -> int:
        return sum(row.dropped_players for row in self.rows)

    @property
    def coverage(self) -> float:
        """Share of listed lineup players present in the universe."""
        if self.players_listed == 0:
            return 1.0
        return 1.0 - self.players_dropped / self.players_listed


class _Rec(NamedTuple):
    kickoff: datetime
    fixture_id: str
    player_id: str
    season: int
    group: str
    stats: Mapping[str, float]


_chronological = attrgetter("kickoff", "fixture_id", "player_id")


class _Window:
    """A forward-only cursor over one kickoff-sorted record list.

    ``advance(as_of)`` adds, in list order, every record of the target
    season or the one before it whose kickoff is before ``as_of``, so the
    state equals a fresh scan of the window bit for bit. ``as_of`` must
    not decrease over a window's life.
    """

    __slots__ = ("_records", "_seasons", "_pos")

    def __init__(self, records: Sequence, season: int):
        self._records = records
        self._seasons = (season, season - 1)
        self._pos = 0

    def advance(self, as_of: datetime) -> None:
        records, pos = self._records, self._pos
        while pos < len(records) and records[pos].kickoff < as_of:
            if records[pos].season in self._seasons:
                self._add(records[pos])
            pos += 1
        self._pos = pos

    def _add(self, rec) -> None:
        raise NotImplementedError


class _FormWindow(_Window):
    """Running per-stat sums and the latest group over windowed ``_Rec``s."""

    __slots__ = ("sums", "counts", "group")

    def __init__(self, records: Sequence[_Rec], season: int):
        super().__init__(records, season)
        self.sums: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.group: str | None = None  # None while the window is cold

    def _add(self, rec: _Rec) -> None:
        self.group = rec.group
        sums, counts = self.sums, self.counts
        for stat, value in rec.stats.items():
            sums[stat] = sums.get(stat, 0.0) + value
            counts[stat] = counts.get(stat, 0) + 1

    def means(self) -> dict[str, float]:
        return {stat: self.sums[stat] / self.counts[stat] for stat in self.sums}


class _SquadWindow(_Window):
    """Every player with a windowed appearance for one team."""

    __slots__ = ("players",)

    def __init__(self, records: Sequence[_Rec], season: int):
        super().__init__(records, season)
        self.players: set[str] = set()

    def _add(self, rec: _Rec) -> None:
        self.players.add(rec.player_id)


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
        self._all_records: list[_Rec] = []
        self._team_appearances: dict[str, list[_Rec]] = {}
        for rec in dataset.stats.records():
            fixture = by_id[rec.fixture_id]
            # The dataset is immutable, so the record's own mapping is held.
            entry = _Rec(fixture.kickoff, fixture.fixture_id, rec.player_id, fixture.season,
                         rec.position_group, rec.stats)
            self._player_records.setdefault(rec.player_id, []).append(entry)
            self._all_records.append(entry)
            team = _attributed_team(fixture, rec.player_id)
            if team is not None:
                self._team_appearances.setdefault(team, []).append(entry)
        for recs in (self._all_records, *self._player_records.values(), *self._team_appearances.values()):
            recs.sort(key=_chronological)

        universe = set()
        for f in dataset.train_fixtures:
            for lineup in (f.home_lineup, f.away_lineup):
                if lineup:
                    universe.update(lineup)
        self.player_universe: tuple[str, ...] = tuple(sorted(universe))
        self._universe_index = {p: i for i, p in enumerate(self.player_universe)}

    # -- per-player aggregation ------------------------------------------

    def _window(self, key: tuple, as_of: datetime, windows: dict | None):
        """Window ``key`` advanced to ``as_of``: fresh, or kept in ``windows``.

        A key is ("form", player_id, season), with player_id None for the
        whole league, or ("squad", team, season). One build keeps its
        windows in one dict; its kickoffs never decrease.
        """
        windows = {} if windows is None else windows
        window = windows.get(key)
        if window is None:
            kind, name, season = key
            if kind == "squad":
                window = _SquadWindow(self._team_appearances.get(name, ()), season)
            else:
                records = self._all_records if name is None else self._player_records.get(name, ())
                window = _FormWindow(records, season)
            windows[key] = window
        window.advance(as_of)
        return window

    def player_form_average(self, player_id: str, as_of: datetime, season: int, windows: dict | None = None):
        """Per-stat mean over the player's windowed matches, or None if cold.

        The window is every match strictly before ``as_of`` in the given
        season plus every match of the season before it. A stat missing
        from a record is unmeasured, not zero.
        """
        window = self._window(("form", player_id, season), as_of, windows)
        return window.means() if window.group is not None else None

    def _group_of(self, player_id: str, as_of: datetime, season: int, windows: dict | None = None) -> str | None:
        """Position group from the player's most recent windowed record."""
        return self._window(("form", player_id, season), as_of, windows).group

    def _league_means(self, as_of: datetime, season: int, windows: dict | None = None) -> dict[str, float]:
        return self._window(("form", None, season), as_of, windows).means()

    def group_aggregate(
        self,
        players: Sequence[str],
        group: str,
        as_of: datetime,
        season: int,
        stat_names: Sequence[str],
        windows: dict | None = None,
    ) -> tuple[list[float], bool]:
        """Mean of the pool's per-player form averages for one group.

        Cold players (no windowed record) are ignored; if nobody in the
        pool covers a stat the league-wide windowed mean substitutes, and
        the returned flag reports that any fallback was used. ``windows``
        are one build's, carried over from its earlier kickoffs; without
        them every window starts fresh.
        """
        windows = {} if windows is None else windows
        members = [p for p in players if self._group_of(p, as_of, season, windows) == group]
        forms = {p: self.player_form_average(p, as_of, season, windows) for p in members}
        values: list[float] = []
        used_fallback = False
        league = None
        for stat in stat_names:
            vals = [forms[p][stat] for p in members if stat in forms[p]]
            if vals:
                values.append(sum(vals) / len(vals))
                continue
            if league is None:
                league = self._league_means(as_of, season, windows)
            if stat not in league:
                raise EmptyGroup(group, stat)
            values.append(league[stat])
            used_fallback = True
        return values, used_fallback

    # -- row assembly -----------------------------------------------------

    def _assemble_stats_row(self, fixture: Fixture, side: str, own_pool, opp_pool, windows: dict | None) -> FeatureRow:
        as_of, season = fixture.kickoff, fixture.season
        windows = {} if windows is None else windows
        values: list[float] = []
        fallbacks: list[str] = []
        for group in OFFENSIVE_GROUPS:
            vec, fb = self.group_aggregate(own_pool, group, as_of, season, self.schema.offensive[group], windows)
            values.extend(vec)
            if fb:
                fallbacks.append(f"own:{group}")
        for group in DEFENSIVE_GROUPS:
            vec, fb = self.group_aggregate(opp_pool, group, as_of, season, self.schema.defensive[group], windows)
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

    def assemble_lineup_features(self, fixture: Fixture, side: str, windows: dict | None = None) -> FeatureRow:
        """52-feature row from the two starting elevens."""
        if not fixture.has_lineups():
            raise MissingLineup(fixture.fixture_id)
        opp = "away" if side == "home" else "home"
        return self._assemble_stats_row(fixture, side, fixture.lineup(side), fixture.lineup(opp), windows)

    def _squad(self, team: str, as_of: datetime, season: int, windows: dict | None = None) -> tuple[str, ...]:
        # Sorted, because the pool order fixes group_aggregate's summation order.
        return tuple(sorted(self._window(("squad", team, season), as_of, windows).players))

    def assemble_team_features(self, fixture: Fixture, side: str, windows: dict | None = None) -> FeatureRow:
        """52-feature row averaging every windowed squad member, lineups ignored."""
        opp = "away" if side == "home" else "home"
        own_team, opp_team = fixture.team(side), fixture.team(opp)
        for team in (own_team, opp_team):
            if team not in self._team_appearances:
                raise UnknownTeam(team)
        own_pool = self._squad(own_team, fixture.kickoff, fixture.season, windows)
        opp_pool = self._squad(opp_team, fixture.kickoff, fixture.season, windows)
        return self._assemble_stats_row(fixture, side, own_pool, opp_pool, windows)

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
        windows: dict = {}  # this build's windows; kickoffs only move forward
        for fixture in ordered:
            if require_target and fixture.goals(side) is None:
                matrix.skipped.append((fixture.fixture_id, "missing result"))
                continue
            try:
                if approach == "players":
                    row = self.encode_players(fixture, side)
                elif approach == "lineup_stats":
                    row = self.assemble_lineup_features(fixture, side, windows)
                else:
                    row = self.assemble_team_features(fixture, side, windows)
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
