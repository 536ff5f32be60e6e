"""Walk-forward feature construction for the three model input styles.

Three matrix flavours share one builder:

* ``players``: sparse membership encoding, +1 for home starters, -1 for
  away starters, 0 otherwise, over the training-set player universe.
* ``lineup_stats``: per-position-group means of the starters' form
  averages, 40 offensive + 12 defensive = 52 features.
* ``team_stats``: same 52-feature layout, averaged over every player with
  an archive appearance for the team inside the aggregation window instead
  of the starting eleven.

:meth:`FeatureBuilder.build_matrix` is the only way to read features: it
builds one approach and side over any set of fixtures, and reports each
fixture it skips with the reason.

Every number is computed from archive records strictly before the fixture
kickoff, within the fixture's season plus the immediately previous one, so
rebuilding a row after deleting all records at or past kickoff reproduces
it bit for bit. No row depends on which other fixtures a build covers, so
one build over every fixture can be cut into train and test parts
(``FeatureMatrix.part``).

The builder reads the archive as prefix sums. At its first stats build it
puts the archive's columns in kickoff order once (:class:`_Columns`), and
each season pair {s-1, s} gets one track (:class:`_Track`): the pair's
records ordered by player, then kickoff. A player's window before a
kickoff is then a prefix of the player's run of rows, found by one search
on (player, kickoff rank). The track also keeps each stat's league mean
before every kickoff, from the stat's first fallback on. A build takes
one position group at a time: running sums and counts along each
player's run give the form averages at every row of the group, read off
at each pool member's latest row. The track keeps each group's table, so
every later build on the same builder (either side, either stats
approach) reads it instead of computing it again; a builder, and the
tables with it, lives as long as one command's feature build.

Each value equals a scan of the window bit for bit:

* every running sum adds its values left to right from 0.0, in (kickoff,
  fixture_id) order, as a cumsum does; the columns hold -0.0 as 0.0,
  since 0.0 + -0.0 is 0.0;
* an unmeasured stat adds 0.0, which leaves a sum of non-negative values
  unchanged, and nothing to the stat's count;
* a group's value adds its members' form averages in pool order (lineup
  order, or the squad in player-id order) with a cumsum along the member
  axis, then divides by their count, as ``sum(vals) / len(vals)`` does;
* the league fallback sums the pair's records in (kickoff, fixture_id,
  player_id) order.

Kickoffs compare as ``datetime64[us]``, exactly as the naive datetimes do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Collection, Iterable, Sequence

import numpy as np

from .ingest import LINEUP_SIZE, Dataset, Fixture, kickoff_order
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
    def coverage(self) -> float | None:
        """Share of listed lineup players present in the universe; None outside players."""
        if self.approach != "players":
            return None
        if self.players_listed == 0:
            return 1.0
        return 1.0 - self.players_dropped / self.players_listed


class _Columns:
    """The stats archive as columns, in kickoff order.

    Records go in (kickoff, fixture_id, player_id) order. Players, groups
    and teams are indices into sorted name lists, and a kickoff is its
    rank among the dataset's distinct kickoffs. Record i's stat columns
    are ``layouts[kind[i]]``, and its values, in the same order, start at
    ``value[start[i]]``; both are the archive's own. ``place[kind[i], col]``
    is a stat column's position among them, or -1 where the record leaves
    the stat unmeasured.
    """

    def __init__(self, dataset: Dataset):
        fixtures = sorted(dataset.fixtures, key=kickoff_order)
        kickoffs = np.array([f.kickoff for f in fixtures], dtype="datetime64[us]")
        self.kickoffs = kickoffs[np.append(True, kickoffs[1:] != kickoffs[:-1])]  # distinct
        self.span = len(self.kickoffs) + 1  # above every kickoff rank

        stats = dataset.stats
        self.player_ids, self.group_names = stats.player_ids, stats.group_names
        self.player_index = {p: i for i, p in enumerate(self.player_ids)}
        self.group_index = {g: i for i, g in enumerate(self.group_names)}
        self.stat_index = {n: i for i, n in enumerate(stats.stat_names)}
        self.layouts = [list(layout) for layout in stats.layouts]
        self.value = stats.value
        self.place = np.full((len(self.layouts), len(self.stat_index)), -1, dtype=np.int32)
        for row, layout in zip(self.place, self.layouts):
            row[layout] = np.arange(len(layout))
        rank = {f.fixture_id: i for i, f in enumerate(fixtures)}
        fixture = np.array([rank[fid] for fid in stats.fixture_ids], dtype=np.int64)[stats.fixture]

        # a record counts for the team whose lineup names its player in its
        # fixture: owner[fixture, player] is written away, then home, so home
        # wins where both lineups name the player; a lineup player without
        # records writes the last column, which no record reads
        teams = sorted({team for f in fixtures for team in (f.home_team, f.away_team)})
        index = {team: i for i, team in enumerate(teams)}
        owner = np.full((len(fixtures), len(self.player_ids) + 1), -1, dtype=np.int32)
        for row, f in zip(owner, fixtures):
            for lineup, club in ((f.away_lineup, f.away_team), (f.home_lineup, f.home_team)):
                row[[self.player_index.get(p, -1) for p in lineup or ()]] = index[club]
        team = owner[fixture, stats.player]
        present = np.unique(team[team >= 0])
        self.team_index = {teams[t]: i for i, t in enumerate(present.tolist())}

        order = np.lexsort((stats.player, fixture))
        fixture, self.player = fixture[order], stats.player[order]
        self.time = np.searchsorted(self.kickoffs, kickoffs).astype(np.int32)[fixture]
        self.season = np.array([f.season for f in fixtures])[fixture]
        self.group = stats.group[order]
        self.team = np.where(team >= 0, np.searchsorted(present, team), -1).astype(np.int32)[order]
        self.kind = stats.kind[order]
        self.start = stats.start[order]

    def reader(self, recs: np.ndarray):
        """A reader of the stats of records ``recs``: given a stat column,
        it returns the positions in ``recs`` of the records that measure
        the stat, and the values."""
        kinds, starts = self.kind[recs], self.start[recs]

        def column(col: int) -> tuple[np.ndarray, np.ndarray]:
            place = self.place[kinds, col]
            has = np.flatnonzero(place >= 0)
            return has, self.value[starts[has] + place[has]]
        return column

    def times(self, kickoffs: Sequence[datetime]) -> np.ndarray:
        """Each kickoff's rank: the number of distinct kickoffs before it."""
        return np.searchsorted(self.kickoffs, np.array(kickoffs, dtype="datetime64[us]"))


class _Track:
    """The records of seasons {season - 1, season}, for prefix sums.

    Rows are the pair's records ordered by player, then kickoff, keyed
    ``player * span + kickoff rank``; ``runs`` bounds each player's rows.
    ``group`` and ``slot`` (a row's place among its group's rows) end with
    an entry for row -1, a cold player. Each stat's league means, each
    group's form averages and the squads are found on first use and kept.
    """

    def __init__(self, archive: _Columns, season: int):
        self.archive = archive
        # the pair's records in kickoff order, then by player
        self.pair = np.flatnonzero((archive.season == season) | (archive.season == season - 1))
        self.rec = self.pair[np.argsort(archive.player[self.pair], kind="stable")]
        player = archive.player[self.rec]
        self.keys = player.astype(np.int64) * archive.span + archive.time[self.rec]
        self.runs = np.flatnonzero(np.diff(player, prepend=-1, append=-1))  # player run bounds
        self.group = np.append(archive.group[self.rec], np.int32(-1))
        self.slot = np.zeros(len(self.group), dtype=np.int32)
        for code in range(len(archive.group_names)):
            rows = self.group == code
            self.slot[rows] = np.arange(np.count_nonzero(rows), dtype=np.int32)
        self._squads: tuple[np.ndarray, np.ndarray] | None = None
        self._league: dict[int, np.ndarray] = {}  # by stat column, per kickoff rank
        self._forms: dict[tuple, dict[int, np.ndarray]] = {}  # by group code and columns
        self._pair_column = archive.reader(self.pair)

    def league(self, col: int | None, times: np.ndarray) -> np.ndarray:
        """The league mean of stat column ``col`` over the pair's records
        before each kickoff rank in ``times``; NaN where there is none."""
        if col is None:
            return np.full(len(times), np.nan)
        if col not in self._league:
            # the running sum and count over the pair in kickoff order, read
            # off before each kickoff
            has, values = self._pair_column(col)
            before = np.searchsorted(self.archive.time[self.pair], np.arange(self.archive.span))
            counts = np.searchsorted(has, before)
            sums = np.concatenate(([0.0], np.cumsum(values)))[counts]
            self._league[col] = np.divide(sums, counts, out=np.full(len(sums), np.nan),
                                          where=counts > 0)
        return self._league[col][times]

    def latest(self, players: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The row of each player's latest record before its row's time, or
        -1 while cold; ``players`` is (rows, pool) with -1 for nobody."""
        base = players * self.archive.span
        end = np.searchsorted(self.keys, base + times[:, None])
        return np.where((players >= 0) & (end > np.searchsorted(self.keys, base)), end - 1, -1)

    def forms(self, code: int, cols: Sequence[int | None]) -> dict[int, np.ndarray]:
        """The form averages of stat columns ``cols`` at each row of group
        ``code``: the player's per-stat sums over their rows up to it,
        divided by the stat's count; NaN where unmeasured. Readers index
        the arrays, which copies, and never write to them."""
        cols = tuple(dict.fromkeys(col for col in cols if col is not None))
        if (code, cols) in self._forms:
            return self._forms[code, cols]
        width = len(cols)
        mine = self.group[:-1] == code
        if not mine.any():
            return self._forms.setdefault((code, cols), {col: np.zeros(0) for col in cols})
        begins, sizes = self.runs[:-1], np.diff(self.runs)
        players = np.add.reduceat(mine, begins) > 0  # those with a row of the group
        lengths = sizes[players]
        ends = np.cumsum(lengths)
        rows = np.repeat(begins[players] - ends + lengths, lengths) + np.arange(ends[-1])
        acc = np.zeros((len(rows), 2 * width))  # sums, then counts
        column = self.archive.reader(self.rec[rows])
        for j, col in enumerate(cols):
            has, values = column(col)
            acc[has, j] = values
            acc[has, width + j] = 1.0
        for begin, end in zip([0, *ends[:-1].tolist()], ends.tolist()):
            np.cumsum(acc[begin:end], axis=0, out=acc[begin:end])
        sums, counts = acc[mine[rows], :width], acc[mine[rows], width:]
        means = np.divide(sums, counts, out=np.full(sums.shape, np.nan), where=counts > 0)
        return self._forms.setdefault((code, cols), dict(zip(cols, means.T)))

    def squads(self) -> tuple[np.ndarray, np.ndarray]:
        """Per team, its players in id order padded with -1, and the time of
        each one's first record for the team in the pair (``span``: never)."""
        if self._squads is None:
            archive = self.archive
            recs = self.pair[archive.team[self.pair] >= 0]
            since = np.full((len(archive.team_index), len(archive.player_ids)), archive.span)
            np.minimum.at(since, (archive.team[recs], archive.player[recs]), archive.time[recs])
            known = since < archive.span
            width = max(1, known.sum(axis=1).max(initial=0))
            order = np.argsort(~known, axis=1, kind="stable")[:, :width]  # squad first, id order
            players = np.where(np.take_along_axis(known, order, axis=1), order, -1)
            since = np.take_along_axis(since, order, axis=1)
            self._squads = (players, since)
        return self._squads

    def group_values(self, latest: np.ndarray, code: int, cols: Sequence[int | None],
                     times: np.ndarray, forms: dict[int, np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """One group's values for pools whose members' latest rows are
        ``latest``, from the group's ``forms``: per row and stat, the mean
        of the members' form averages, or the league mean where no member
        measures the stat (flagged in the second array), or NaN where
        neither exists."""
        member = self.group[latest] == code
        slot = np.where(member, self.slot[latest], 0)
        values = np.full((len(latest), len(cols)), np.nan)
        fell = np.ones(values.shape, dtype=bool)
        for j, col in enumerate(cols if member.any() else ()):
            if col is None:
                continue
            form = forms[col][slot]
            measured = ~np.isnan(form)
            measured &= member
            form[~measured] = 0.0
            # pool order, left to right, as sum() adds: a cumsum, never np.sum,
            # whose pairwise blocks regroup the additions from 8 members on
            totals = np.cumsum(form, axis=1, out=form)[:, -1]
            counts = measured.sum(axis=1)
            np.divide(totals, counts, out=values[:, j], where=counts > 0)
            fell[:, j] = counts == 0
        for j in np.flatnonzero(fell.any(axis=0)):
            rows = np.flatnonzero(fell[:, j])
            values[rows, j] = self.league(cols[j], times[rows])
        return values, fell


class FeatureBuilder:
    """Feature assembly over one immutable dataset.

    The player universe for the ``players`` encoding is frozen from the
    dataset's training fixtures at construction time. The archive's
    columns and tracks are built at the first stats build, and the tracks
    keep every form table they compute, so a builder serves one command's
    builds and is then dropped. Features are read through
    :meth:`build_matrix` alone.
    """

    def __init__(self, dataset: Dataset, schema: FeatureSchema | None = None):
        self.dataset = dataset
        self.schema = schema or default_schema()
        self._cols: _Columns | None = None
        self._tracks: dict[int, _Track] = {}

        universe = set()
        for f in dataset.train_fixtures:
            for lineup in (f.home_lineup, f.away_lineup):
                if lineup:
                    universe.update(lineup)
        self.player_universe: tuple[str, ...] = tuple(sorted(universe))
        self._universe_index = {p: i for i, p in enumerate(self.player_universe)}

    def _columns(self) -> _Columns:
        if self._cols is None:
            self._cols = _Columns(self.dataset)
        return self._cols

    def _track(self, season: int) -> _Track:
        if season not in self._tracks:
            self._tracks[season] = _Track(self._columns(), season)
        return self._tracks[season]

    def _pools(self, pools: Sequence[Sequence[str]]) -> np.ndarray:
        """Each pool's player indices in pool order, padded with -1."""
        index = self._columns().player_index
        width = max(1, max(map(len, pools), default=0))
        return np.array([[index.get(p, -1) for p in pool] + [-1] * (width - len(pool))
                         for pool in pools], dtype=np.int64).reshape(len(pools), width)

    def _code(self, group: str) -> int:
        return self._columns().group_index.get(group, -2)  # -2 matches no row, cold or not

    def _stat_cols(self, stat_names: Sequence[str]) -> list[int | None]:
        return [self._columns().stat_index.get(s) for s in stat_names]

    # -- row assembly -----------------------------------------------------

    def _assemble(self, track: _Track, own: np.ndarray, opp: np.ndarray, times: np.ndarray):
        """The 52 values, fallback groups and first EmptyGroup (or None) of
        each row, from its own and opposing pools. A group's own and opposing
        blocks read the same form averages, which the track keeps."""
        latest = {"own": track.latest(own, times), "opp": track.latest(opp, times)}
        blocks = [(label, group, stats)  # in row order
                  for label, groups, names in (("own", OFFENSIVE_GROUPS, self.schema.offensive),
                                               ("opp", DEFENSIVE_GROUPS, self.schema.defensive))
                  for group in groups for stats in (names[group],)]
        results: list = [None] * len(blocks)
        for group in dict.fromkeys(group for _label, group, _stats in blocks):
            code = self._code(group)
            mine = [i for i, block in enumerate(blocks) if block[1] == group]
            forms = track.forms(code, self._stat_cols([s for i in mine for s in blocks[i][2]]))
            for i in mine:
                label, _group, stats = blocks[i]
                results[i] = track.group_values(latest[label], code, self._stat_cols(stats),
                                                times, forms)
        fallbacks, errors = [[] for _ in times], [None] * len(times)
        for (label, group, stats), (values, fell) in zip(blocks, results):
            for r in np.flatnonzero(fell.any(axis=1)).tolist():
                fallbacks[r].append(f"{label}:{group}")
            for r, j in zip(*np.nonzero(np.isnan(values))):
                if errors[r] is None:
                    errors[r] = EmptyGroup(group, stats[j])
        return np.hstack([values for values, _fell in results]), fallbacks, errors

    def _stats_rows(self, fixtures: Sequence[Fixture], approach: str, side: str) -> list:
        """Each fixture's stats row, or the FeatureError that stops it, in
        order; the fixtures of one season are assembled together."""
        archive = self._columns()
        opp = "away" if side == "home" else "home"
        out: list = [None] * len(fixtures)
        seasons: dict[int, list[int]] = {}
        for i, fixture in enumerate(fixtures):
            teams = (fixture.team(side), fixture.team(opp))
            if approach == "lineup_stats" and not fixture.has_lineups():
                out[i] = MissingLineup(fixture.fixture_id)
            elif approach == "team_stats" and not all(t in archive.team_index for t in teams):
                out[i] = UnknownTeam(next(t for t in teams if t not in archive.team_index))
            else:
                seasons.setdefault(fixture.season, []).append(i)
        for season, batch in seasons.items():
            track = self._track(season)
            chosen = [fixtures[i] for i in batch]
            times = archive.times([f.kickoff for f in chosen])
            if approach == "lineup_stats":
                pools = [self._pools([f.lineup(s) for f in chosen]) for s in (side, opp)]
            else:
                players, since = track.squads()
                teams = [np.array([archive.team_index[f.team(s)] for f in chosen])
                         for s in (side, opp)]
                pools = [np.where(since[t] < times[:, None], players[t], -1) for t in teams]
            values, fallbacks, errors = self._assemble(track, *pools, times)
            for r, (i, fixture) in enumerate(zip(batch, chosen)):
                out[i] = errors[r] or FeatureRow(
                    fixture_id=fixture.fixture_id,
                    side=side,
                    values=values[r],
                    target=fixture.goals(side),
                    fallback_groups=tuple(fallbacks[r]),
                )
        return out

    def encode_players(self, fixture: Fixture, side: str) -> FeatureRow:
        """Membership row over the training player universe.

        Players outside the universe are dropped silently; the count is
        carried on the row so matrices can report coverage.
        """
        if not fixture.has_lineups():
            raise MissingLineup(fixture.fixture_id)
        values = np.zeros(len(self.player_universe), dtype=np.float64)
        dropped = 0
        for sign, lineup in ((1.0, fixture.home_lineup), (-1.0, fixture.away_lineup)):
            for player in lineup:
                idx = self._universe_index.get(player)
                if idx is None:
                    dropped += 1
                else:
                    values[idx] = sign
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
        ordered = sorted(fixtures, key=kickoff_order)
        unplayed = [require_target and f.goals(side) is None for f in ordered]
        wanted = [f for f, skip in zip(ordered, unplayed) if not skip]
        if approach == "players":
            built = iter([self.encode_players(f, side) if f.has_lineups()
                          else MissingLineup(f.fixture_id) for f in wanted])
        else:
            built = iter(self._stats_rows(wanted, approach, side))
        for fixture, skip in zip(ordered, unplayed):
            row = "missing result" if skip else next(built)
            if isinstance(row, FeatureRow):
                matrix.rows.append(row)
            else:
                matrix.skipped.append((fixture.fixture_id, str(row)))
        if not matrix.rows:
            raise NoRowsBuilt(approach, side)
        return matrix

