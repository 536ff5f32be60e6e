"""Feature assembly: schemas, walk-forward windows, and the three encodings."""

import csv
import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from helpers import assert_no_lookahead, fx, mini_dataset, rec

from scoreline.features import (
    APPROACHES,
    SIDES,
    EmptyGroup,
    FeatureBuilder,
    FeatureMatrix,
    FeatureRow,
    MissingLineup,
    NoRowsBuilt,
    UnknownTeam,
    _Track,
)
from scoreline.schema import (
    DEFENSIVE_COUNTS,
    DEFENSIVE_GROUPS,
    OFFENSIVE_COUNTS,
    OFFENSIVE_GROUPS,
    SchemaError,
    FeatureSchema,
    default_schema,
    load_schema,
)

# ------------------------------------------------------------------ schema


def test_schema_group_counts():
    schema = default_schema()
    for group, count in OFFENSIVE_COUNTS.items():
        assert len(schema.offensive[group]) == count
    for group, count in DEFENSIVE_COUNTS.items():
        assert len(schema.defensive[group]) == count
    names = schema.feature_names("home")
    assert len(names) == 52
    assert len(set(names)) == 52


def test_schema_partition_13_14_13_5_7():
    """Home rows: own offensive 13+14+13, then the opponent's 5+7 defensive."""
    schema = default_schema()
    names = schema.feature_names("home")
    expected = (list(schema.offensive["DF"]) + list(schema.offensive["MF"])
                + list(schema.offensive["FW"])
                + ["away " + s for s in schema.defensive["GK"]]
                + ["away " + s for s in schema.defensive["DF"]])
    assert list(names) == expected
    assert sum([13, 14, 13, 5, 7]) == 52


def test_schema_sides_share_layout():
    """Both sides carry the same stats; only the away prefix swaps blocks."""
    schema = default_schema()
    home = [n.removeprefix("away ") for n in schema.feature_names("home")]
    away = [n.removeprefix("away ") for n in schema.feature_names("away")]
    assert home == away
    assert all(n.startswith("away ") for n in schema.feature_names("home")[40:])
    assert all(n.startswith("away ") for n in schema.feature_names("away")[:40])


def test_schema_bad_counts_rejected():
    schema = default_schema()
    off = {g: list(v) for g, v in schema.offensive.items()}
    off["DF"] = off["DF"][:-1]  # 12 names, not 13
    with pytest.raises(SchemaError):
        FeatureSchema(offensive=off, defensive=schema.defensive)


def test_schema_file_roundtrip(tmp_path):
    import json

    schema = default_schema()
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({
        "offensive": {g: list(v) for g, v in schema.offensive.items()},
        "defensive": {g: list(v) for g, v in schema.defensive.items()},
    }), encoding="utf-8")
    loaded = load_schema(path)
    assert loaded.feature_names("home") == schema.feature_names("home")
    assert loaded.fingerprint() == schema.fingerprint()


# --------------------------------------------------------- form averaging
# The scalar hand cases here and under group aggregates check ScanBuilder,
# the scan reference below that every built row must equal bit for bit.


def lineup(prefix):
    return [f"{prefix}{i}" for i in range(11)]


def form_fixture_set():
    """Two tiny clubs with a short history and one target fixture."""
    fixtures = [
        fx("H1", 0, "A", "B", 2, 0, home_lineup=lineup("a"), away_lineup=lineup("b")),
        fx("H2", 7, "B", "A", 1, 1, home_lineup=lineup("b"), away_lineup=lineup("a")),
        fx("T1", 14, "A", "B", 3, 1, home_lineup=lineup("a"), away_lineup=lineup("b")),
    ]
    return fixtures


def test_player_form_average_is_mean():
    fixtures = form_fixture_set()
    records = [rec("a0", "H1", "MF", m_KP=2), rec("a0", "H2", "MF", m_KP=4)]
    builder = ScanBuilder(mini_dataset(fixtures, records))
    target = fixtures[2]
    form = builder.player_form_average("a0", target.kickoff, target.season)
    assert form["m_KP"] == 3.0


def test_player_form_cold_start_marker():
    fixtures = form_fixture_set()
    builder = ScanBuilder(mini_dataset(fixtures, [rec("a0", "H1", "MF", m_KP=2)]))
    target = fixtures[2]
    assert builder.player_form_average("debutant", target.kickoff, target.season) is None


def test_player_form_window_boundaries():
    """Current season strictly before kickoff, all of last season, no older."""
    fixtures = [
        fx("S18", -400, "A", "B", 1, 0, season=2018,
           home_lineup=lineup("a"), away_lineup=lineup("b")),
        fx("S19", -200, "A", "B", 1, 0, season=2019,
           home_lineup=lineup("a"), away_lineup=lineup("b")),
        fx("S20a", 0, "A", "B", 1, 0, season=2020,
           home_lineup=lineup("a"), away_lineup=lineup("b")),
        fx("S20b", 7, "A", "B", 1, 0, season=2020,
           home_lineup=lineup("a"), away_lineup=lineup("b")),
        fx("S20c", 14, "A", "B", 1, 0, season=2020,
           home_lineup=lineup("a"), away_lineup=lineup("b")),
    ]
    records = [
        rec("a0", "S18", "MF", m_KP=100),  # two seasons back: out
        rec("a0", "S19", "MF", m_KP=8),    # previous season: in, all of it
        rec("a0", "S20a", "MF", m_KP=2),   # earlier this season: in
        rec("a0", "S20b", "MF", m_KP=4),   # the as_of fixture itself: out
        rec("a0", "S20c", "MF", m_KP=6),   # later: out
    ]
    builder = ScanBuilder(mini_dataset(fixtures, records))
    as_of = fixtures[3].kickoff  # S20b
    form = builder.player_form_average("a0", as_of, 2020)
    assert form["m_KP"] == (8 + 2) / 2


def test_player_form_missing_stat_unmeasured():
    """A stat absent from one match divides by its own count, not by matches."""
    fixtures = form_fixture_set()
    records = [rec("a0", "H1", "MF", m_KP=2, m_Crs=5), rec("a0", "H2", "MF", m_KP=4)]
    builder = ScanBuilder(mini_dataset(fixtures, records))
    target = fixtures[2]
    form = builder.player_form_average("a0", target.kickoff, target.season)
    assert form["m_KP"] == 3.0
    assert form["m_Crs"] == 5.0


def test_sample_form_average_spreadsheet_oracle(sample_dir, dataset):
    """Season-boundary form mean equals an independent scan of the raw files."""
    target = next(f for f in dataset.fixtures if f.season == 2021)
    player = target.home_lineup[5]
    kickoffs = {}
    seasons = {}
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            kickoffs[r["fixture_id"]] = datetime.fromisoformat(r["kickoff"])
            seasons[r["fixture_id"]] = int(r["season"])
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    with open(sample_dir / "player_stats.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["player_id"] != player:
                continue
            if kickoffs[r["fixture_id"]] >= target.kickoff:
                continue
            if seasons[r["fixture_id"]] not in (target.season, target.season - 1):
                continue
            sums[r["stat_name"]] = sums.get(r["stat_name"], 0.0) + float(r["value"])
            counts[r["stat_name"]] = counts.get(r["stat_name"], 0) + 1
    expected = {s: sums[s] / counts[s] for s in sums}
    form = ScanBuilder(dataset).player_form_average(player, target.kickoff, target.season)
    assert form == pytest.approx(expected)
    assert any(seasons[r] == target.season - 1 for r in kickoffs)  # window spans seasons


# -------------------------------------------------------- group aggregates


def test_group_aggregate_mean_of_means():
    fixtures = form_fixture_set()
    records = [
        rec("a0", "H1", "DF", d_Tkl=1), rec("a0", "H2", "DF", d_Tkl=1),
        rec("a1", "H1", "DF", d_Tkl=3),
    ]
    builder = ScanBuilder(mini_dataset(fixtures, records))
    target = fixtures[2]
    values, used_fallback = builder.group_aggregate(
        ["a0", "a1"], "DF", target.kickoff, target.season, ["d_Tkl"])
    assert values == [2.0]
    assert not used_fallback


def test_group_aggregate_all_cold_uses_league_mean():
    fixtures = form_fixture_set()
    records = [
        rec("b0", "H1", "MF", m_KP=1),
        rec("b1", "H2", "MF", m_KP=5),
        rec("a0", "H1", "DF", d_Tkl=2),
    ]
    builder = ScanBuilder(mini_dataset(fixtures, records))
    target = fixtures[2]
    # a9 never played: the MF slot falls back to the league-wide mean
    values, used_fallback = builder.group_aggregate(
        ["a9"], "MF", target.kickoff, target.season, ["m_KP"])
    assert values == [3.0]
    assert used_fallback


def test_group_aggregate_unknown_stat_raises():
    fixtures = form_fixture_set()
    builder = ScanBuilder(mini_dataset(fixtures, [rec("a0", "H1", "DF", d_Tkl=2)]))
    target = fixtures[2]
    with pytest.raises(EmptyGroup):
        builder.group_aggregate([], "MF", target.kickoff, target.season, ["m_KP"])


# ---------------------------------------------------- row assembly oracles


def load_raw(sample_dir):
    """Independent flat readers for the brute-force oracles."""
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        fixtures = {r["fixture_id"]: r for r in csv.DictReader(fh)}
    stats = []
    with open(sample_dir / "player_stats.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            stats.append(r)
    return fixtures, stats


def brute_group_values(stats, fixtures, pool, group, stat_names, as_of, season):
    """Reference aggregation over raw CSV rows, one mean of means per stat."""
    def in_window(fid):
        return (datetime.fromisoformat(fixtures[fid]["kickoff"]) < as_of
                and int(fixtures[fid]["season"]) in (season, season - 1))

    latest_group: dict[str, tuple] = {}
    per_player: dict[str, dict[str, list[float]]] = {}
    for r in stats:
        pid = r["player_id"]
        if pid not in pool or not in_window(r["fixture_id"]):
            continue
        stamp = (fixtures[r["fixture_id"]]["kickoff"], r["fixture_id"])
        if pid not in latest_group or stamp >= latest_group[pid][0]:
            latest_group[pid] = (stamp, r["position_group"])
        per_player.setdefault(pid, {}).setdefault(r["stat_name"], []).append(
            float(r["value"]))
    members = [p for p in pool if latest_group.get(p, (None, None))[1] == group]
    league: dict[str, list[float]] = {}
    for r in stats:
        if in_window(r["fixture_id"]):
            league.setdefault(r["stat_name"], []).append(float(r["value"]))
    out = []
    for stat in stat_names:
        vals = [sum(per_player[p][stat]) / len(per_player[p][stat])
                for p in members if stat in per_player[p]]
        if vals:
            out.append(sum(vals) / len(vals))
        else:
            out.append(sum(league[stat]) / len(league[stat]))
    return out


def built_row(builder, fixture, approach, side):
    """The one row ``build_matrix`` makes of ``fixture``."""
    return builder.build_matrix([fixture], approach, side).rows[0]


def brute_stats_row(sample_dir, fixture, side, own_pool, opp_pool, schema):
    fixtures, stats = load_raw(sample_dir)
    values = []
    for group in ("DF", "MF", "FW"):
        values += brute_group_values(stats, fixtures, set(own_pool), group,
                                     schema.offensive[group], fixture.kickoff,
                                     fixture.season)
    for group in ("GK", "DF"):
        values += brute_group_values(stats, fixtures, set(opp_pool), group,
                                     schema.defensive[group], fixture.kickoff,
                                     fixture.season)
    return np.array(values)


def test_lineup_row_matches_brute_force(sample_dir, dataset, builder):
    fixture = dataset.test_fixtures[2]
    for side, own, opp in (("home", fixture.home_lineup, fixture.away_lineup),
                           ("away", fixture.away_lineup, fixture.home_lineup)):
        row = built_row(builder, fixture, "lineup_stats", side)
        expected = brute_stats_row(sample_dir, fixture, side, own, opp,
                                   builder.schema)
        np.testing.assert_allclose(row.values, expected, rtol=0, atol=1e-12)
        assert row.target == fixture.goals(side)


def test_team_row_matches_brute_force(sample_dir, dataset, builder):
    """Team Stats pools every windowed squad member, not just the eleven."""
    fixture = dataset.test_fixtures[2]
    fixtures_raw, _stats = load_raw(sample_dir)

    def squad(team):
        players = set()
        for r in fixtures_raw.values():
            if datetime.fromisoformat(r["kickoff"]) >= fixture.kickoff:
                continue
            if int(r["season"]) not in (fixture.season, fixture.season - 1):
                continue
            if r["home_team"] == team:
                players.update(r["home_lineup"].split(";"))
            if r["away_team"] == team:
                players.update(r["away_lineup"].split(";"))
        return players

    own, opp = squad(fixture.home_team), squad(fixture.away_team)
    assert len(own) > 11  # rotation makes the squad strictly wider than a lineup
    row = built_row(builder, fixture, "team_stats", "home")
    expected = brute_stats_row(sample_dir, fixture, "home", own, opp,
                               builder.schema)
    np.testing.assert_allclose(row.values, expected, rtol=0, atol=1e-12)


def full_stats(group: str, i: int) -> dict:
    """Every schema stat for one group, values varying per player index."""
    schema = default_schema()
    stats = {}
    if group in schema.offensive:
        stats.update({s: 0.5 + 0.1 * i + 0.01 * len(s)
                      for s in schema.offensive[group]})
    if group in schema.defensive:
        stats.update({s: 1.0 + 0.2 * i + 0.02 * len(s)
                      for s in schema.defensive[group]})
    return stats


def group_of_slot(i: int) -> str:
    return "GK" if i == 0 else "DF" if i < 5 else "MF" if i < 9 else "FW"


def squad_records():
    """Every stat of its group's schema for each player of both form-set
    lineups, in H1 and H2: fixture T1 builds from them."""
    return [rec(pid, fid, group_of_slot(i), **full_stats(group_of_slot(i), i))
            for fid in ("H1", "H2") for prefix in ("a", "b")
            for i, pid in enumerate(lineup(prefix))]


def test_team_row_equals_lineup_row_when_lineup_is_whole_squad():
    fixtures = form_fixture_set()
    builder = FeatureBuilder(mini_dataset(fixtures, squad_records()))
    target = fixtures[2]
    lineup_row = built_row(builder, target, "lineup_stats", "home")
    team_row = built_row(builder, target, "team_stats", "home")
    np.testing.assert_array_equal(lineup_row.values, team_row.values)


def test_missing_lineup_raises():
    fixtures = form_fixture_set() + [fx("T2", 21, "A", "B", 1, 0)]
    builder = FeatureBuilder(mini_dataset(fixtures, squad_records()))
    for approach in ("players", "lineup_stats"):
        matrix = builder.build_matrix(fixtures[2:], approach, "home")
        assert matrix.fixture_ids() == ["T1"]
        assert matrix.skipped == [("T2", str(MissingLineup("T2")))]
    with pytest.raises(MissingLineup):
        builder.encode_players(fixtures[-1], "home")


def test_unknown_team_raises():
    fixtures = form_fixture_set() + [
        fx("T3", 21, "A", "Zed", 1, 0, home_lineup=lineup("a"), away_lineup=lineup("z"))]
    builder = FeatureBuilder(mini_dataset(fixtures, squad_records()))
    matrix = builder.build_matrix(fixtures[2:], "team_stats", "home")
    assert matrix.fixture_ids() == ["T1"]
    assert matrix.skipped == [("T3", str(UnknownTeam("Zed")))]


def test_defensive_block_holds_away_keeper_stats(dataset, builder):
    """The home row's GK block equals the away keeper's form average."""
    fixture = dataset.test_fixtures[2]
    row = built_row(builder, fixture, "lineup_stats", "home")
    scan = ScanBuilder(dataset)
    keeper = next(p for p in fixture.away_lineup
                  if scan._group_of(p, fixture.kickoff, fixture.season) == "GK")
    form = scan.player_form_average(keeper, fixture.kickoff, fixture.season)
    gk_block = row.values[40:45]
    expected = [form[s] for s in builder.schema.defensive["GK"]]
    np.testing.assert_allclose(gk_block, expected, rtol=0, atol=1e-12)


# --------------------------------------------------------- players encoding


def test_encode_players_signs(dataset, builder):
    fixture = dataset.train_fixtures[10]
    row = builder.encode_players(fixture, "home")
    universe = builder.player_universe
    for player in fixture.home_lineup:
        assert row.values[universe.index(player)] == 1.0
    for player in fixture.away_lineup:
        assert row.values[universe.index(player)] == -1.0
    nonzero = np.flatnonzero(row.values)
    assert len(nonzero) == 22 - row.dropped_players
    assert set(np.unique(row.values)) <= {-1.0, 0.0, 1.0}


def test_encode_players_unknown_dropped_and_counted():
    fixtures = form_fixture_set()
    strangers = [f"x{i}" for i in range(11)]
    test_fixture = fx("T9", 21, "A", "B", 0, 0,
                      home_lineup=lineup("a")[:10] + ["newboy"],
                      away_lineup=strangers)
    builder = FeatureBuilder(mini_dataset(fixtures + [test_fixture], [],
                                          split_index=3))
    row = builder.encode_players(test_fixture, "home")
    assert row.dropped_players == 12  # one debutant plus eleven strangers
    assert np.count_nonzero(row.values) == 10


def test_players_matrix_width_is_universe(dataset, builder):
    matrix = builder.build_matrix(dataset.train_fixtures, "players", "home")
    assert matrix.X().shape[1] == len(builder.player_universe)
    assert matrix.feature_names == builder.player_universe


def test_players_coverage_statistic():
    fixtures = form_fixture_set()
    test_fixture = fx("T9", 21, "A", "B", 0, 0,
                      home_lineup=lineup("a"), away_lineup=[f"x{i}" for i in range(11)])
    builder = FeatureBuilder(mini_dataset(fixtures + [test_fixture], [],
                                          split_index=3))
    matrix = builder.build_matrix([test_fixture], "players", "home")
    assert matrix.players_listed == 22
    assert matrix.players_dropped == 11
    assert matrix.coverage == 0.5


# ---------------------------------------------------------------- symmetry


def test_home_away_swap_symmetry(dataset, builder):
    """Swapping a fixture's teams swaps its home and away feature rows."""
    fixture = dataset.test_fixtures[3]
    swapped = fx("SWAP", 0, fixture.away_team, fixture.home_team,
                 fixture.away_goals, fixture.home_goals, season=fixture.season,
                 home_lineup=fixture.away_lineup, away_lineup=fixture.home_lineup)
    object.__setattr__(swapped, "kickoff", fixture.kickoff)
    for approach in ("lineup_stats", "team_stats"):
        orig_home, orig_away, swap_home, swap_away = (
            built_row(builder, f, approach, side) for f in (fixture, swapped) for side in SIDES)
        np.testing.assert_array_equal(swap_home.values, orig_away.values)
        np.testing.assert_array_equal(swap_away.values, orig_home.values)


# ------------------------------------------------------------- no lookahead


def test_no_lookahead_truncation(dataset, builder):
    checked = assert_no_lookahead(dataset, builder)
    assert checked > 200  # most of 40 fixtures x 2 sides x 3 approaches


# -------------------------------------------------------------- build_matrix


def test_build_matrix_bookkeeping(dataset, builder):
    for approach in APPROACHES:
        for side in ("home", "away"):
            matrix = builder.build_matrix(dataset.train_fixtures, approach, side)
            assert len(matrix.rows) + len(matrix.skipped) == len(dataset.train_fixtures)
            if approach != "players":
                assert all(len(r.values) == 52 for r in matrix.rows)
                assert np.isfinite(matrix.X()).all()


def test_build_matrix_chronological(dataset, builder):
    matrix = builder.build_matrix(dataset.fixtures, "team_stats", "home")
    order = {f.fixture_id: i for i, f in enumerate(dataset.fixtures)}
    indices = [order[fid] for fid in matrix.fixture_ids()]
    assert indices == sorted(indices)


def test_build_matrix_skip_reasons(dataset, builder):
    """The first-ever fixture has an empty window and must be skipped."""
    matrix = builder.build_matrix(dataset.train_fixtures, "lineup_stats", "home")
    skipped_ids = [fid for fid, _ in matrix.skipped]
    first = dataset.fixtures[0]
    assert first.fixture_id in skipped_ids


def test_build_matrix_zero_rows_aborts():
    fixtures = [fx("A1", 0, "A", "B", 1, 0)]  # no lineups, no stats
    builder = FeatureBuilder(mini_dataset(fixtures, []))
    with pytest.raises(NoRowsBuilt):
        builder.build_matrix(fixtures, "lineup_stats", "home")


def test_build_matrix_require_target(dataset, builder):
    fixture = dataset.test_fixtures[0]
    bare = fx("U1", 0, fixture.home_team, fixture.away_team, None, None,
              season=fixture.season, home_lineup=fixture.home_lineup,
              away_lineup=fixture.away_lineup)
    object.__setattr__(bare, "kickoff", fixture.kickoff)
    matrix = builder.build_matrix([bare], "team_stats", "home", require_target=False)
    assert matrix.rows[0].target is None
    got = builder.build_matrix([bare, fixture], "team_stats", "home")
    assert [fid for fid, _ in got.skipped] == ["U1"]


# ------------------------------------------------- one chronological pass


class ScanBuilder(FeatureBuilder):
    """Scalar reference: every window rescanned from its own record lists,
    and every row assembled stat by stat with Python's ``sum``.

    These are the per-row scans and the scalar assembly that the prefix
    tracks replaced; each call walks a player's, team's or the league's
    whole history. The form-average and group-aggregate hand cases check
    its scalar lookups.
    """

    def __init__(self, dataset):
        super().__init__(dataset)
        by_id = {f.fixture_id: f for f in dataset.fixtures}
        self.scan_player: dict[str, list] = {}
        self.scan_league: list = []
        self.scan_team: dict[str, list] = {}
        for r in dataset.stats.records():
            f = by_id[r.fixture_id]
            entry = (f.kickoff, f.fixture_id, f.season, r.position_group, dict(r.stats))
            self.scan_player.setdefault(r.player_id, []).append(entry)
            self.scan_league.append((entry, r.player_id))
            for lineup, team in ((f.home_lineup, f.home_team), (f.away_lineup, f.away_team)):
                if lineup and r.player_id in lineup:
                    self.scan_team.setdefault(team, []).append((f.kickoff, f.season, r.player_id))
                    break
        for entries in self.scan_player.values():
            entries.sort(key=lambda e: (e[0], e[1]))
        self.scan_league.sort(key=lambda item: (item[0][0], item[0][1], item[1]))

    @staticmethod
    def _sums(entries, as_of, season):
        sums, counts, hit = {}, {}, False
        for kickoff, _fid, rec_season, _group, stats in entries:
            if kickoff >= as_of or rec_season not in (season, season - 1):
                continue
            hit = True
            for stat, value in stats.items():
                sums[stat] = sums.get(stat, 0.0) + value
                counts[stat] = counts.get(stat, 0) + 1
        return {stat: sums[stat] / counts[stat] for stat in sums}, hit

    def player_form_average(self, player_id, as_of, season):
        means, hit = self._sums(self.scan_player.get(player_id, ()), as_of, season)
        return means if hit else None

    def _group_of(self, player_id, as_of, season):
        group = None
        for kickoff, _fid, rec_season, rec_group, _stats in self.scan_player.get(player_id, ()):
            if kickoff < as_of and rec_season in (season, season - 1):
                group = rec_group
        return group

    def _league_means(self, as_of, season):
        return self._sums([entry for entry, _pid in self.scan_league], as_of, season)[0]

    def _squad(self, team, as_of, season):
        return tuple(sorted({pid for kickoff, rec_season, pid in self.scan_team.get(team, ())
                             if kickoff < as_of and rec_season in (season, season - 1)}))

    def group_aggregate(self, players, group, as_of, season, stat_names):
        members = [p for p in players if self._group_of(p, as_of, season) == group]
        forms = {p: self.player_form_average(p, as_of, season) for p in members}
        values, used_fallback, league = [], False, None
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

    def _assemble_stats_row(self, fixture, side, own_pool, opp_pool):
        values, fallbacks = [], []
        parts = (("own", own_pool, OFFENSIVE_GROUPS, self.schema.offensive),
                 ("opp", opp_pool, DEFENSIVE_GROUPS, self.schema.defensive))
        for label, pool, groups, names in parts:
            for group in groups:
                vec, fell = self.group_aggregate(pool, group, fixture.kickoff, fixture.season,
                                                 names[group])
                values.extend(vec)
                if fell:
                    fallbacks.append(f"{label}:{group}")
        return FeatureRow(fixture_id=fixture.fixture_id, side=side,
                          values=np.array(values, dtype=np.float64),
                          target=fixture.goals(side), fallback_groups=tuple(fallbacks))

    def assemble_lineup_features(self, fixture, side):
        if not fixture.has_lineups():
            raise MissingLineup(fixture.fixture_id)
        opp = "away" if side == "home" else "home"
        return self._assemble_stats_row(fixture, side, fixture.lineup(side), fixture.lineup(opp))

    def assemble_team_features(self, fixture, side):
        teams = [fixture.team(side), fixture.team("away" if side == "home" else "home")]
        for team in teams:
            if team not in self.scan_team:
                raise UnknownTeam(team)
        own, opp = (self._squad(team, fixture.kickoff, fixture.season) for team in teams)
        return self._assemble_stats_row(fixture, side, own, opp)

    def build_matrix(self, fixtures, approach, side, require_target=True):
        names = self.player_universe if approach == "players" else self.schema.feature_names(side)
        matrix = FeatureMatrix(approach=approach, side=side, feature_names=names)
        assemble = {"players": self.encode_players,
                    "lineup_stats": self.assemble_lineup_features,
                    "team_stats": self.assemble_team_features}[approach]
        for fixture in sorted(fixtures, key=lambda f: (f.kickoff, f.fixture_id)):
            if require_target and fixture.goals(side) is None:
                matrix.skipped.append((fixture.fixture_id, "missing result"))
                continue
            try:
                matrix.rows.append(assemble(fixture, side))
            except (MissingLineup, EmptyGroup, UnknownTeam) as exc:
                matrix.skipped.append((fixture.fixture_id, str(exc)))
        if not matrix.rows:
            raise NoRowsBuilt(approach, side)
        return matrix


def walk_forward_dataset():
    """Three seasons of a four-club league with every window edge case.

    Two fixtures share each round's kickoff; ``a5`` moves from MF to FW
    midway through 2020; one MF stat is missing from some records and
    club D's forwards never record the first FW stat (an own:FW league
    fallback); every keeper records the first GK stat as -0.0, which a
    scan's sum from 0.0 turns into 0.0; ``b_new`` debuts cold in 2021;
    fixture ``NL`` has records but no lineups; the last six fixtures are
    the test split.
    """
    rng = random.Random(11)
    schema = default_schema()
    slots = {"GK": [0, 11], "DF": [1, 2, 3, 4, 12], "MF": [5, 6, 7, 8, 13], "FW": [9, 10]}
    sizes = {"GK": 1, "DF": 4, "MF": 4, "FW": 2}
    pairings = [(("A", "B"), ("C", "D")), (("A", "C"), ("B", "D")), (("A", "D"), ("B", "C"))]
    fixtures, lineups = [], {}
    for s, season in enumerate((2019, 2020, 2021)):
        for r, pairs in enumerate(pairings + [[(a, h) for h, a in p] for p in pairings]):
            day = 400 * s + 7 * r
            for home, away in pairs:
                fid = f"S{season}R{r}{home}{away}"
                sides = []
                for team in (home, away):
                    lineup = [f"{team.lower()}{i}" for group in ("GK", "DF", "MF", "FW")
                              for i in sorted(rng.sample(slots[group], sizes[group]))]
                    if team == "B" and season == 2021 and r == 3:
                        lineup[-1] = "b_new"
                    sides.append(lineup)
                lineups[fid] = sides
                fixtures.append(fx(fid, day, home, away, rng.randint(0, 3), rng.randint(0, 3),
                                   season=season, home_lineup=sides[0], away_lineup=sides[1]))
    fixtures.append(fx("NL", 402, "A", "B", 1, 1, season=2020))
    lineups["NL"] = [["a1", "a5", "b9"], []]

    def group_of(pid, kickoff):
        if pid == "a5" and kickoff >= fixtures[0].kickoff + timedelta(days=403):
            return "FW"
        if pid == "b_new":
            return "FW"
        index = int(pid[1:])
        return next(g for g, members in slots.items() if index in members)

    records = []
    for f in fixtures:
        for pid in sum(lineups[f.fixture_id], []):
            group = group_of(pid, f.kickoff)
            names = list(schema.offensive.get(group, ())) + list(schema.defensive.get(group, ()))
            stats = {name: rng.random() * 4 for name in dict.fromkeys(names)}
            if group == "MF" and rng.random() < 0.3:
                del stats[schema.offensive["MF"][1]]
            if group == "FW" and pid.startswith("d"):
                del stats[schema.offensive["FW"][0]]
            if group == "GK":
                stats[schema.defensive["GK"][0]] = -0.0
            records.append(rec(pid, f.fixture_id, group, **stats))
    return mini_dataset(fixtures, records, split_index=len(fixtures) - 6)


def assert_same_matrix(got, want):
    assert got.fixture_ids() == want.fixture_ids()
    for g, w in zip(got.rows, want.rows):
        assert g.values.tobytes() == w.values.tobytes(), g.fixture_id
        assert (g.target, g.fallback_groups, g.dropped_players) == (
            w.target, w.fallback_groups, w.dropped_players)
    assert got.skipped == want.skipped
    assert (got.players_listed, got.players_dropped) == (want.players_listed, want.players_dropped)


def test_chronological_pass_matches_scans_bitwise():
    dataset = walk_forward_dataset()
    builder, reference = FeatureBuilder(dataset), ScanBuilder(dataset)
    shuffled = list(dataset.fixtures)
    random.Random(3).shuffle(shuffled)
    fallbacks, skips = set(), set()
    # The full sweep runs first, so a window carried into a later build
    # would serve the test split from its end state.
    for fixtures in (shuffled, dataset.test_fixtures, dataset.train_fixtures):
        for approach in APPROACHES:
            for side in SIDES:
                got = builder.build_matrix(fixtures, approach, side)
                assert_same_matrix(got, reference.build_matrix(fixtures, approach, side))
                fallbacks.update(g for row in got.rows for g in row.fallback_groups)
                skips.update(reason.split(" ")[0] for _fid, reason in got.skipped)
    assert "own:FW" in fallbacks and {"fixture", "no"} <= skips
    assert {reference._group_of("a5", f.kickoff, 2020) for f in dataset.fixtures} >= {"MF", "FW"}


def test_team_membership_edge_cases_match_scans():
    """Three attribution cases in a four-club season, built as the scans
    build them: ``b10`` is named in both lineups of ``R4DB``, and the record
    there counts for the home club D; ``c9`` moves from C to D after round
    3 and belongs to both squads, each from their first record for it;
    ``ghost`` is in D's round-6 lineup but has no records."""
    rng = random.Random(7)
    schema = default_schema()
    groups = ["GK"] + ["DF"] * 4 + ["MF"] * 4 + ["FW"] * 2
    pairings = [(("A", "B"), ("C", "D")), (("A", "C"), ("B", "D")), (("A", "D"), ("B", "C"))]
    fixtures, records = [], []
    for r in range(9):
        pairs = [(a, h) for h, a in pairings[r % 3]] if r // 3 == 1 else pairings[r % 3]
        for home, away in pairs:
            fid = f"R{r}{home}{away}"
            sides = [[f"{team.lower()}{i}" for i in range(11)] for team in (home, away)]
            for team, lineup in zip((home, away), sides):
                if r >= 4 and team in "CD":
                    lineup[9] = {"C": "c11", "D": "c9"}[team]
                if team == "D" and r == 6:
                    lineup[5] = "ghost"
            if fid == "R4DB":
                sides[0][10] = sides[1][10]
            fixtures.append(fx(fid, 7 * r, home, away, rng.randint(0, 3), rng.randint(0, 3),
                               home_lineup=sides[0], away_lineup=sides[1]))
            for pid, group in dict.fromkeys(zip(sides[0] + sides[1], groups * 2)):
                names = list(schema.offensive.get(group, ())) + list(schema.defensive.get(group, ()))
                if pid != "ghost":
                    records.append(rec(pid, fid, group,
                                       **{name: rng.random() * 4 for name in dict.fromkeys(names)}))
    dataset = mini_dataset(fixtures, records)
    assert len(dataset.fixtures) == 18
    builder, reference = FeatureBuilder(dataset), ScanBuilder(dataset)
    for approach in ("lineup_stats", "team_stats"):
        for side in SIDES:
            assert_same_matrix(builder.build_matrix(dataset.fixtures, approach, side),
                               reference.build_matrix(dataset.fixtures, approach, side))
    end = dataset.fixtures[-1].kickoff + timedelta(days=1)
    squads = {team: reference._squad(team, end, 2020) for team in "ABCD"}
    assert {"b10", "c9"} <= set(squads["D"]) and "c9" in squads["C"]
    assert not any("ghost" in squad for squad in squads.values())


# ---------------------------------------------- one build, cut at the split


def test_parts_of_one_build_equal_separate_builds():
    """Train and test parts of a build over every fixture equal separate
    builds of each part: rows never depend on where the split falls."""
    league = walk_forward_dataset()
    # A test fixture without lineups joins the train one (NL) in the skip lists.
    late = fx("NLT", 836, "C", "D", 2, 0, season=2021)
    dataset = mini_dataset([*league.fixtures, late], list(league.stats.records()),
                           split_index=league.split_index)
    builder = FeatureBuilder(dataset)
    train_ids = {f.fixture_id for f in dataset.train_fixtures}
    test_ids = {f.fixture_id for f in dataset.test_fixtures}
    for approach in APPROACHES:
        for side in SIDES:
            full = builder.build_matrix(dataset.fixtures, approach, side)
            for ids, fixtures in ((train_ids, dataset.train_fixtures),
                                  (test_ids, dataset.test_fixtures)):
                got = full.part(ids)
                want = builder.build_matrix(fixtures, approach, side)
                assert_same_matrix(got, want)
                assert got.coverage == want.coverage
            # skipped: fixtures without lineups, or team_stats' cold first round
            unbuilt = {dataset.fixtures[0].fixture_id} if approach == "team_stats" else {"NL", "NLT"}
            assert unbuilt <= {fid for fid, _reason in full.skipped}
            with pytest.raises(NoRowsBuilt):
                full.part(unbuilt)
    players = builder.build_matrix(dataset.fixtures, "players", "home").part(test_ids)
    assert players.players_dropped > 0 and players.coverage < 1.0  # b_new debuts there


# ------------------------------------- every build of one builder, one table each


@pytest.mark.parametrize("require_target", [True, False])
@pytest.mark.parametrize("approach", ["lineup_stats", "team_stats"])
def test_pair_build_shares_forms_and_equals_separate_builds(
        monkeypatch, dataset, approach, require_target):
    """One builder that builds home and away of both stats approaches,
    ``approach`` first, computes each (track, group, columns) form table
    exactly once and hands the same table to every build; each side equals
    a build of it alone on a fresh builder."""
    reads = []
    forms = _Track.forms

    def recorded(track, code, cols):
        table = forms(track, code, cols)
        reads.append(((track, code, tuple(dict.fromkeys(c for c in cols if c is not None))),
                      table))
        return table

    monkeypatch.setattr(_Track, "forms", recorded)
    other = "team_stats" if approach == "lineup_stats" else "lineup_stats"
    builds = [(a, side) for a in (approach, other) for side in SIDES]
    alone = {build: FeatureBuilder(dataset).build_matrix(dataset.fixtures, *build, require_target)
             for build in builds}
    separate = len({id(table) for _key, table in reads})
    reads.clear()
    builder = FeatureBuilder(dataset)
    for build in builds:
        assert_same_matrix(builder.build_matrix(dataset.fixtures, *build, require_target),
                           alone[build])
    tables = {}
    for key, table in reads:
        assert tables.setdefault(key, table) is table  # computed at the first read, then kept
    assert separate == 4 * len(tables) > 0
    assert len(reads) == separate
