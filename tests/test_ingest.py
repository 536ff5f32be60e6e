"""Loader validation, chronological splitting and file round-trips."""

import csv
import re

import pytest

from scoreline.ingest import (
    DuplicateFixture,
    MalformedLineup,
    NegativeStat,
    NotUtf8,
    OddsNotPositive,
    ParseError,
    TestTooLarge,
    UnknownFixture,
    chronological_split,
    load_dataset,
    load_fixtures,
    load_odds,
    load_player_stats,
    save_fixtures,
    save_odds,
    save_player_stats,
)

FIXTURE_HEADER = ("fixture_id,season,kickoff,home_team,away_team,"
                  "home_goals,away_goals,home_lineup,away_lineup\n")

LINEUP_A = ";".join(f"a{i}" for i in range(11))
LINEUP_B = ";".join(f"b{i}" for i in range(11))


def write_fixtures(path, rows):
    path.write_text(FIXTURE_HEADER + "".join(r + "\n" for r in rows),
                    encoding="utf-8")
    return path


def row(fid, kickoff, home="X", away="Y", hg="1", ag="0",
        lineups=(LINEUP_A, LINEUP_B)):
    return f"{fid},2020,{kickoff},{home},{away},{hg},{ag},{lineups[0]},{lineups[1]}"


# ---------------------------------------------------------------- fixtures


def test_fixtures_sorted_by_date(tmp_path):
    path = write_fixtures(tmp_path / "f.csv", [
        row("F3", "2020-09-20T15:00:00"),
        row("F1", "2020-09-05T15:00:00"),
        row("F2", "2020-09-12T15:00:00"),
    ])
    fixtures = load_fixtures(path)
    assert [f.fixture_id for f in fixtures] == ["F1", "F2", "F3"]


def test_missing_away_team_names_row(tmp_path):
    path = write_fixtures(tmp_path / "f.csv", [
        row("F1", "2020-09-05T15:00:00"),
        row("F2", "2020-09-12T15:00:00", away=""),
    ])
    with pytest.raises(ParseError) as exc:
        load_fixtures(path)
    assert "row 3" in str(exc.value)


def test_duplicate_fixture_id(tmp_path):
    path = write_fixtures(tmp_path / "f.csv", [
        row("F1", "2020-09-05T15:00:00"),
        row("F1", "2020-09-12T15:00:00"),
    ])
    with pytest.raises(DuplicateFixture):
        load_fixtures(path)


def test_short_lineup_rejected(tmp_path):
    ten = ";".join(f"a{i}" for i in range(10))
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", lineups=(ten, LINEUP_B))])
    with pytest.raises(MalformedLineup):
        load_fixtures(path)


def test_repeated_player_in_lineup_rejected(tmp_path):
    dup = LINEUP_A.replace("a1", "a0", 1)
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", lineups=(dup, LINEUP_B))])
    with pytest.raises(MalformedLineup):
        load_fixtures(path)


def test_team_playing_itself_rejected(tmp_path):
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", home="X", away="X")])
    with pytest.raises(ParseError):
        load_fixtures(path)


def test_negative_goals_rejected(tmp_path):
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", hg="-1")])
    with pytest.raises(ParseError):
        load_fixtures(path)


def test_missing_header_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("fixture_id,season,kickoff\nF1,2020,2020-09-05T15:00:00\n",
                    encoding="utf-8")
    with pytest.raises(ParseError):
        load_fixtures(path)


def test_empty_goals_need_require_goals_false(tmp_path):
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", hg="", ag="")])
    with pytest.raises(ParseError):
        load_fixtures(path)
    fixtures = load_fixtures(path, require_goals=False)
    assert fixtures[0].home_goals is None and fixtures[0].away_goals is None


def test_empty_lineups_allowed(tmp_path):
    path = write_fixtures(tmp_path / "f.csv",
                          [row("F1", "2020-09-05T15:00:00", lineups=("", ""))])
    fixture = load_fixtures(path)[0]
    assert fixture.home_lineup is None
    assert not fixture.has_lineups()


def _reversed_columns():
    names = FIXTURE_HEADER.strip().split(",")
    cells = row("F1", "2020-09-05T15:00:00").split(",")
    return ",".join(names[::-1]) + "\n" + ",".join(cells[::-1]) + "\n"


@pytest.mark.parametrize("text, expected", [
    pytest.param(FIXTURE_HEADER + "F1,2020,2020-09-05T15:00:00,X,Y,1,0\n",
                 [("F1", 2020, "X", "Y", 1, 0, False)], id="short-row-before-lineups"),
    pytest.param(FIXTURE_HEADER + "F1,2020,2020-09-05T15:00:00,X,Y\n",
                 "row 2: missing value for 'home_goals'", id="short-row-before-goals"),
    pytest.param(FIXTURE_HEADER + row("F1", "2020-09-05T15:00:00") + "\n\n"
                 + row("F2", "2020-09-12T15:00:00", away="") + "\n",
                 "row 3: missing value for 'away_team'", id="blank-line-not-numbered"),
    pytest.param(_reversed_columns(),
                 [("F1", 2020, "X", "Y", 1, 0, True)], id="columns-in-another-order"),
    pytest.param(FIXTURE_HEADER + row("F1", "2020-09-05T15:00:00") + ",extra,cells\n",
                 [("F1", 2020, "X", "Y", 1, 0, True)], id="extra-trailing-cells"),
    pytest.param(FIXTURE_HEADER.strip() + ",home_team\n"
                 + row("F1", "2020-09-05T15:00:00") + ",Z\n",
                 [("F1", 2020, "Z", "Y", 1, 0, True)], id="repeated-header-reads-last"),
    pytest.param(FIXTURE_HEADER + row(" F1 ", " 2020-09-05T15:00:00 ", home=" X ",
                                      hg=" 1 ", ag=" 0") + "\n",
                 [("F1", 2020, "X", "Y", 1, 0, True)], id="padded-cells-stripped"),
    pytest.param(FIXTURE_HEADER + row("F1", "2020-09-05T15:00:00").replace(",2020,", ", x20 ,")
                 + "\n", "row 2: season ' x20 ' is not an integer", id="message-quotes-raw-cell"),
])
def test_reader_contract(tmp_path, text, expected):
    """How a fixtures file's rows map to records: by header name, blank
    lines skipped and unnumbered, short rows read as empty cells."""
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            load_fixtures(path)
        return
    assert [(f.fixture_id, f.season, f.home_team, f.away_team, f.home_goals,
             f.away_goals, f.has_lineups()) for f in load_fixtures(path)] == expected


@pytest.mark.parametrize("where", ["header", "first record", "after the first 8 KiB"])
def test_non_utf8_file_names_the_file(tmp_path, where):
    """The decoder reads in chunks, so the error names the file, not a row."""
    path = write_fixtures(tmp_path / "f.csv", [
        row(f"m{i}", f"2020-01-{1 + i % 28:02d}T15:00:00") for i in range(300)])
    raw = path.read_bytes()
    assert len(raw) > 3 * 8192
    at = {"header": 3, "first record": len(FIXTURE_HEADER) + 2,
          "after the first 8 KiB": len(raw) - 40}[where]
    path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at:])
    with pytest.raises(NotUtf8) as exc:
        load_fixtures(path)
    assert str(exc.value) == f"fixtures file {path} is not UTF-8 text: invalid start byte"


# ------------------------------------------------------------------- stats


def stats_file(tmp_path, rows):
    path = tmp_path / "s.csv"
    path.write_text("player_id,fixture_id,position_group,stat_name,value\n"
                    + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    return path


@pytest.fixture()
def two_fixtures(tmp_path):
    path = write_fixtures(tmp_path / "f.csv", [
        row("F1", "2020-09-05T15:00:00"),
        row("F2", "2020-09-12T15:00:00"),
    ])
    return load_fixtures(path)


def test_stats_roundtrip(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "GK", "g_CS", "1")])
    archive = load_player_stats(path, two_fixtures)
    assert archive.get("a0", "F1").stats["g_CS"] == 1.0


def test_stats_unknown_fixture(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F9", "GK", "g_CS", "1")])
    with pytest.raises(UnknownFixture):
        load_player_stats(path, two_fixtures)


def test_stats_negative_value(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "DF", "d_Tkl", "-2")])
    with pytest.raises(NegativeStat):
        load_player_stats(path, two_fixtures)


def test_stats_open_schema(tmp_path, two_fixtures):
    """Stat names outside the feature schema are kept verbatim."""
    path = stats_file(tmp_path, [("a0", "F1", "MF", "made_up_stat", "3.5")])
    archive = load_player_stats(path, two_fixtures)
    assert archive.get("a0", "F1").stats["made_up_stat"] == 3.5


def test_stats_bad_group(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "ST", "m_Gls", "1")])
    with pytest.raises(ParseError):
        load_player_stats(path, two_fixtures)


def test_stats_duplicate_record(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "GK", "g_CS", "1"),
                                 ("a0", "F1", "GK", "g_CS", "0")])
    with pytest.raises(ParseError):
        load_player_stats(path, two_fixtures)


# -------------------------------------------------------------------- odds


def odds_file(tmp_path, rows):
    path = tmp_path / "o.csv"
    path.write_text("fixture_id,home_goals,away_goals,odds\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows),
                    encoding="utf-8")
    return path


def test_odds_roundtrip(tmp_path, two_fixtures):
    path = odds_file(tmp_path, [("F1", 2, 1, 9.5)])
    odds = load_odds(path, two_fixtures)
    assert odds["F1"].scoreline_odds[(2, 1)] == 9.5


def test_odds_below_one_rejected(tmp_path, two_fixtures):
    path = odds_file(tmp_path, [("F1", 2, 1, 0.8)])
    with pytest.raises(OddsNotPositive):
        load_odds(path, two_fixtures)


def test_odds_of_exactly_one_rejected(tmp_path, two_fixtures):
    path = odds_file(tmp_path, [("F1", 0, 0, 1.0)])
    with pytest.raises(OddsNotPositive):
        load_odds(path, two_fixtures)


def test_odds_unknown_fixture(tmp_path, two_fixtures):
    path = odds_file(tmp_path, [("F9", 2, 1, 9.5)])
    with pytest.raises(UnknownFixture):
        load_odds(path, two_fixtures)


def test_odds_unquoted_scorelines_absent(tmp_path, two_fixtures):
    path = odds_file(tmp_path, [("F1", 2, 1, 9.5)])
    odds = load_odds(path, two_fixtures)
    assert (5, 5) not in odds["F1"].scoreline_odds
    assert "F2" not in odds


# ------------------------------------------------------------------- split


def test_split_last_n_by_date(sample_dir, dataset):
    """Test cut equals a hand-sorted listing of the raw file's tail."""
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        raw = list(csv.DictReader(fh))
    # ISO timestamps sort lexicographically
    raw.sort(key=lambda r: (r["kickoff"], r["fixture_id"]))
    expected_test = [r["fixture_id"] for r in raw[-8:]]
    assert [f.fixture_id for f in dataset.test_fixtures] == expected_test
    assert len(dataset.train_fixtures) == len(raw) - 8


def test_split_partition(dataset):
    train, test = dataset.train_fixtures, dataset.test_fixtures
    assert len(train) + len(test) == len(dataset.fixtures)
    assert set(f.fixture_id for f in train).isdisjoint(
        f.fixture_id for f in test)
    assert max(f.kickoff for f in train) <= min(f.kickoff for f in test)


def test_split_too_large(dataset):
    with pytest.raises(TestTooLarge):
        chronological_split(dataset.fixtures, len(dataset.fixtures))


def test_split_deterministic(sample_dir):
    a = load_dataset(sample_dir, test_size=8)
    b = load_dataset(sample_dir, test_size=8)
    assert [f.fixture_id for f in a.fixtures] == [f.fixture_id for f in b.fixtures]
    assert a.split_index == b.split_index


# ----------------------------------------------------- bundled sample file


def test_sample_fixture_count(sample_dir, dataset):
    with open(sample_dir / "fixtures.csv", encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    assert lines - 1 == 40
    assert len(dataset.fixtures) == 40


def test_sample_stats_counts_match_groupby(sample_dir, dataset):
    """Per-player record counts equal an independent group-by of the file."""
    counts: dict[str, int] = {}
    with open(sample_dir / "player_stats.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            key = (r["player_id"], r["fixture_id"])
            counts[key] = counts.get(key, 0) + 1
    # long format: several stat rows collapse into one record per key
    assert len(dataset.stats) == len(counts)
    per_player: dict[str, int] = {}
    for player, _fid in counts:
        per_player[player] = per_player.get(player, 0) + 1
    loaded: dict[str, int] = {}
    for record in dataset.stats.records():
        loaded[record.player_id] = loaded.get(record.player_id, 0) + 1
    assert loaded == per_player


def test_sample_odds_counts_match_file(sample_dir, dataset):
    per_fixture: dict[str, int] = {}
    with open(sample_dir / "odds.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            per_fixture[r["fixture_id"]] = per_fixture.get(r["fixture_id"], 0) + 1
    assert {fid: len(rec.scoreline_odds) for fid, rec in dataset.odds.items()} \
        == per_fixture


def test_referential_integrity(dataset):
    ids = {f.fixture_id for f in dataset.fixtures}
    assert all(r.fixture_id in ids for r in dataset.stats.records())
    assert set(dataset.odds) <= ids


# -------------------------------------------------------------- round-trip


def test_save_load_roundtrip(tmp_path, dataset):
    save_fixtures(dataset.fixtures, tmp_path / "fixtures.csv")
    save_player_stats(dataset.stats, tmp_path / "player_stats.csv")
    save_odds(dataset.odds, tmp_path / "odds.csv")
    again = load_dataset(tmp_path, test_size=8)
    assert again.fixtures == dataset.fixtures
    assert {(r.player_id, r.fixture_id): r.stats for r in again.stats.records()} \
        == {(r.player_id, r.fixture_id): r.stats for r in dataset.stats.records()}
    assert again.odds == dataset.odds
