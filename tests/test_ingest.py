"""Loader validation, chronological splitting and file round-trips."""

import codecs
import csv
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import archive_records, fx, load_stats_by_rows
from hypothesis import given, settings, strategies as st

from scoreline import ingest
from scoreline.ingest import (
    STATS_COLUMNS,
    DuplicateFixture,
    IngestError,
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
from scoreline.regress import workers

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


def test_player_in_both_lineups_rejected(tmp_path):
    # one fixture's two lineups share a3, so neither side could own a3's records
    both = LINEUP_B.replace("b10", "a3")
    path = write_fixtures(tmp_path / "f.csv", [
        row("F1", "2020-09-05T15:00:00"),
        row("F2", "2020-09-12T15:00:00", hg="", ag="", lineups=(LINEUP_A, both)),
    ])
    with pytest.raises(MalformedLineup, match="player 'a3' listed for both sides") as exc:
        load_fixtures(path, require_goals=False)
    assert exc.value.fixture_id == "F2"


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


@pytest.mark.parametrize("kickoffs, bad", [
    pytest.param(("2020-09-05T15:00:00", "2020-09-12T15:00:00+00:00"), 1, id="one-among-naive"),
    pytest.param(("2020-09-05T15:00:00+01:00", "2020-09-12T15:00:00+01:00"), 0, id="all"),
])
def test_kickoff_with_utc_offset_rejected(tmp_path, kickoffs, bad):
    """Naive and offset datetimes cannot be compared, so a kickoff with an
    offset fails at load, naming its row, not in a later sort."""
    path = write_fixtures(tmp_path / "f.csv",
                          [row(f"F{i}", kickoff) for i, kickoff in enumerate(kickoffs)])
    with pytest.raises(ParseError) as exc:
        load_fixtures(path, require_goals=False)
    assert str(exc.value) == (f"row {bad + 2}: kickoff {kickoffs[bad]!r} has a UTC offset; "
                              "give local time without one")


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


def stats_file(tmp_path, rows, quoted=False):
    """A stats file of ``rows``, plain or with every cell quoted; a quoted
    file is read by ``csv.reader``, a plain one split in bulk."""
    path = tmp_path / "s.csv"
    header = "player_id,fixture_id,position_group,stat_name,value\n"
    path.write_text(header + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    return quote_all(path) if quoted else path


def quote_all(path, lineterminator="\n"):
    """Rewrite a CSV file with every cell quoted, blank lines kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator=lineterminator).writerows(rows)
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
    assert archive_records(archive) == [("a0", "F1", "GK", (("g_CS", 1.0),))]


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
    assert archive_records(archive) == [("a0", "F1", "MF", (("made_up_stat", 3.5),))]


def test_stats_bad_group(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "ST", "m_Gls", "1")])
    with pytest.raises(ParseError):
        load_player_stats(path, two_fixtures)


def test_stats_duplicate_record(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [("a0", "F1", "GK", "g_CS", "1"),
                                 ("a0", "F1", "GK", "g_CS", "0")])
    with pytest.raises(ParseError):
        load_player_stats(path, two_fixtures)


GOOD_ROW = ("a0", "F1", "GK", "g_CS", "1")
GROUPS = "('GK', 'DF', 'MF', 'FW')"


def _cells(**cells):
    names = ("pid", "fid", "group", "stat", "value")
    return tuple(cells.get(name, good) for name, good in zip(names, GOOD_ROW))


def _missing_cases():
    columns = ("player_id", "fixture_id", "position_group", "stat_name", "value")
    for name, column in zip(("pid", "fid", "group", "stat", "value"), columns):
        for blank, label in (("", "missing"), ("  ", "whitespace")):
            yield pytest.param([_cells(**{name: blank})], ParseError,
                               f"row 2: missing value for {column!r}",
                               id=f"{column}-{label}")


STATS_ERRORS = [
    *_missing_cases(),
    pytest.param([_cells(fid=" F9 ")], UnknownFixture,
                 "record references unknown fixture 'F9'", id="unknown-fixture"),
    pytest.param([_cells(group="ST")], ParseError,
                 f"row 2: position_group 'ST' not in {GROUPS}", id="bad-group"),
    pytest.param([_cells(value=" x ")], ParseError,
                 "row 2: value ' x ' is not a number", id="value-not-a-number"),
    pytest.param([_cells(value="nan")], ParseError,
                 "row 2: stat 'g_CS' is not finite", id="nan"),
    pytest.param([_cells(value="inf")], ParseError,
                 "row 2: stat 'g_CS' is not finite", id="inf"),
    pytest.param([_cells(value="-inf")], ParseError,
                 "row 2: stat 'g_CS' is not finite", id="minus-inf-not-finite-before-negative"),
    pytest.param([_cells(value="1e400")], ParseError,
                 "row 2: stat 'g_CS' is not finite", id="overflow"),
    pytest.param([_cells(stat=" d_Tkl ", value="-2")], NegativeStat,
                 "player 'a0': stat 'd_Tkl' is negative", id="negative"),
    pytest.param([GOOD_ROW, _cells(stat=" g_CS ", value="0")], ParseError,
                 "row 3: duplicate stat 'g_CS' for ('a0', 'F1')", id="duplicate-stat"),
    pytest.param([GOOD_ROW, _cells(group="DF", stat="d_Tkl")], ParseError,
                 "row 3: conflicting position_group for ('a0', 'F1')",
                 id="conflicting-group-next-row"),
    pytest.param([GOOD_ROW, _cells(pid="a1", group="DF"), _cells(group="DF", stat="d_Tkl")],
                 ParseError, "row 4: conflicting position_group for ('a0', 'F1')",
                 id="conflicting-group-after-another-record"),
    pytest.param([GOOD_ROW, _cells(pid="a1"), _cells(stat="g_GA"), GOOD_ROW], ParseError,
                 "row 5: duplicate stat 'g_CS' for ('a0', 'F1')",
                 id="duplicate-stat-after-another-record"),
    # a row that fails two checks reports the one made first
    pytest.param([_cells(fid="F9", group="ST")], UnknownFixture,
                 "record references unknown fixture 'F9'", id="unknown-fixture-before-group"),
    pytest.param([_cells(pid="", value="x")], ParseError,
                 "row 2: missing value for 'player_id'", id="player-before-value"),
    pytest.param([_cells(group="ST", value="-1")], ParseError,
                 f"row 2: position_group 'ST' not in {GROUPS}", id="group-before-negative"),
    pytest.param([_cells(stat="", value="x")], ParseError,
                 "row 2: missing value for 'stat_name'", id="stat-name-before-value"),
    pytest.param([GOOD_ROW, _cells(group="DF", value="-1")], NegativeStat,
                 "player 'a0': stat 'g_CS' is negative", id="negative-before-conflict"),
    pytest.param([GOOD_ROW, _cells(group="DF", value="x")], ParseError,
                 "row 3: value 'x' is not a number", id="value-before-conflict"),
    pytest.param([GOOD_ROW, _cells(group="DF")], ParseError,
                 "row 3: conflicting position_group for ('a0', 'F1')",
                 id="conflict-before-duplicate"),
    # a padded id inside a run of rows: messages name the stripped id
    pytest.param([_cells(pid=" a0 "), _cells(pid=" a0 ", stat="d_Tkl", value="-2")],
                 NegativeStat, "player 'a0': stat 'd_Tkl' is negative",
                 id="padded-id-continuing-run-negative"),
    pytest.param([_cells(pid=" a0 "), _cells(pid=" a0 ", value="2")], ParseError,
                 "row 3: duplicate stat 'g_CS' for ('a0', 'F1')",
                 id="padded-id-continuing-run-duplicate"),
    pytest.param([GOOD_ROW, _cells(pid=" a0 ", stat="d_Tkl", value="-2")], NegativeStat,
                 "player 'a0': stat 'd_Tkl' is negative", id="padded-id-joins-run-negative"),
]


@pytest.mark.parametrize("rows, error, message", STATS_ERRORS)
def test_stats_error_contract(tmp_path, two_fixtures, rows, error, message):
    """Every stats check: its error type, its exact message and row number,
    and which check wins when a row fails two."""
    path = stats_file(tmp_path, rows)
    with pytest.raises(IngestError) as exc:
        load_player_stats(path, two_fixtures)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, error, message", STATS_ERRORS)
def test_stats_error_contract_quoted(tmp_path, two_fixtures, rows, error, message):
    """The same checks on the same rows with every cell quoted, which the
    csv.reader path reads: the same error type and message."""
    path = stats_file(tmp_path, rows, quoted=True)
    with pytest.raises(IngestError) as exc:
        load_player_stats(path, two_fixtures)
    assert type(exc.value) is error
    assert str(exc.value) == message


STATS_HEADER = "player_id,fixture_id,position_group,stat_name,value\n"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("text, expected", [
    pytest.param("value,stat_name,position_group,fixture_id,player_id\n1,g_CS,GK,F1,a0\n",
                 [("a0", "F1", "GK", (("g_CS", 1.0),))], id="columns-in-another-order"),
    pytest.param("note,player_id,fixture_id,position_group,stat_name,value,more\n"
                 "x,a0,F1,GK,g_CS,1,y\n",
                 [("a0", "F1", "GK", (("g_CS", 1.0),))], id="extra-columns"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS,1,extra,cells\na0,F1,GK,g_GA,2\n",
                 [("a0", "F1", "GK", (("g_CS", 1.0), ("g_GA", 2.0)))], id="extra-trailing-cells"),
    pytest.param(STATS_HEADER.strip() + ",value\na0,F1,GK,g_CS,1,4\n",
                 [("a0", "F1", "GK", (("g_CS", 4.0),))], id="repeated-header-reads-last"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS\n", "row 2: missing value for 'value'",
                 id="short-row"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS,1\n\na0,F1,GK,g_GA,-1\n",
                 "player 'a0': stat 'g_GA' is negative", id="blank-line-skipped"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS,1\n\na0,F1,GK,g_GA,x\n",
                 "row 3: value 'x' is not a number", id="blank-line-not-numbered"),
    pytest.param(STATS_HEADER + " a0 , F1 , GK , g_CS , 1 \na0,F1,GK, g_GA,2\n",
                 [("a0", "F1", "GK", (("g_CS", 1.0), ("g_GA", 2.0)))], id="padded-cells-stripped"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS\rx,1\n", "row 2: missing value for 'value'",
                 id="lone-cr-ends-a-line"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS\na0,F1,GK,g_GA,2,x\n",
                 "row 2: missing value for 'value'", id="short-row-then-long-row"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS,x\r\n", "row 2: value 'x' is not a number",
                 id="crlf-not-in-last-cell"),
    pytest.param(STATS_HEADER + "a0,F1,GK,g_CS,1\r\na0,F2,GK,g_CS,2",
                 [("a0", "F1", "GK", (("g_CS", 1.0),)), ("a0", "F2", "GK", (("g_CS", 2.0),))],
                 id="crlf-and-no-final-newline"),
])
def test_stats_reader_contract(tmp_path, two_fixtures, text, expected, quoted):
    """How a stats file's rows map to records, read in bulk or through
    csv.reader: by header name, blank lines skipped and unnumbered, short
    rows read as empty cells, cells stripped."""
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    if quoted:
        quote_all(path)
    if isinstance(expected, str):
        with pytest.raises(IngestError, match=f"^{re.escape(expected)}$"):
            load_player_stats(path, two_fixtures)
        return
    assert archive_records(load_player_stats(path, two_fixtures)) == expected


PLAIN_OR_NOT = {"as shipped": True, "LF": True, "quoted": False,
                "as shipped unterminated": True, "LF unterminated": True}
RANGE_COUNTS = (1, 2, 3)


def with_ranges(values):
    """Each of ``values`` (ids) with each of RANGE_COUNTS, its id unchanged
    at one range."""
    return [pytest.param(value, ranges, id=value if ranges == 1 else f"{value}-ranges_{ranges}")
            for value in values for ranges in RANGE_COUNTS]


def force_ranges(monkeypatch, ranges):
    """Read a plain stats file in ``ranges`` byte ranges (fewer only if its
    data lines hold fewer bytes): that many usable CPUs, and a range
    minimum of one byte."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: ranges)
    monkeypatch.setattr(ingest, "RANGE_BYTES", 1)


@pytest.mark.parametrize("form, ranges", with_ranges(PLAIN_OR_NOT))
def test_sample_stats_same_archive_from_either_reader(tmp_path, sample_dir, dataset, form,
                                                      ranges, monkeypatch):
    """The bundled stats file as shipped (CRLF line ends), with LF line ends,
    and with every cell quoted: the first two are split in bulk, also when
    their last line lacks its line end (unterminated), the quoted one is
    read by csv.reader, and all give the same code types and archive, read
    in one byte range or several."""
    force_ranges(monkeypatch, ranges)
    path = tmp_path / "player_stats.csv"
    raw = (sample_dir / "player_stats.csv").read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")
    if form.startswith("LF"):
        raw = raw.replace(b"\r\n", b"\n")
    if form.endswith("unterminated"):
        raw = raw.removesuffix(b"\n").removesuffix(b"\r")
    path.write_bytes(raw)
    if form == "quoted":
        quote_all(path, "\r\n")
    plain = ingest._plain_columns(path, ingest.STATS_COLUMNS, "stats")
    assert (plain is not None) == PLAIN_OR_NOT[form]
    # each column of the sample has under 256 distinct cells: one byte a code
    columns = ingest._read_columns(path, ingest.STATS_COLUMNS, "stats")[0]
    assert [codes.dtype for _, codes in columns] == [np.dtype(np.uint8)] * 5
    archive = load_player_stats(path, dataset.fixtures)
    assert archive_records(archive) == archive_records(dataset.stats)
    for name in ("player_ids", "fixture_ids", "group_names", "stat_names", "layouts"):
        assert getattr(archive, name) == getattr(dataset.stats, name)
    for name in ("player", "fixture", "group", "kind", "start", "value"):
        assert getattr(archive, name).dtype == getattr(dataset.stats, name).dtype
        assert getattr(archive, name).tobytes() == getattr(dataset.stats, name).tobytes()


def test_stats_loader_peak_memory_scales_with_the_archive(tmp_path):
    """A stats file of many reader blocks loads within a traced peak of a
    few times the archive's arrays: the columns keep one narrow code a
    row, and the record order one index a row. With int32 codes and int64
    orders the peak was over six times the archive."""
    rng = random.Random(11)
    fixtures = [fx(f"F{i:03d}", i, "A", "B") for i in range(160)]
    lines = [STATS_HEADER]
    for fixture in fixtures:
        for player in rng.sample(range(400), 22):
            group = ingest.POSITION_GROUPS[player % 4]
            lines += [f"p{player:03d},{fixture.fixture_id},{group},s_{stat:02d},"
                      f"{rng.randrange(300) / 4}\n" for stat in range(15)]
    path = tmp_path / "s.csv"
    path.write_text("".join(lines), encoding="utf-8")
    assert path.stat().st_size >= 8 * ingest.BLOCK_BYTES
    tracemalloc.start()
    try:
        archive = load_player_stats(path, fixtures)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(archive, name).nbytes
               for name in ("player", "fixture", "group", "kind", "start", "value"))
    assert peak < 5 * kept, (peak, kept)
    # player codes outgrow one byte a few blocks in: the parts join as uint16
    assert archive_records(archive) == archive_records(load_stats_by_rows(path, fixtures))


# A leading byte-order mark, as spreadsheet programs write one.
@pytest.mark.parametrize("name", ["fixtures.csv", "player_stats.csv", "odds.csv"])
def test_byte_order_mark_accepted(tmp_path, sample_dir, dataset, name):
    data = tmp_path / "data"
    shutil.copytree(sample_dir, data)
    (data / name).write_bytes(codecs.BOM_UTF8 + (sample_dir / name).read_bytes())
    again = load_dataset(data, test_size=8)
    assert again.fixtures == dataset.fixtures
    assert archive_records(again.stats) == archive_records(dataset.stats)
    assert again.odds == dataset.odds


def test_stats_byte_order_mark_quoted(tmp_path, two_fixtures):
    path = stats_file(tmp_path, [GOOD_ROW], quoted=True)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert archive_records(load_player_stats(path, two_fixtures)) == [
        ("a0", "F1", "GK", (("g_CS", 1.0),))]


@pytest.mark.parametrize("form, ranges", with_ranges(["plain", "quoted"]))
@pytest.mark.parametrize("where", ["first record", "last record"])
def test_stats_not_utf8_whatever_rows_come_first(tmp_path, two_fixtures, where, form, ranges,
                                                 monkeypatch):
    """The stats file is decoded whole before any row is checked, so a bad
    byte fails as NotUtf8 even after a row that fails a check, in the first
    byte range or the last."""
    force_ranges(monkeypatch, ranges)
    quoted = form == "quoted"
    rows = [_cells(fid="F9"), *[GOOD_ROW] * 2000, _cells(stat="d_Tkl")]
    path = stats_file(tmp_path, rows, quoted)
    raw = path.read_bytes()
    at = raw.index(b"F9") if where == "first record" else len(raw) - 3
    path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    with pytest.raises(NotUtf8) as exc:
        load_player_stats(path, two_fixtures)
    assert str(exc.value) == f"stats file {path} is not UTF-8 text: invalid start byte"


@pytest.mark.parametrize("ranges", [2, 3])
def test_stats_first_range_not_plain_decides_over_a_later_range_not_utf8(
        tmp_path, two_fixtures, monkeypatch, ranges):
    """The first range holds a ``"`` that opens a quoted cell, a later one a
    0xff byte. One range meets the ``"`` first and falls back to csv.reader,
    which stops at the quoted cell's field limit before it decodes the 0xff;
    any number of ranges must read the file as one range does, not fail on
    the 0xff of a later range."""
    path = tmp_path / "s.csv"
    path.write_bytes(STATS_HEADER.encode() + b'a0,F1,GK,g_CS,"1\n'
                     + b"a1,F1,GK,g_GA,2\n" * 12_000 + b"a2,F2,GK,g_CS,\xff\n")
    expected = (ParseError, "row 2: unreadable stats file: field larger than field limit (131072)")
    assert _outcome(load_stats_by_rows, path, two_fixtures) == expected
    for count in (1, ranges):
        force_ranges(monkeypatch, count)
        assert _outcome(load_player_stats, path, two_fixtures) == expected, count


@pytest.mark.parametrize("text, ranges", with_ranges(["empty", "header only"]))
def test_stats_file_without_records_in_any_number_of_ranges(tmp_path, two_fixtures, monkeypatch,
                                                            text, ranges):
    """An empty stats file has no header; one with a header alone has no
    records, and its data lines make no byte range, whatever the CPU count."""
    force_ranges(monkeypatch, ranges)
    path = tmp_path / "s.csv"
    path.write_text(STATS_HEADER if text == "header only" else "", encoding="utf-8")
    expected = [] if text == "header only" else (
        ParseError, f"row 1: stats file missing columns {list(STATS_COLUMNS)}")
    assert _outcome(load_player_stats, path, two_fixtures) == expected


@pytest.mark.parametrize("ranges", RANGE_COUNTS)
def test_stats_line_longer_than_a_block_keeps_the_bulk_path(tmp_path, two_fixtures, monkeypatch,
                                                            ranges):
    """A line longer than a block, and than a byte range, makes no empty
    block or range: the file is still split in bulk, and gives the
    row-at-a-time archive. An empty block would not be plain, and would
    send the file to csv.reader with the same archive."""
    force_ranges(monkeypatch, ranges)
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    rows = [_cells(pid=f"a{i}", stat=stat) for i in range(4) for stat in ("g_CS", "g_GA")]
    rows[3:3] = [_cells(pid="p" * 220, fid="F2")]
    path = stats_file(tmp_path, rows)
    assert ingest._plain_columns(path, ingest.STATS_COLUMNS, "stats") is not None
    assert archive_records(load_player_stats(path, two_fixtures)) \
        == archive_records(load_stats_by_rows(path, two_fixtures))


# Per column, good cells, odd ones (padded, which is the same key after
# stripping, empty, unknown, negative, not finite or not numbers) and how
# many good cells are drawn for one odd one.
CELLS = [(["a0", "a1", "b2"], [" a0 ", ""], 7),
         (["F1", "F2"], [" F2", "F9", ""], 7),
         (["GK", "DF"], ["MF ", "ST", ""], 7),
         (["g_CS", "g_GA", "d_Tkl", "m_KP"], [" g_CS", ""], 7),
         (["1", "0", "2.5", "10"], ["-0", " 3 ", "-1", "nan", "1e400", "inf", "x", ""], 2)]


@st.composite
def stats_texts(draw):
    """A stats file's text, whether to quote its every cell, the block size
    to read it in, and the number of byte ranges to cut its data lines in,
    with a range minimum of a few bytes: small blocks and several ranges
    cut the file between lines. Half the files hold good cells only, and
    fail, if at all, on conflicting groups or repeated stats."""
    clean = draw(st.booleans())
    player, fixture, group, stat, value = (
        st.sampled_from(good) if clean
        else st.one_of(*[st.sampled_from(good)] * weight, st.sampled_from(odd))
        for good, odd, weight in CELLS)
    records = draw(st.lists(st.tuples(player, fixture, group,
                                      st.lists(stat, min_size=1, max_size=3, unique=True)),
                               max_size=6))
    rows = [(p, f, g, name, draw(value)) for p, f, g, names in records for name in names]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))  # records interleaved
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in [STATS_COLUMNS, *rows])
    return text + ("" if draw(st.booleans()) else end), draw(st.booleans()), \
        draw(st.sampled_from([ingest.BLOCK_BYTES, 40])), draw(st.sampled_from(RANGE_COUNTS)), \
        draw(st.integers(1, 16))


def _outcome(load, path, fixtures):
    try:
        return archive_records(load(path, fixtures))
    except IngestError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(stats_texts())
def test_stats_loader_matches_row_at_a_time_oracle(case):
    """On random small stats files (padded and interleaved keys, CRLF or LF,
    with or without a final newline, negative, NaN and overflowing values,
    conflicting groups, plain or quoted, read in one block or many, in one
    byte range or several) the loader gives the oracle's archive or its
    error."""
    text, quoted, block, ranges, minimum = case
    fixtures = [fx("F1", 0, "X", "Y"), fx("F2", 7, "Y", "X")]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "BLOCK_BYTES", block), \
            mock.patch.object(ingest, "RANGE_BYTES", minimum), \
            mock.patch.object(workers, "usable_cpus", lambda: ranges):
        path = Path(tmp, "s.csv")
        path.write_bytes(text.encode("utf-8"))
        if quoted:
            quote_all(path)
        assert _outcome(load_player_stats, path, fixtures) \
            == _outcome(load_stats_by_rows, path, fixtures)


@pytest.mark.parametrize("first, message", [
    ("a0,F1,GK,g_CS,1", "row 3: unreadable stats file: field larger than field limit (131072)"),
    ("a0,F9,GK,g_CS,1", "record references unknown fixture 'F9'"),
], ids=["unreadable", "bad-row-first"])
def test_stats_rows_before_an_unreadable_row_are_checked_first(tmp_path, two_fixtures,
                                                               first, message):
    """A cell over the field limit stops csv.reader; the rows before it are
    still checked first, as a row-at-a-time reader checks them."""
    path = tmp_path / "s.csv"
    path.write_text(f"{STATS_HEADER}{first}\na0,F1,GK,{'s' * 131_073},1\n", encoding="utf-8")
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        load_player_stats(path, two_fixtures)


def test_stats_nul_cell_read_as_csv_reader_reads_it(tmp_path, two_fixtures):
    """csv.reader refuses a NUL before Python 3.11 and keeps it from 3.11
    on; the loader does the same."""
    path = tmp_path / "s.csv"
    path.write_text(STATS_HEADER + "a0,F1,GK,g_CS,1\na0\0,F1,GK,g_CS,2\n", encoding="utf-8")
    assert _outcome(load_player_stats, path, two_fixtures) \
        == _outcome(load_stats_by_rows, path, two_fixtures)


def test_hash_collision_falls_back_to_sorting():
    """Cells and layouts are told apart exactly: two distinct columns that
    a 64-bit multiply-add hash of their words once mapped to one value
    still get two codes."""
    m0, m1 = 24316585856359949, 472767201281884923
    table = np.array([[m1, 0, m1], [0, m0, 0]], dtype=np.uint64)  # m1*m0 + 0*m1 == 0*m0 + m0*m1
    first, inverse = ingest._distinct_columns(table)
    assert len(first) == 2 and inverse[0] == inverse[2] != inverse[1]
    assert (table[:, first][:, inverse] == table).all()


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


def test_sample_stats_load_in_any_row_order(tmp_path, sample_dir, dataset):
    """A shuffled copy of the stats file, where a record's rows are rarely
    consecutive, loads to the same records, groups and values."""
    header, *lines = (sample_dir / "player_stats.csv").read_text(encoding="utf-8").splitlines()
    random.Random(0).shuffle(lines)
    path = tmp_path / "player_stats.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    shuffled = load_player_stats(path, dataset.fixtures)
    assert len(shuffled) == len(dataset.stats)
    assert {(r.player_id, r.fixture_id): (r.position_group, r.stats)
            for r in shuffled.records()} \
        == {(r.player_id, r.fixture_id): (r.position_group, r.stats)
            for r in dataset.stats.records()}


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


def test_sample_generator_reproduces_bundled_files(tmp_path, sample_dir):
    """scripts/gen_sample_data.py writes the four data/sample files byte for
    byte, through StatsArchive.of(records) and save_player_stats."""
    script = sample_dir.parent.parent / "scripts" / "gen_sample_data.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    for name in ("fixtures.csv", "player_stats.csv", "odds.csv", "upcoming.csv"):
        assert (tmp_path / name).read_bytes() == (sample_dir / name).read_bytes(), name


def test_sample_generator_help_writes_nothing(tmp_path, sample_dir):
    script = sample_dir.parent.parent / "scripts" / "gen_sample_data.py"
    done = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: gen_sample_data.py")
    assert list(tmp_path.iterdir()) == []
