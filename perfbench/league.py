"""Synthetic league generator for the benchmark.

Writes the three CSV inputs the program reads (fixtures, player_stats,
odds) plus one goals-blank fixtures file per rolling round. Everything is
drawn from one ``random.Random(seed)`` stream and written with fixed
formatting, so the same (teams, seasons, extra rounds, seed) always gives
byte-identical files. The generator is self-contained on purpose: the
benchmark's inputs must not move when the program's own data helpers do.

Each season is a double round robin; ``extra_rounds`` adds the first
rounds of one more season, so ``teams=20, seasons=1, extra_rounds=3`` is
an EPL-sized 410-fixture league. Squads grow by one defender and one
forward per season, so debut players exercise the cold-player fallback.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

FIXTURE_COLUMNS = ("fixture_id", "season", "kickoff", "home_team", "away_team",
                   "home_goals", "away_goals", "home_lineup", "away_lineup")
HOME_BASE = 1.50
AWAY_BASE = 1.15
MAX_GOALS = 5
FIRST_SEASON = 2018
SQUAD = (("gk", 2), ("df", 5), ("mf", 5), ("fw", 3))
GROUP = {"gk": "GK", "df": "DF", "mf": "MF", "fw": "FW"}
SCORER_WEIGHT = {"gk": 0.0, "df": 0.08, "mf": 0.32, "fw": 0.60}


@dataclass(frozen=True)
class Round:
    """One matchday of the generated league, in kickoff order."""

    index: int
    fixture_ids: tuple[str, ...]
    tail_size: int  # fixtures from this round to the end: the test split
    fixtures_csv: Path  # this round's fixtures with goals left blank


@dataclass(frozen=True)
class League:
    data_dir: Path
    teams: int
    seasons: int
    extra_rounds: int
    fixtures: int
    records: int
    rounds: tuple[Round, ...]  # the rolling rounds, oldest first


def poisson(rng: random.Random, lam: float) -> int:
    """Knuth's product method; lam stays small here."""
    limit, k, p = math.exp(-lam), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def binomial(rng: random.Random, n: int, p: float) -> int:
    return sum(1 for _ in range(n) if rng.random() < p)


def poisson_pmf(lam: float, k: int) -> float:
    return math.exp(-lam) * lam ** k / math.factorial(k)


def round_robin(n: int) -> list[list[tuple[int, int]]]:
    """Circle-method single round robin over team indices 0..n-1."""
    wheel = list(range(1, n))
    rounds = []
    for r in range(n - 1):
        order = [0] + wheel[r:] + wheel[:r]
        rounds.append([(order[i], order[n - 1 - i]) if (r + i) % 2 == 0
                       else (order[n - 1 - i], order[i]) for i in range(n // 2)])
    return rounds


def squad(abbr: str, season_no: int) -> dict[str, list[str]]:
    players = {pos: [f"{abbr}_{pos}{i}" for i in range(1, count + 1)]
               for pos, count in SQUAD}
    for pos in ("df", "fw"):
        base = len(players[pos])
        players[pos] += [f"{abbr}_{pos}{base + i}" for i in range(1, season_no + 1)]
    return players


def pick_lineup(rng: random.Random, players: dict[str, list[str]]) -> list[str]:
    gk = players["gk"][0 if rng.random() < 0.85 else 1]
    return [gk, *sorted(rng.sample(players["df"], 4)),
            *sorted(rng.sample(players["mf"], 4)),
            *sorted(rng.sample(players["fw"], 2))]


def credit(rng: random.Random, lineup: list[str], goals: int) -> dict[str, int]:
    weights = [SCORER_WEIGHT[pid.split("_")[1][:2]] for pid in lineup]
    out = dict.fromkeys(lineup, 0)
    for pid in rng.choices(lineup, weights=weights, k=goals):
        out[pid] += 1
    return out


def stat_line(rng: random.Random, pos: str, att: float, deff: float,
              opp_att: float, conceded: int, goals: int, assists: int) -> dict:
    """One player's match stats, named as the program's default schema."""
    if pos == "gk":
        sota = conceded + poisson(rng, 2.4 * opp_att)
        return {"g_CS": int(conceded == 0), "g_GA": conceded, "g_SoTA": sota,
                "g_Saves": sota - conceded,
                "g_PSxG": round(conceded * 0.85 + 0.3 * rng.random(), 2)}
    shots = {"df": 0.7, "mf": 1.0, "fw": 2.1}[pos]
    sh = goals + poisson(rng, shots * att)
    sot = goals + binomial(rng, sh - goals, 0.33)
    p = pos[0] if pos != "fw" else "a"
    line = {
        f"{p}_Gls": goals, f"{p}_Ast": assists,
        f"{p}_xG": round(0.12 * sh + 0.25 * goals, 2),
        f"{p}_xA": round(0.15 * assists + 0.06 * rng.random(), 2),
        f"{p}_KP": poisson(rng, 0.9 * att), f"{p}_Sh": sh, f"{p}_SoT": sot,
        f"{p}_GCA": assists + poisson(rng, 0.3 * att),
        f"{p}_SCA": poisson(rng, 1.4 * att),
        f"{p}_PrgC": poisson(rng, 1.5 * att),
    }
    if pos == "df":
        line.update({
            "d_PrgP": poisson(rng, 3.5 * att), "d_Crs": poisson(rng, 1.4),
            "d_Touches": max(20, int(rng.gauss(58 * att, 7))),
            "d_Tkl": poisson(rng, 2.2 * deff), "d_Int": poisson(rng, 1.5 * deff),
            "d_Blocks": poisson(rng, 1.1 * deff), "d_Clr": poisson(rng, 3.4 * deff),
            "d_Recov": max(0, int(rng.gauss(6.0 * deff, 1.4))),
            "d_AerWon": poisson(rng, 1.8 * deff)})
        line["d_TklW"] = binomial(rng, line["d_Tkl"], 0.62)
    elif pos == "mf":
        line.update({
            "m_PrgP": poisson(rng, 4.5 * att), "m_Crs": poisson(rng, 1.1),
            "m_PasCmp": max(10, int(rng.gauss(44 * att, 6))),
            "m_Drb": poisson(rng, 1.3 * att)})
    else:
        line.update({
            "a_Drb": poisson(rng, 1.6 * att), "a_Fld": poisson(rng, 1.2),
            "a_Touches": max(10, int(rng.gauss(38 * att, 5)))})
    return line


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(value)


def generate(out_dir: Path, teams: int, seasons: int, extra_rounds: int,
             rolling: int, seed: int) -> League:
    """Write a league into ``out_dir``; ``rolling`` is how many of the last
    rounds get a goals-blank fixtures file for ``predict``."""
    if teams < 4 or teams % 2:
        raise ValueError(f"teams must be even and at least 4, got {teams}")
    rng = random.Random(seed)
    abbrs = [f"c{i:02d}" for i in range(1, teams + 1)]
    names = [f"Club{i:02d}" for i in range(1, teams + 1)]
    strength = [(rng.uniform(0.70, 1.35), rng.uniform(0.75, 1.30)) for _ in abbrs]
    single = round_robin(teams)
    double = single + [[(a, h) for h, a in rnd] for rnd in single]
    schedule = [(s, rnd) for s in range(seasons) for rnd in double]
    schedule += [(seasons, rnd) for rnd in double[:extra_rounds]]
    if not 1 <= rolling < len(schedule):
        raise ValueError(f"rolling must be in 1..{len(schedule) - 1}, got {rolling}")

    out_dir.mkdir(parents=True, exist_ok=True)
    fixture_rows, odds_rows, round_ids = [], [], []
    records = 0
    with open(out_dir / "player_stats.csv", "w", newline="", encoding="utf-8") as stats_fh:
        stats = csv.writer(stats_fh, lineterminator="\n")
        stats.writerow(("player_id", "fixture_id", "position_group", "stat_name", "value"))
        season_round = {}
        for season_no, rnd in schedule:
            r = season_round[season_no] = season_round.get(season_no, -1) + 1
            start = datetime(FIRST_SEASON + season_no, 8, 10, 12, 0) + timedelta(days=7 * r)
            ids = []
            for k, (h, a) in enumerate(rnd):
                fid = f"F{len(fixture_rows) + 1:05d}"
                ids.append(fid)
                (att_h, def_h), (att_a, def_a) = strength[h], strength[a]
                lam_h, lam_a = HOME_BASE * att_h / def_a, AWAY_BASE * att_a / def_h
                hg = min(poisson(rng, lam_h), MAX_GOALS)
                ag = min(poisson(rng, lam_a), MAX_GOALS)
                lu_h = pick_lineup(rng, squad(abbrs[h], season_no))
                lu_a = pick_lineup(rng, squad(abbrs[a], season_no))
                fixture_rows.append([fid, FIRST_SEASON + season_no,
                                     (start + timedelta(hours=2 * k)).isoformat(),
                                     names[h], names[a], hg, ag,
                                     ";".join(lu_h), ";".join(lu_a)])
                for lineup, att, deff, opp_att, gf, ga in (
                        (lu_h, att_h, def_h, att_a, hg, ag),
                        (lu_a, att_a, def_a, att_h, ag, hg)):
                    scorers = credit(rng, lineup, gf)
                    assists = credit(rng, lineup, max(0, gf - 1))
                    for pid in lineup:
                        pos = pid.split("_")[1][:2]
                        line = stat_line(rng, pos, att, deff, opp_att, ga,
                                         scorers[pid], assists[pid])
                        stats.writerows((pid, fid, GROUP[pos], name, fmt(value))
                                        for name, value in sorted(line.items()))
                        records += 1
                for qh in range(4):
                    for qa in range(4):
                        p = poisson_pmf(lam_h, qh) * poisson_pmf(lam_a, qa)
                        odds_rows.append((fid, qh, qa, fmt(max(1.05, round(0.92 / max(p, 0.002), 2)))))
            round_ids.append(tuple(ids))

    def write(path: Path, header, rows) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    write(out_dir / "fixtures.csv", FIXTURE_COLUMNS, fixture_rows)
    write(out_dir / "odds.csv", ("fixture_id", "home_goals", "away_goals", "odds"), odds_rows)
    by_id = {row[0]: row for row in fixture_rows}
    rounds = []
    for index in range(len(round_ids) - rolling, len(round_ids)):
        path = out_dir / f"round_{index:03d}.csv"
        write(path, FIXTURE_COLUMNS,
              [row[:5] + ["", ""] + row[7:] for row in (by_id[f] for f in round_ids[index])])
        tail = sum(len(ids) for ids in round_ids[index:])
        rounds.append(Round(index, round_ids[index], tail, path))
    return League(out_dir, teams, seasons, extra_rounds, len(fixture_rows),
                  records, tuple(rounds))
