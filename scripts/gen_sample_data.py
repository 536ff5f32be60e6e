#!/usr/bin/env python3
"""Generate the bundled synthetic dataset under data/sample/.

Eight fictional clubs over two seasons: a 2020 single round robin (28
matches) and the first three 2021 rounds (12 matches), 40 fixtures total,
plus an upcoming.csv of four unplayed fixtures for the predict command.
Every lineup player gets a full stat record per appearance, so the
walk-forward feature windows always have history to draw on; 2021 debut
players and one all-reserve upcoming fixture exercise the fallback paths.

Deterministic for a fixed seed: rerunning reproduces identical files.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timedelta
from math import exp
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scoreline.ingest import (  # noqa: E402
    Fixture,
    OddsRecord,
    PlayerMatchStats,
    StatsArchive,
    save_fixtures,
    save_odds,
    save_player_stats,
)

SEED = 20240811

TEAMS = {
    "Ashwood": ("ash", 1.35, 1.25),
    "Braymoor": ("bra", 1.20, 1.10),
    "Caldwick": ("cal", 1.10, 1.00),
    "Dunmere": ("dun", 1.00, 1.05),
    "Eastvale": ("eas", 0.95, 0.90),
    "Farrowgate": ("far", 0.90, 0.85),
    "Greywell": ("gre", 0.80, 0.90),
    "Holmsford": ("hol", 0.70, 0.80),
}
# (attack multiplier, defence multiplier); defence > 1 concedes less

HOME_BASE = 1.50
AWAY_BASE = 1.15
MAX_GOALS = 5

# squads: two keepers, five defenders, five midfielders, three forwards,
# plus one defender and one forward who debut in 2021
SQUAD_2020 = [("gk", 2), ("df", 5), ("mf", 5), ("fw", 3)]
DEBUTS_2021 = [("df", 6, 6), ("fw", 4, 4)]  # (pos, first index, last index)

GROUP_OF = {"gk": "GK", "df": "DF", "mf": "MF", "fw": "FW"}


def squad(team: str, season: int) -> dict[str, list[str]]:
    abbr = TEAMS[team][0]
    players = {pos: [f"{abbr}_{pos}{i}" for i in range(1, count + 1)]
               for pos, count in SQUAD_2020}
    if season >= 2021:
        for pos, first, last in DEBUTS_2021:
            players[pos].extend(f"{abbr}_{pos}{i}" for i in range(first, last + 1))
    return players


def round_robin(teams: list[str]) -> list[list[tuple[str, str]]]:
    """Circle-method schedule: 7 rounds of 4 pairings for 8 teams."""
    n = len(teams)
    fixed, wheel = teams[0], teams[1:]
    rounds = []
    for r in range(n - 1):
        order = [fixed] + wheel[r:] + wheel[:r]
        pairs = []
        for i in range(n // 2):
            a, b = order[i], order[n - 1 - i]
            pairs.append((a, b) if (r + i) % 2 == 0 else (b, a))
        rounds.append(pairs)
    return rounds


def pick_lineup(rng: np.random.Generator, players: dict[str, list[str]]) -> list[str]:
    gk = players["gk"][0 if rng.random() < 0.85 else 1]
    df = sorted(rng.choice(players["df"], size=4, replace=False))
    mf = sorted(rng.choice(players["mf"], size=4, replace=False))
    fw = sorted(rng.choice(players["fw"], size=2, replace=False))
    return [gk, *df, *mf, *fw]


def poisson_pmf(lam: float, k: int) -> float:
    p = exp(-lam)
    for i in range(1, k + 1):
        p *= lam / i
    return p


def assign_goals(rng: np.random.Generator, lineup: list[str], goals: int) -> dict[str, int]:
    """Split a team's goals over its lineup, forwards most likely."""
    weights = []
    for pid in lineup:
        pos = pid.split("_")[1][:2]
        weights.append({"gk": 0.0, "df": 0.08, "mf": 0.32, "fw": 0.60}[pos])
    w = np.array(weights) / sum(weights)
    scored = {pid: 0 for pid in lineup}
    for _ in range(goals):
        scorer = rng.choice(lineup, p=w)
        scored[scorer] += 1
    return scored


def player_record(rng: np.random.Generator, pid: str, fid: str, att: float,
                  deff: float, opp_att: float, team_goals: int,
                  conceded: int, my_goals: int, my_assists: int) -> PlayerMatchStats:
    pos = pid.split("_")[1][:2]
    group = GROUP_OF[pos]
    stats: dict[str, float] = {}
    if group == "GK":
        sota = conceded + int(rng.poisson(2.4 * opp_att))
        psxg = max(0.0, round(conceded * 0.85 + 0.3 * float(rng.random()), 2))
        stats = {
            "g_CS": 0 if conceded else 1,
            "g_GA": conceded,
            "g_SoTA": sota,
            "g_Saves": sota - conceded,
            "g_PSxG": psxg,
        }
    elif group == "DF":
        sh = my_goals + int(rng.poisson(0.7 * att))
        sot = my_goals + int(rng.binomial(max(sh - my_goals, 0), 0.3))
        stats = {
            "d_Gls": my_goals,
            "d_Ast": my_assists,
            "d_xG": round(0.1 * sh + 0.25 * my_goals, 2),
            "d_xA": round(0.15 * my_assists + 0.05 * float(rng.random()), 2),
            "d_KP": int(rng.poisson(0.6 * att)),
            "d_PrgP": int(rng.poisson(3.5 * att)),
            "d_PrgC": int(rng.poisson(1.2 * att)),
            "d_Sh": sh,
            "d_SoT": sot,
            "d_GCA": my_assists + int(rng.poisson(0.2 * att)),
            "d_SCA": int(rng.poisson(0.9 * att)),
            "d_Crs": int(rng.poisson(1.4)),
            "d_Touches": max(20, int(rng.normal(58 * att, 7))),
            "d_Tkl": int(rng.poisson(2.2 * deff)),
            "d_Int": int(rng.poisson(1.5 * deff)),
            "d_Blocks": int(rng.poisson(1.1 * deff)),
            "d_Clr": int(rng.poisson(3.4 * deff)),
            "d_Recov": max(0, int(rng.normal(6.0 * deff, 1.4))),
            "d_AerWon": int(rng.poisson(1.8 * deff)),
        }
        stats["d_TklW"] = int(rng.binomial(stats["d_Tkl"], 0.62))
    elif group == "MF":
        sh = my_goals + int(rng.poisson(1.0 * att))
        sot = my_goals + int(rng.binomial(max(sh - my_goals, 0), 0.36))
        kp = int(rng.poisson(1.2 * att))
        stats = {
            "m_Gls": my_goals,
            "m_Ast": my_assists,
            "m_GCA": my_assists + int(rng.poisson(0.4 * att)),
            "m_SCA": int(rng.poisson(1.8 * att)),
            "m_xG": round(0.11 * sh + 0.25 * my_goals, 2),
            "m_xA": round(0.09 * kp + 0.2 * my_assists, 2),
            "m_KP": kp,
            "m_PrgP": int(rng.poisson(4.5 * att)),
            "m_PrgC": int(rng.poisson(2.0 * att)),
            "m_Sh": sh,
            "m_SoT": sot,
            "m_Crs": int(rng.poisson(1.1)),
            "m_PasCmp": max(10, int(rng.normal(44 * att, 6))),
            "m_Drb": int(rng.poisson(1.3 * att)),
        }
    else:
        sh = my_goals + int(rng.poisson(2.1 * att))
        sot = my_goals + int(rng.binomial(max(sh - my_goals, 0), 0.32))
        stats = {
            "a_Gls": my_goals,
            "a_Ast": my_assists,
            "a_GCA": my_assists + int(rng.poisson(0.5 * att)),
            "a_SCA": int(rng.poisson(1.5 * att)),
            "a_xG": round(0.14 * sh + 0.3 * my_goals, 2),
            "a_xA": round(0.2 * my_assists + 0.06 * float(rng.random()), 2),
            "a_KP": int(rng.poisson(1.0 * att)),
            "a_Sh": sh,
            "a_SoT": sot,
            "a_PrgC": int(rng.poisson(1.6 * att)),
            "a_Drb": int(rng.poisson(1.6 * att)),
            "a_Fld": int(rng.poisson(1.2)),
            "a_Touches": max(10, int(rng.normal(38 * att, 5))),
        }
    return PlayerMatchStats(player_id=pid, fixture_id=fid,
                            position_group=group, stats=stats)


# quotes removed from these fixtures to exercise the missing-odds policy
DROPPED_QUOTES = {
    "F007": (1, 0),
    "F019": (1, 1),
    "F033": (2, 1),
    "F038": (0, 0),
}


def generate(out_dir: Path) -> None:
    rng = np.random.default_rng(SEED)
    teams = list(TEAMS)
    fixtures: list[Fixture] = []
    records: list[PlayerMatchStats] = []
    odds: dict[str, OddsRecord] = {}
    fid_counter = 0

    def play(season: int, kickoff: datetime, home: str, away: str) -> None:
        nonlocal fid_counter
        fid_counter += 1
        fid = f"F{fid_counter:03d}"
        att_h, def_h = TEAMS[home][1], TEAMS[home][2]
        att_a, def_a = TEAMS[away][1], TEAMS[away][2]
        lam_h = HOME_BASE * att_h / def_a
        lam_a = AWAY_BASE * att_a / def_h
        hg = min(int(rng.poisson(lam_h)), MAX_GOALS)
        ag = min(int(rng.poisson(lam_a)), MAX_GOALS)
        lineup_h = pick_lineup(rng, squad(home, season))
        lineup_a = pick_lineup(rng, squad(away, season))
        fixtures.append(Fixture(
            fixture_id=fid, season=season, kickoff=kickoff,
            home_team=home, away_team=away, home_goals=hg, away_goals=ag,
            home_lineup=tuple(lineup_h), away_lineup=tuple(lineup_a)))

        for lineup, att, deff, opp_att, gf, ga in (
                (lineup_h, att_h, def_h, att_a, hg, ag),
                (lineup_a, att_a, def_a, att_h, ag, hg)):
            scorers = assign_goals(rng, lineup, gf)
            assists = assign_goals(rng, lineup, max(0, gf - 1))
            for pid in lineup:
                records.append(player_record(
                    rng, pid, fid, att, deff, opp_att, gf, ga,
                    scorers[pid], assists[pid]))

        quotes = {}
        for qh in range(4):
            for qa in range(4):
                if DROPPED_QUOTES.get(fid) == (qh, qa):
                    continue
                p = poisson_pmf(lam_h, qh) * poisson_pmf(lam_a, qa)
                quotes[(qh, qa)] = max(1.05, round(0.92 / max(p, 0.002), 2))
        odds[fid] = OddsRecord(fixture_id=fid, scoreline_odds=quotes)

    kickoff = datetime(2020, 9, 12, 15, 0)
    for rnd in round_robin(teams):
        for home, away in rnd:
            play(2020, kickoff, home, away)
            kickoff += timedelta(hours=2)
        kickoff += timedelta(days=7, hours=-8)

    kickoff = datetime(2021, 9, 11, 15, 0)
    flipped = [[(a, h) for h, a in rnd] for rnd in round_robin(teams)[:3]]
    for rnd in flipped:
        for home, away in rnd:
            play(2021, kickoff, home, away)
            kickoff += timedelta(hours=2)
        kickoff += timedelta(days=7, hours=-8)

    # four unplayed fixtures for `scoreline predict`; U904 fields reserve
    # elevens unseen in training (players-approach cold-universe case)
    upcoming = []
    next_round = round_robin(teams)[3]
    kickoff = datetime(2021, 10, 9, 15, 0)
    for i, (away, home) in enumerate(next_round, start=1):
        fid = f"U9{i:02d}"
        if i == 4:
            lu_h = tuple(f"{TEAMS[home][0]}_res{j}" for j in range(1, 12))
            lu_a = tuple(f"{TEAMS[away][0]}_res{j}" for j in range(1, 12))
        else:
            lu_h = tuple(pick_lineup(rng, squad(home, 2021)))
            lu_a = tuple(pick_lineup(rng, squad(away, 2021)))
        upcoming.append(Fixture(
            fixture_id=fid, season=2021, kickoff=kickoff, home_team=home,
            away_team=away, home_goals=None, away_goals=None,
            home_lineup=lu_h, away_lineup=lu_a))
        kickoff += timedelta(hours=2)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_fixtures(fixtures, out_dir / "fixtures.csv")
    save_player_stats(StatsArchive.of(records), out_dir / "player_stats.csv")
    save_odds(odds, out_dir / "odds.csv")
    save_fixtures(upcoming, out_dir / "upcoming.csv")
    quotes_total = sum(len(o.scoreline_odds) for o in odds.values())
    print(f"wrote {len(fixtures)} fixtures, {len(records)} player-match "
          f"records, {quotes_total} odds quotes, {len(upcoming)} upcoming "
          f"fixtures to {out_dir}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the bundled synthetic league.")
    parser.add_argument("out_dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "data" / "sample",
                        help="directory to write the four CSV files to (default: data/sample)")
    generate(parser.parse_args().out_dir)
