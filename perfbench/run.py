#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for scoreline.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each workload is a closed loop: one process, one client, operations issued
back to back. Every operation is one call of the CLI's public entry point,
``scoreline.cli.main(argv)``, with the argv a user would type, on a league
the benchmark generates from ``--seed`` (see ``league.py``).

* ``--trace 0`` times ops for ``--seconds`` seconds, whole steps at a time
  (a step is one ``evaluate --all``, or one round's ``train`` then
  ``predict``), and reports the end-to-end metrics.
* ``--trace 1`` hooks the layer boundaries (``spans.py``), runs one fixed
  pass of steps so that its counts repeat exactly, and reports per-layer
  self times and counts, each the median over the pass's steps.
* ``--workload all`` runs every workload untraced and traced in child
  processes and prints one table, with the tracing overhead.

Times are reported in reference seconds: wall time scaled by the host
speed that ``SpeedProbe`` samples during the run; the raw wall times are
kept beside them in the detail.

Every output is checked: each op must exit 0, bundles and prediction
files must be complete and well-formed, and their sha256 digests must
repeat for the same code and seed, within a run and across runs (kept in
``.perfbench/digests.json``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, per-command timings and the layer breakdown, and the
same data goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import league  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    teams: int
    seasons: int
    extra_rounds: int
    rounds: int  # grid: rounds held out; rolling: rounds retrained in turn
    approach: str | None = None
    technique: str | None = None


# `grid` is the paper's comparison, where regression fits (SVR above all)
# dominate; its league has 10 clubs, not 20, because one 20-club grid takes
# about 100 s, more than a run may last, and its six RBF fits stop at the
# iteration cap either way. `matchday` is the weekly retrain and predict,
# where CART split search, ingest and model store writes dominate.
# `archive` is the same loop on a three-season history with a cheap model,
# so ingest and feature building do almost all the work; BENCHMARK.json
# leaves it out to keep the driver's runs within their time budget.
WORKLOADS = {
    "grid": Workload("grid", teams=10, seasons=1, extra_rounds=3, rounds=3),
    "matchday": Workload("matchday", teams=20, seasons=1, extra_rounds=3, rounds=3,
                         approach="lineup_stats", technique="rfr"),
    "archive": Workload("archive", teams=20, seasons=3, extra_rounds=0, rounds=2,
                        approach="team_stats", technique="lr"),
}
SETUP_REPEATS = 5  # at least, and for at least SETUP_MIN_S
SETUP_MIN_S = 3.0
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0005
PROBE_MIN_SAMPLES = 5
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SELF_TIME_TOLERANCE = 0.01  # share of an op's wall time
GRID_REPORTS = ("fitness.csv", "standings.csv", "tau.csv", "zones.csv",
                "betting.csv", "importance.csv", "predictions.csv",
                "overview.csv", "summary.txt", "evaluate_manifest.json")
GRID_MODELS = 21

TIMES = ["ingest.load_s", "features.init_s", "features.build_s",
         *(f"regress.{kind}_s.{t}" for kind in ("fit", "predict")
           for t in ("lr", "knn", "dtr", "rfr", "svr", "svr-rbf")),
         "kernels.best_split_s", "kernels.knn_s", "store.save_s", "store.load_s",
         "predict.pair_s", "heuristics.predict_s", "evaluate.metrics_s", "cli.self_s",
         "traced.grid_s", "traced.train_s", "traced.predict_s"]
COUNTS = ["ingest.calls", "ingest.records", "ingest.bytes",
          "features.build_calls", "features.distinct_builds", "features.rows",
          "features.skipped_rows", "features.fallback_rows",
          "svr.iterations.linear", "svr.iterations.rbf",
          "svr.capped.linear", "svr.capped.rbf",
          "kernels.best_split_calls", "kernels.best_split_cells", "kernels.knn_terms",
          "store.bytes_written", "store.bytes_read", "predict.rows", "cli.bytes_written"]
SUMS = ["svr.objective.linear", "svr.objective.rbf"]
PER_LAYER = {**dict.fromkeys(TIMES, "s"), **dict.fromkeys(COUNTS, "count"),
             **dict.fromkeys(SUMS, "sum")}


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------------ checks

def sha256_of(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_predictions(rows: list[dict], expect_actual: bool) -> None:
    for row in rows:
        for col in ("raw_home", "raw_away"):
            if not math.isfinite(float(row[col])):
                raise CheckFailed(f"{row['model']} {row['fixture_id']}: {col} not finite")
        for col in ("pred_home", "pred_away"):
            if not row[col].isdigit():
                raise CheckFailed(f"{row['model']} {row['fixture_id']}: {col}={row[col]!r}")
        if bool(row["actual_home"]) != expect_actual:
            raise CheckFailed(f"{row['fixture_id']}: actual goals present={not expect_actual}")


def check_grid(out_dir: Path, test_ids: tuple[str, ...]) -> str:
    missing = [name for name in GRID_REPORTS if not (out_dir / name).is_file()]
    if missing:
        raise CheckFailed(f"bundle lacks {missing}")
    models = [row["model"] for row in read_rows(out_dir / "overview.csv")]
    if len(set(models)) != GRID_MODELS:
        raise CheckFailed(f"overview ranks {len(set(models))} models, not {GRID_MODELS}")
    rows = read_rows(out_dir / "predictions.csv")
    if (len(rows) != GRID_MODELS * len(test_ids)
            or {row["fixture_id"] for row in rows} != set(test_ids)):
        raise CheckFailed(f"{len(rows)} predictions for {GRID_MODELS} x {len(test_ids)}")
    check_predictions(rows, expect_actual=True)
    return sha256_of(out_dir / "overview.csv", out_dir / "predictions.csv")


def check_train(out_dir: Path) -> None:
    for name in ("model_home.json", "model_away.json", "train_manifest.json"):
        if not (out_dir / name).is_file():
            raise CheckFailed(f"train wrote no {name}")


def check_predict(out: Path, fixture_ids: tuple[str, ...]) -> str:
    rows = read_rows(out)
    if [row["fixture_id"] for row in rows] != list(fixture_ids):
        raise CheckFailed(f"{out.name}: {len(rows)} rows for {len(fixture_ids)} fixtures")
    check_predictions(rows, expect_actual=False)
    return sha256_of(out)


def output_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def source_hash() -> str:
    """Identifies the code whose outputs are digested: the program and the
    league generator."""
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*")), HERE / "league.py"]:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Digests:
    """Output digests for one code version and seed: every repeat of an
    item, in this run or an earlier one, must reproduce the first digest."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.seen: dict[str, str] = {}

    def check(self, item: str, digest: str) -> None:
        key = f"{self.prefix}/{item}"
        expected = self.known.setdefault(key, digest)
        self.seen[item] = digest
        if digest != expected:
            raise CheckFailed(f"{item}: digest {digest[:12]} differs from {expected[:12]}")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=1) + "\n")
        tmp.replace(self.path)


# ---------------------------------------------------------------- the loop

@dataclass
class Op:
    kind: str  # grid, train or predict
    argv: list[str]
    check: Callable[[], str | None]  # returns the output's digest, if any
    item: str | None  # digest key
    output: Path


def steps_for(w: Workload, lg: league.League, out: Path) -> list[list[Op]]:
    data = str(lg.data_dir.relative_to(ROOT))
    if w.name == "grid":
        first = lg.rounds[0]
        test_ids = tuple(f for r in lg.rounds for f in r.fixture_ids)
        bundle = out / "grid"
        argv = ["evaluate", "--all", "--data-dir", data, "--test-size",
                str(first.tail_size), "--out-dir", str(bundle.relative_to(ROOT))]
        return [[Op("grid", argv, lambda: check_grid(bundle, test_ids), "grid", bundle)]]
    steps = []
    for r in lg.rounds:
        art = out / f"artifacts_{r.index:03d}"
        pred = out / f"predictions_{r.index:03d}.csv"
        train = ["train", "--data-dir", data, "--test-size", str(r.tail_size),
                 "--approach", w.approach, "--technique", w.technique,
                 "--out-dir", str(art.relative_to(ROOT))]
        predict = ["predict", "--artifacts", str(art.relative_to(ROOT)),
                   "--fixtures", str(r.fixtures_csv.relative_to(ROOT)),
                   "--out", str(pred.relative_to(ROOT))]
        steps.append([
            Op("train", train, lambda art=art: check_train(art), None, art),
            Op("predict", predict, lambda pred=pred, r=r: check_predict(pred, r.fixture_ids),
               f"round_{r.index:03d}", pred),
        ])
    return steps


@dataclass
class OpResult:
    kind: str
    start: float
    wall: float
    ok: bool
    capped: int
    out_bytes: int
    note: str = ""


def run_op(main, op: Op, digests: Digests, tracer=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    note = ""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        root = tracer.begin_op() if tracer else None
        try:
            rc = main(op.argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code
        except Exception:  # the op failed; record it and keep measuring
            rc, note = "exception", traceback.format_exc()
        finally:
            if tracer:
                tracer.close(root)
        wall = time.perf_counter() - start
    capped = sum(1 for w in caught if w.category.__name__ == "NotConvergedWarning")
    ok = rc == 0
    if ok:
        try:
            digest = op.check()
            if op.item:
                digests.check(op.item, digest)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            ok, note = False, f"check failed: {exc}"
    else:
        note = note or f"exit {rc}: {err.getvalue().strip()[-2000:]}"
    if not ok:
        print(f"FAILED {op.kind} {' '.join(op.argv)}\n{note}", file=sys.stderr)
    return OpResult(op.kind, start, wall, ok, capped,
                    output_bytes(op.output) if ok else 0, note)


# ------------------------------------------------------------- environment

def environment(args, lg: league.League, w: Workload) -> dict:
    import numpy as np
    import scoreline.regress as regress

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
    blas = {}
    with contextlib.suppress(Exception):  # the config layout varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha, "source_hash": source_hash(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "numba_enabled": getattr(regress, "NUMBA_ENABLED", None),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "seed": args.seed, "workload": w.name, "seconds": args.seconds,
        "league": {"teams": lg.teams, "seasons": lg.seasons,
                   "extra_rounds": lg.extra_rounds, "fixtures": lg.fixtures,
                   "records": lg.records, "rounds": [r.index for r in lg.rounds]},
    }


# ------------------------------------------------------------------ report

def timing(ref: list[float], raw: list[float]) -> dict:
    """Median, extremes and count in reference seconds, plus the raw median."""
    return {"median": statistics.median(ref), "min": min(ref), "max": max(ref),
            "n": len(ref), "raw_median": statistics.median(raw)}


def layer_table(tracer, results: list[OpResult], scales: list[float],
                steps: list[list[int]]):
    """Per-step layer metrics (median over steps) and per-kind self times,
    all in reference seconds."""
    per_op = []
    for i, res in enumerate(results):
        times, counts = tracer.op_layers(i)
        if abs(sum(times.values()) - res.wall) > SELF_TIME_TOLERANCE * res.wall:
            res.ok = False
            res.note = f"self times sum to {sum(times.values()):.4f} s of {res.wall:.4f} s"
            print(f"FAILED {res.kind}: {res.note}", file=sys.stderr)
        times = {n: v * scales[i] for n, v in times.items()}
        times[f"traced.{res.kind}_s"] = res.wall * scales[i]
        per_op.append((times, {**counts, "cli.bytes_written": res.out_bytes}))
    step_values = []
    for step in steps:
        values = dict.fromkeys(PER_LAYER, 0.0)
        for i in step:
            for name, value in {**per_op[i][0], **per_op[i][1]}.items():
                if name in values:
                    values[name] += value
        step_values.append(values)
    metrics = {}
    for name in PER_LAYER:
        value = statistics.median(v[name] for v in step_values)
        metrics[name] = int(value) if PER_LAYER[name] == "count" and value.is_integer() else value
    kinds = {}
    for kind in sorted({r.kind for r in results}):
        ops = [i for i, r in enumerate(results) if r.kind == kind]
        names = {n for i in ops for n in per_op[i][0] if not n.startswith("traced.")}
        kinds[kind] = {
            "wall_s": statistics.median(results[i].wall * scales[i] for i in ops),
            "self_s": {n: statistics.median(per_op[i][0].get(n, 0.0) for i in ops)
                       for n in sorted(names)}}
    return metrics, kinds


def orderings(workload: str, kinds: dict) -> list[str]:
    """The layer orderings that motivate each workload, as measured."""
    lines = []
    for kind, data in kinds.items():
        self_s, wall = dict(data["self_s"]), data["wall_s"]
        svr = self_s.pop("regress.fit_s.svr", 0.0) + self_s.pop("regress.fit_s.svr-rbf", 0.0)
        ranked = sorted({**self_s, "SVR fits": svr}.items(), key=lambda kv: -kv[1])
        top = ", ".join(f"{n} {v:.3f} s ({v / wall:.0%})" for n, v in ranked[:4])
        lines.append(f"{workload} {kind}: wall {wall:.3f} s; largest layers: {top}")
        if workload == "archive":
            share = sum(v for n, v in self_s.items()
                        if n.startswith(("features.", "ingest."))) / wall
            lines.append(f"{workload} {kind}: features + ingest = {share:.0%} of wall")
    return lines


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------------------- main

class SpeedProbe:
    """Samples how fast this host runs Python while the benchmark runs.

    On a shared host the speed of the same code drifts by a quarter or more
    within seconds, and the drift does not average out within one run.
    Every PROBE_EVERY_S of wall time a SIGALRM handler times a fixed
    pure-Python loop (about 0.5 ms, so about 0.5% overhead) between the
    program's bytecodes; PROBE_REF_S over that time is the host's relative
    speed at that moment. A time measured over an interval is multiplied by
    the mean relative speed in the interval, the time-weighted average
    because the samples are evenly spaced in time. The result is in
    reference seconds: the time the work takes at the speed where the loop
    takes PROBE_REF_S. The loop is the benchmark's, so any change to the
    program's own speed shows in full.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, relative speed)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(4000):
            table[i & 63] = table.get(i & 63, 0) + i
        end = time.perf_counter()
        self.samples.append((end, PROBE_REF_S / (end - start)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Mean relative speed over [start, end]; over the whole run if the
        interval holds fewer than PROBE_MIN_SAMPLES probes."""
        inside = [v for t, v in self.samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            inside = [v for _, v in self.samples]
        return statistics.fmean(inside)


def run(args) -> int:
    w = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "scoreline" / "cli.py").is_file():
        print(f"no scoreline sources under {src}", file=sys.stderr)
        return 1
    for var in BLAS_THREADS:
        os.environ.setdefault(var, "1")  # one thread: steadier on a shared host
    os.chdir(ROOT)
    sys.path.insert(0, str(src))

    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    lg = league.generate(run_dir / "league", w.teams, w.seasons, w.extra_rounds,
                         w.rounds, args.seed)
    probe = SpeedProbe()
    probe.start()

    # set-up: import, then load and index the league, as every command does
    setup_start = start = time.perf_counter()
    from scoreline import FeatureBuilder, load_dataset
    from scoreline.cli import main
    import_s = time.perf_counter() - start
    loads = []
    while len(loads) < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_MIN_S:
        start = time.perf_counter()
        FeatureBuilder(load_dataset(lg.data_dir, lg.rounds[0].tail_size))
        loads.append(time.perf_counter() - start)
    setup_scale = probe.scale(setup_start, time.perf_counter())

    steps = steps_for(w, lg, run_dir / "out")
    digests = Digests(WORK / "digests.json", f"{source_hash()}/{w.name}/{args.seed}")
    results: list[OpResult] = []
    step_ops: list[list[int]] = []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    while True:
        first = len(results)
        results += [run_op(main, op, digests, tracer)
                    for op in steps[len(step_ops) % len(steps)]]
        step_ops.append(list(range(first, len(results))))
        if tracer and len(step_ops) == len(steps):
            break  # the traced run makes one fixed pass
        if not tracer and time.perf_counter() - start >= args.seconds:
            break
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests.save()
    if tracer:
        tracer.unhook()

    scales = [probe.scale(r.start, r.start + r.wall) for r in results]
    setup_raw = import_s + statistics.median(loads)
    step_raw = [sum(results[i].wall for i in step) for step in step_ops]
    step_ref = [sum(results[i].wall * scales[i] for i in step) for step in step_ops]
    commands = {}
    for kind in ("grid", "train", "predict"):
        ops = [i for i, r in enumerate(results) if r.kind == kind]
        if ops:
            commands[f"{kind}_s"] = timing([results[i].wall * scales[i] for i in ops],
                                           [results[i].wall for i in ops])
    env = environment(args, lg, w)
    detail = {"env": env,
              "probe": {"setup_scale": setup_scale,
                        "mean_speed": statistics.fmean(v for _, v in probe.samples),
                        "samples": probe.samples},
              "setup_raw": {"import_s": import_s, "load_s": loads},
              "commands": commands, "steps": timing(step_ref, step_raw),
              "ops": [[r.kind, r.start, r.wall, s] for r, s in zip(results, scales)],
              "svr_capped_warnings": sum(r.capped for r in results),
              "digests": digests.seen}
    if tracer:
        values, kinds = layer_table(tracer, results, scales, step_ops)
        metrics = {n: metric(v, PER_LAYER[n]) for n, v in values.items()}
        detail.update(layers=kinds, unmeasured=tracer.unmeasured,
                      orderings=orderings(w.name, kinds))
        tracer.dump(WORK / "results" / f"{run_dir.name}-spans.json")
    else:
        metrics = {"setup_s": metric(setup_raw * setup_scale, "s"),
                   "step_s": metric(statistics.median(step_ref), "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
    failed = sum(1 for r in results if not r.ok)
    detail["error_rate"] = failed / len(results)
    summary = {"correct": failed == 0, "attempted": len(results), "failed": failed,
               "metrics": metrics}
    (WORK / "results" / f"{run_dir.name}.json").write_text(
        json.dumps({**summary, "detail": detail}, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"host speed: {detail['probe']['mean_speed']:.4f} of reference, "
          f"from {len(probe.samples)} probe samples")
    for k, v in commands.items():
        print(f"{k} median {v['median']:.4f} s (n={v['n']}, min {v['min']:.4f}, "
              f"max {v['max']:.4f}; raw median {v['raw_median']:.4f} s)")
    print(f"error_rate {detail['error_rate']:.4f} ratio ({failed} of {len(results)} ops)")
    for line in detail.get("orderings", ()):
        print(line)
    if tracer and tracer.unmeasured:
        print(f"unmeasured (hook target missing): {', '.join(tracer.unmeasured)}")
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, in child processes, as one table."""
    rows = []
    for name in WORKLOADS:
        res = {}
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            path = WORK / "results" / f"{name}-seed{args.seed}-trace{trace_flag}.json"
            res[trace_flag] = json.loads(path.read_text())
        plain, traced = res[0], res[1]
        m = plain["metrics"]
        line = [f"{name:9s}", f"setup_s {m['setup_s']['value']:.3f} s",
                f"step_s {m['step_s']['value']:.3f} s"]
        for cmd_name, t in plain["detail"]["commands"].items():
            over = traced["detail"]["commands"][cmd_name]["median"] - t["median"]
            line.append(f"{cmd_name} {t['median']:.3f} s (n={t['n']}, tracing {over:+.3f} s)")
        line += [f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB",
                 f"error_rate {plain['detail']['error_rate']:.3f} ratio",
                 f"correct {plain['correct'] and traced['correct']}"]
        rows.append("  ".join(line))
        rows += [f"  {o}" for o in traced["detail"]["orderings"]]
    print("\n".join(rows))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run(arguments))
