"""scoreline: football score prediction from lineups, player stats and odds.

The pipeline: ingest fixtures/player-stats/odds CSVs, build walk-forward
feature representations (players, lineup_stats, team_stats), train
independent home- and away-goals regressors (LR, KNN, DTR, RFR, SVR) or
use one of three heuristics (home-win, tradition, recency), combine the
two goal predictions into integer scorelines, and evaluate with fitness
metrics, simulated standings, Kendall tau, top-4/relegation accuracy, a
flat-stake betting backtest and chi-squared feature importance.
"""

import os
import sys

# BLAS splits its sums by thread count, so pin it to one thread before NumPy
# loads: outputs then do not depend on the machine. A caller that imported
# NumPy first keeps its own BLAS threads.
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))

from .features import APPROACHES, FeatureBuilder
from .heuristics import HEURISTICS
from .ingest import Dataset, load_dataset
from .predict import round_goals
from .regress import fit_model
from .schema import FeatureSchema, default_schema, load_schema

__version__ = "0.1.0"

__all__ = [
    "APPROACHES",
    "Dataset",
    "FeatureBuilder",
    "FeatureSchema",
    "HEURISTICS",
    "default_schema",
    "fit_model",
    "load_dataset",
    "load_schema",
    "round_goals",
    "__version__",
]
