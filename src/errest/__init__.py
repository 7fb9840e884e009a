"""Estimate how many data errors remain after fallible cleaning passes.

Treats error discoveries and consensus switches as species-estimation
problems over a crowd-style vote log, with a seeded crowd simulator and
a CLI for estimator comparisons.
"""

from .core import (
    FStatistics,
    MalformedInputError,
    TallyState,
    VoteLog,
    error_fstats,
    read_votes_csv,
    tally,
    write_votes_csv,
)
from .estimators import (
    EstimatorOutput,
    InsufficientDataError,
    chao92,
    coverage,
    cv2,
    extrapolate,
    majority,
    nominal,
    vchao92,
)
from .switch import (
    Direction,
    SwitchEvent,
    SwitchReplay,
    SwitchStats,
    Trend,
    d_switch,
    remaining_switches,
    replay_switches,
    switch_count,
    switch_fstats,
    switch_total_errors,
)
from .priority import (
    EpsilonPolicy,
    HeuristicPartition,
    draw_task,
    partition,
    total_with_perfect_heuristic,
)
from .pairs import CandidatePair, RecordTable, all_pairs, candidates, similarity
from .sim import (
    GroundTruth,
    SimScenario,
    permute_and_average,
    scm,
    simulate,
    srmse,
)
from .trajectory import TrajectoryRow, evaluate_trajectory

__version__ = "0.1.0"
