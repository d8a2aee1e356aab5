"""Track refinement through learned motion patterns.

Detections from imperfect tracks are re-linked into trajectories that follow
globally mined motion patterns, repairing identity switches, fragmentation,
and wrong merges.  Works supervised (patterns mined from reference tracks)
or fully unsupervised (alternating mining and linking with split-half model
selection).
"""

from .core import (
    Assignment,
    Config,
    Detection,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    TrackTable,
    Trajectory,
    relative_widths,
    tracking_area,
    tracking_extent,
    tracks_from_trajectories,
    validate_trajectory_set,
)
from .fracopt import (
    Constraint,
    FeasibilityResult,
    RatioSearchResult,
    SolverModel,
    feasible,
    maximize_ratio,
)
from .graphgen import build_graph, input_trajectories
from .linker import LinkResult, build_link_model, link
from .metrics import (
    ClearReport,
    IdfReport,
    MatchConfig,
    clear_scores,
    idf1,
    summarize,
    track_coverage,
)
from .miner import CandidateSet, MineResult, build_mine_model, generate_candidates, mine
from .scoring import (
    ScorePair,
    edge_scores,
    objective,
    ratio_bracket,
    score_matrix,
    trajectory_score,
)
from .svgplot import render_svg, write_plot
from .synth import (
    Fragment,
    Merge,
    Scene,
    SceneMeta,
    Swap,
    corrupt,
    crossing_scene,
    fragmented_corridor_scene,
    generate_scene,
    two_flow_scene,
)
from .tracksio import (
    patterns_from_text,
    patterns_to_text,
    read_homography,
    read_patterns,
    read_track_table,
    read_tracks,
    track_table_from_csv,
    tracks_from_csv,
    tracks_to_csv,
    write_patterns,
    write_tracks,
)
from .unsupervised import (
    DegenerateSplit,
    HistoryEntry,
    UnsupervisedResult,
    default_schedule,
    run_unsupervised,
    split_half_score,
)

__version__ = "0.1.0"
