"""scenesynth: deterministic driving-scene synthesis and masking toolkit."""

from .geometry import Point2, Polyline, curvature_profile, resample_polyline
from .maps import (
    LaneSegment,
    ReferencePath,
    SceneMap,
    build_reference_path,
    load_map,
    save_map,
)
from .augment import (
    TurnKind,
    TurnTransformParams,
    WarpFrame,
    apply_transform,
    f_double_turn,
    f_single_turn,
    q_alpha,
    sample_transform_params,
)
from .planner import (
    CoarsePlan,
    PlannerNode,
    PlannerParams,
    astar_plan,
    expand,
    plan_one,
    transition_cost,
)
from .refine import (
    RefinedTrajectory,
    RefinementParams,
    accel_of,
    jerk_of,
    refine_one,
    refine_trajectory,
)
from .synthesis import (
    GenerationConfig,
    Scene,
    generate_dataset,
    generate_scene,
    make_scene,
    read_scene,
    validate_scene,
    write_scene,
)
from .pretrain import (
    PretrainSample,
    ReconTask,
    assign_tasks,
    map_recon_loss,
    mask_map,
    mask_trajectory,
    traj_recon_loss,
    vectorize_scene,
)
from .analysis import (
    Histogram,
    compare_distributions,
    forecast_metrics,
    heading_normalize,
    speed_distribution,
)

__version__ = "0.1.0"
