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
    sample_transform_params,
)
from .planner import (
    CoarsePlan,
    PlannerParams,
    astar_plan,
)
from .refine import RefinementParams, refine_trajectory
from .config import GenerationConfig
from .synthesis import (
    Scene,
    generate_dataset,
    generate_scene,
    read_scene,
    validate_scene,
)
from .pretrain import (
    PretrainSample,
    ReconTask,
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
    speed_distribution,
)

__version__ = "0.1.0"
