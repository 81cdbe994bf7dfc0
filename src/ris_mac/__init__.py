"""RIS-assisted hybrid scheduled/contended MAC: analytics, optimization,
and frame simulation."""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    DcfParams,
    RadioParams,
    RisInventory,
    Scenario,
    UserPopulation,
    classify_users,
    default_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .channel import (  # noqa: F401
    ChannelRealization,
    align_phases,
    draw_channels,
    rate_bps,
)
from .dcf import (  # noqa: F401
    ContentionRound,
    ContentionSummary,
    channel_success_prob,
    contention_cascade,
    handshake_time,
    solve_tau,
)
from .optimizer import (  # noqa: F401
    AllocationState,
    FrameConfig,
    allocate_power,
    assign_ris_static,
    centralized_ris_config,
    complexity_report,
    distributed_ris_select,
    joint_optimize,
    optimal_frame_timing,
)
from .simulator import (  # noqa: F401
    FrameTrace,
    measure_fairness,
    measure_throughput,
    run_frame,
)
from .experiments import parse_sweep, run_experiment, run_figure  # noqa: F401
