"""Random code-trees with necks: samplers, dimension solvers, and gauged
Hausdorff/packing measure experiments."""

__version__ = "0.1.0"

from .rifs import (  # noqa: F401
    IFS,
    ConditionsReport,
    RIFSFamily,
    SimilarityMap,
    beta_hat,
    dimension,
    equicontractive_family,
    log_moment_stats,
    moment,
    validate,
)
from .gauges import GaugeFunction, h1, h1_star, loglog_power, power  # noqa: F401
from .trees import (  # noqa: F401
    BlockTemplate,
    Coding,
    ModelSpec,
    NeckList,
    Realization,
    coding_level,
    neck_list,
    neck_shift,
    sample,
    stopping_set,
)
from .measure import (  # noqa: F401
    DriftReport,
    LevelSumSeries,
    NaturalMeasure,
    SectionValue,
    drift_experiment,
    level_sums,
    lil_calibration,
    lil_envelope,
    mass_distribution_check,
    natural_measure,
    packing_level_limsup,
    section_infimum,
)
from .geometry import (  # noqa: F401
    Cylinder,
    box_dimension,
    compose,
    percolation_preset,
    sample_points,
)
