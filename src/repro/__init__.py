"""repro — Outlier detection for high dimensional data (Aggarwal & Yu, SIGMOD 2001).

A complete, faithful reproduction of the paper's system:

* equi-depth grid discretization and the sparsity coefficient (Eq. 1),
* brute-force bottom-up cube enumeration (Figure 2),
* the evolutionary projection search with optimized crossover
  (Figures 3-6) and the De Jong convergence criterion,
* Equation 2's choice of the projection dimensionality ``k*``,
* the full-dimensional baselines the paper compares against
  (kth-NN distance [25], DB(k, λ) [22], LOF [10]),
* synthetic stand-ins for the paper's UCI evaluation datasets, and an
  evaluation harness regenerating every table and figure.

Quickstart::

    import numpy as np
    from repro import SubspaceOutlierDetector

    data = np.random.default_rng(0).normal(size=(500, 20))
    detector = SubspaceOutlierDetector(random_state=0)
    result = detector.detect(data)
    print(result.outlier_indices)
"""

from .core.detector import SubspaceOutlierDetector
from .core.explain import OutlierExplanation, explain_point, render_report
from .core.intensional import minimal_abnormal_subspaces
from .core.multik import MultiKResult, detect_across_dimensionalities
from .core.params import (
    CountingBackend,
    ParameterAdvisor,
    choose_projection_dimensionality,
    empty_cube_sparsity,
    expected_cube_count,
)
from .core.results import DetectionResult, ScoredProjection
from .core.subspace import Subspace
from .engine import (
    ENGINES,
    CompositeSink,
    Event,
    EventSink,
    InMemoryEventSink,
    JsonlTraceSink,
    NullSink,
    RunContext,
    SearchEngine,
    StatsAssemblySink,
    create_engine,
)
from .exceptions import (
    CheckpointError,
    DatasetError,
    DiscretizationError,
    NotFittedError,
    ReproError,
    ResourceError,
    SearchCancelled,
    SearchError,
    ValidationError,
)
from .grid.cells import CellAssignment, MISSING_CELL
from .grid.counter import CubeCounter, PackedCubeCounter
from .grid.discretizer import EquiDepthDiscretizer, EquiWidthDiscretizer
from .search.best_set import BestProjectionSet
from .search.brute_force import BruteForceSearch, search_space_size
from .search.local import (
    HillClimbingSearch,
    RandomSearch,
    SimulatedAnnealingSearch,
)
from .search.evolutionary import (
    EvolutionaryConfig,
    EvolutionarySearch,
    OptimizedCrossover,
    RankRouletteSelection,
    TwoPointCrossover,
)
from .run import (
    CancelToken,
    CheckpointStore,
    RunController,
    SearchCheckpointer,
)
from .search.outcome import GenerationRecord, SearchOutcome
from .persist import (
    load_model,
    result_from_dict,
    result_to_dict,
    save_model,
)
from .sparsity.coefficient import (
    cube_count_std,
    expected_count,
    sparsity_coefficient,
    sparsity_coefficients,
)
from .sparsity.statistics import (
    binomial_tail_probability,
    bonferroni_significance,
    expected_abnormal_cubes,
    normal_tail_probability,
    significance_of_coefficient,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # detector pipeline
    "SubspaceOutlierDetector",
    "DetectionResult",
    "ScoredProjection",
    "Subspace",
    "OutlierExplanation",
    "explain_point",
    "render_report",
    "minimal_abnormal_subspaces",
    "MultiKResult",
    "detect_across_dimensionalities",
    # persistence
    "save_model",
    "load_model",
    "result_to_dict",
    "result_from_dict",
    # grid
    "EquiDepthDiscretizer",
    "EquiWidthDiscretizer",
    "CellAssignment",
    "CubeCounter",
    "PackedCubeCounter",
    "MISSING_CELL",
    # sparsity
    "sparsity_coefficient",
    "sparsity_coefficients",
    "expected_count",
    "cube_count_std",
    "normal_tail_probability",
    "binomial_tail_probability",
    "significance_of_coefficient",
    "bonferroni_significance",
    "expected_abnormal_cubes",
    # parameters
    "choose_projection_dimensionality",
    "empty_cube_sparsity",
    "expected_cube_count",
    "CountingBackend",
    "ParameterAdvisor",
    # search
    "BestProjectionSet",
    "BruteForceSearch",
    "search_space_size",
    "RandomSearch",
    "HillClimbingSearch",
    "SimulatedAnnealingSearch",
    "EvolutionarySearch",
    "EvolutionaryConfig",
    "OptimizedCrossover",
    "TwoPointCrossover",
    "RankRouletteSelection",
    "SearchOutcome",
    "GenerationRecord",
    # engine layer
    "SearchEngine",
    "RunContext",
    "Event",
    "EventSink",
    "NullSink",
    "InMemoryEventSink",
    "JsonlTraceSink",
    "CompositeSink",
    "StatsAssemblySink",
    "ENGINES",
    "create_engine",
    # run lifecycle
    "RunController",
    "CancelToken",
    "CheckpointStore",
    "SearchCheckpointer",
    # errors
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "DiscretizationError",
    "SearchError",
    "SearchCancelled",
    "CheckpointError",
    "DatasetError",
    "ResourceError",
]
