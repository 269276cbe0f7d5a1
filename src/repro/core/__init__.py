"""The SAVAT metric: pairwise measurement, campaigns, analysis."""

from repro.core.campaign import PAPER_REPETITIONS, run_campaign, selected_pairings_means
from repro.core.executor import (
    CampaignStats,
    ResultCache,
    campaign_cache_key,
    execute_campaign,
    spawn_cell_seeds,
)
from repro.core.faults import CellFault, FaultInjectedError, FaultPlan
from repro.core.clustering import (
    cluster_linkage,
    find_groups,
    group_representatives,
    savat_distance_matrix,
    similarity_graph,
)
from repro.core.frequency_selection import (
    FrequencyRecommendation,
    recommend_frequency,
    survey_band_noise,
)
from repro.core.matrix import SavatMatrix
from repro.core.microarch_events import (
    MicroarchSavatResult,
    measure_microarch_savat,
)
from repro.core.naive import (
    NaiveComparison,
    compare_methodologies,
    naive_measurement,
    noiseless_subtraction_energy,
)
from repro.core.savat import (
    MeasurementConfig,
    SavatResult,
    clear_cpi_cache,
    measure_savat,
    measure_savat_samples,
    prime_alternation_steady_state,
    simulate_alternation_period,
)
from repro.core.study import StudyResult, run_study
from repro.core.trace_cache import (
    TraceCache,
    produce_cell_trace,
    trace_cache_key,
)
from repro.core.sequences import (
    SequenceSavatResult,
    estimate_sequence_savat,
    measure_sequence_savat,
)
from repro.core.single_instruction import (
    INSTRUCTION_EVENT_GROUPS,
    most_leaky_instructions,
    single_instruction_savat,
)

__all__ = [
    "INSTRUCTION_EVENT_GROUPS",
    "CampaignStats",
    "CellFault",
    "FaultInjectedError",
    "FaultPlan",
    "FrequencyRecommendation",
    "MeasurementConfig",
    "ResultCache",
    "campaign_cache_key",
    "execute_campaign",
    "spawn_cell_seeds",
    "MicroarchSavatResult",
    "measure_microarch_savat",
    "NaiveComparison",
    "PAPER_REPETITIONS",
    "SavatMatrix",
    "SavatResult",
    "SequenceSavatResult",
    "StudyResult",
    "TraceCache",
    "clear_cpi_cache",
    "cluster_linkage",
    "compare_methodologies",
    "estimate_sequence_savat",
    "find_groups",
    "group_representatives",
    "measure_savat",
    "measure_savat_samples",
    "measure_sequence_savat",
    "most_leaky_instructions",
    "naive_measurement",
    "prime_alternation_steady_state",
    "produce_cell_trace",
    "recommend_frequency",
    "survey_band_noise",
    "run_campaign",
    "run_study",
    "trace_cache_key",
    "savat_distance_matrix",
    "selected_pairings_means",
    "similarity_graph",
    "simulate_alternation_period",
    "single_instruction_savat",
    "noiseless_subtraction_energy",
]
