"""``repro.experiments`` — runners regenerating every table and figure.

===========================  ====================================
Paper artefact               Runner
===========================  ====================================
Table II                     :func:`run_table2`
Table III                    :func:`run_table3`
Table IV                     :func:`run_table4`
Figure 2                     :func:`run_fig2`
Figure 3                     :func:`run_fig3`
Figure 4                     :func:`run_fig4`
Figure 5                     :func:`run_fig5`
Figure 6                     :func:`run_fig6`
k ablation (Section IV-B4)   :func:`run_ablation_k`
swap ablation (Section IV-C) :func:`run_ablation_swap`
Section VII extensions       :func:`run_ablation_extensions`
non-i.i.d. ablation          :func:`run_ablation_noniid`
traffic cross-check          :func:`run_traffic_check`
serving benchmark            :func:`run_serve_bench`
staleness sweep              :func:`run_staleness_sweep`
wall-clock timing estimate   :func:`run_timing_estimate`
===========================  ====================================
"""

from .ablations import run_ablation_extensions, run_ablation_k, run_ablation_swap
from .celeba_experiment import run_fig6
from .noniid import run_ablation_noniid
from .reporting import ascii_chart, save_csv, save_json, series_from_rows, to_markdown
from .common import (
    PAPER,
    SCALES,
    SMALL,
    SMOKE,
    ExperimentResult,
    ExperimentScale,
    format_table,
    get_scale,
)
from .convergence import fig3_competitors, run_fig3
from .fault_tolerance import run_fig5
from .scalability import run_fig4
from .serve_bench import run_serve_bench
from .staleness import run_staleness_sweep
from .tables import (
    PAPER_PARAM_COUNTS,
    paper_architecture_params,
    run_fig2,
    run_table2,
    run_table3,
    run_table4,
)
from .timing import run_timing_estimate
from .traffic_check import run_traffic_check

__all__ = [
    "ExperimentResult",
    "ExperimentScale",
    "format_table",
    "get_scale",
    "SMOKE",
    "SMALL",
    "PAPER",
    "SCALES",
    "PAPER_PARAM_COUNTS",
    "paper_architecture_params",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_ablation_k",
    "run_ablation_swap",
    "run_ablation_extensions",
    "run_ablation_noniid",
    "run_traffic_check",
    "run_serve_bench",
    "run_staleness_sweep",
    "run_timing_estimate",
    "fig3_competitors",
    "save_json",
    "save_csv",
    "to_markdown",
    "ascii_chart",
    "series_from_rows",
]
