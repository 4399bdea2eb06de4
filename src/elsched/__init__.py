"""Schedulability analysis and simulation for self-suspending sporadic
real-time tasks under EDF-like (priority-point) uniprocessor scheduling.

Core pieces:

- :mod:`elsched.model` -- integer-tick task model, priority-point
  policies, task-set files.
- :mod:`elsched.analysis` -- fixed- and variable-window response-time
  tests plus a suspension-oblivious baseline.
- :mod:`elsched.simulator` -- exact preemptive event simulator, trace
  export, and state-time accounting.
- :mod:`elsched.generator` -- reproducible random task-set synthesis.
- :mod:`elsched.experiments` -- acceptance-ratio sweeps and randomized
  cross-validation campaigns.
"""

from .analysis import (
    DEFAULT_CONFIG,
    AnalysisResult,
    TestConfig,
    ceil_div,
    test_variable,
    test_tfp,
    test_fixed,
    result_csv_header,
    result_csv_row,
    baseline_susp_obl,
)
from .generator import BatchEntry, GenSpec, dump_batch, load_batch, synthesize, uunifast
from .model import (
    PriorityPolicy,
    Task,
    TaskSet,
    TasksetFormatError,
    format_taskset_text,
    load_taskset,
    parse_taskset_text,
    derive_priority_points,
    round_half_up,
    save_taskset,
)
from .simulator import (
    Interval,
    JobBehavior,
    JobRecord,
    JobSequence,
    ScheduleTrace,
    StateTimes,
    export_trace,
    generate_job_sequence,
    check_feasibility,
    measure_state_times,
    response_times,
    simulate_el,
    simulate_tfp,
    validate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BatchEntry",
    "DEFAULT_CONFIG",
    "GenSpec",
    "Interval",
    "JobBehavior",
    "JobRecord",
    "JobSequence",
    "PriorityPolicy",
    "ScheduleTrace",
    "StateTimes",
    "Task",
    "TaskSet",
    "TasksetFormatError",
    "TestConfig",
    "ceil_div",
    "dump_batch",
    "export_trace",
    "test_variable",
    "test_tfp",
    "test_fixed",
    "format_taskset_text",
    "generate_job_sequence",
    "check_feasibility",
    "load_batch",
    "load_taskset",
    "measure_state_times",
    "parse_taskset_text",
    "derive_priority_points",
    "response_times",
    "result_csv_header",
    "result_csv_row",
    "round_half_up",
    "save_taskset",
    "simulate_el",
    "simulate_tfp",
    "baseline_susp_obl",
    "synthesize",
    "uunifast",
    "validate_sequence",
    "__version__",
]
