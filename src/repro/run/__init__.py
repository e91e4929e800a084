"""Run lifecycle: cooperative cancellation, budgets, checkpoint/resume.

This package makes long-running searches survivable:

* :mod:`repro.run.cancel` — :class:`CancelToken` and the structured
  ``stopped_reason`` vocabulary;
* :mod:`repro.run.signals` — SIGINT/SIGTERM handlers that flip a token
  instead of killing the process mid-write;
* :mod:`repro.run.checkpoint` — atomic, manifest-validated checkpoints
  with corrupt-file rollback;
* :mod:`repro.run.controller` — :class:`RunBudget`, the one stop check
  every engine runs through, and :class:`RunController`, tying one
  budget + token + checkpoint directory across a whole multi-k sweep.
"""

from .cancel import (
    STOP_REASONS,
    CancelAfterBoundaries,
    CancelToken,
    check_stop_reason,
)
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    SearchCheckpointer,
    data_fingerprint,
    encode_rng_state,
    params_fingerprint,
)
from .controller import RunBudget, RunController
from .signals import exit_code_for_signal, installed_signal_handlers

__all__ = [
    "STOP_REASONS",
    "CancelAfterBoundaries",
    "CancelToken",
    "check_stop_reason",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "SearchCheckpointer",
    "data_fingerprint",
    "encode_rng_state",
    "params_fingerprint",
    "RunBudget",
    "RunController",
    "exit_code_for_signal",
    "installed_signal_handlers",
]
