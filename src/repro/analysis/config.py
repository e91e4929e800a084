"""Lint configuration: which modules are exempt from which invariant.

The defaults encode *this* repository's architecture decisions:

* the wall-clock allowlist is the budget/telemetry layer — the run
  controller owns the one run-wide deadline clock, the event bus
  stamps trace timestamps, and the fault-tolerant dispatcher enforces
  per-chunk timeouts and records latency telemetry;
* ``repro/grid/parallel.py`` is the single module allowed to talk to
  ``multiprocessing`` / ``concurrent.futures`` directly;
* only ``repro/_atomic.py`` may open files for writing;
* ``repro/core/*``, ``repro/cli.py`` and ``repro/model/*`` must build
  engines through ``create_engine`` rather than naming concrete
  searcher classes.

Everything here is data, not code, so a downstream project embedding
the framework can swap in its own :class:`LintConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LintConfig"]


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs for the rule set (defaults = this repo's layout)."""

    #: RPL001 — modules allowed to touch module-level / unseeded RNG.
    rng_allowed_modules: tuple[str, ...] = ()

    #: RPL002 — the budget/telemetry modules allowed to read wall clocks.
    clock_allowed_modules: tuple[str, ...] = (
        "repro/run/controller.py",
        "repro/engine/events.py",
        "repro/grid/health.py",
        "repro/grid/parallel.py",
        # The eval harness *measures* wall-clock: Table 1's time column
        # is its output, so the clock is the instrument, not a leak.
        "repro/eval/harness.py",
        "repro/eval/sweeps.py",
    )

    #: RPL003 — modules allowed to open files for writing directly.
    write_allowed_modules: tuple[str, ...] = ("repro/_atomic.py",)

    #: RPL004 — modules that must build engines via ``create_engine``...
    registry_only_modules: tuple[str, ...] = (
        "repro/core/*",
        "repro/cli.py",
        "repro/model/*",
    )
    #: ...and the concrete engine classes they must not instantiate.
    engine_class_names: frozenset[str] = frozenset(
        {
            "EvolutionarySearch",
            "BruteForceSearch",
            "RandomSearch",
            "HillClimbingSearch",
            "SimulatedAnnealingSearch",
        }
    )

    #: RPL006 — modules allowed to import multiprocessing machinery.
    parallel_allowed_modules: tuple[str, ...] = ("repro/grid/parallel.py",)

    #: RPL007 — the numeric modules where float ``==`` is checked.
    float_eq_modules: tuple[str, ...] = (
        "repro/sparsity/*",
        "repro/eval/*",
        "repro/grid/discretizer.py",
        "repro/grid/cells.py",
        "repro/model/*",
    )

    #: RPL009 — modules allowed to catch broadly (``except Exception``
    #: / bare ``except``): the resilience layer owns deliberate
    #: catch-all recovery, and the fault-tolerant dispatcher must
    #: survive arbitrary worker failures.  Everywhere else a broad
    #: catch hides faults the degradation ladder should see.
    broad_except_allowed_modules: tuple[str, ...] = (
        "repro/resilience/*",
        "repro/grid/parallel.py",
    )

    # -- project rules (RPL010-RPL014) ---------------------------------

    #: RPL011 — the public API surface whose reachable raises are held
    #: to the ReproError contract...
    entry_point_modules: tuple[str, ...] = (
        "repro/core/*",
        "repro/model/*",
        "repro/cli.py",
    )
    #: ...and the builtin exception names that must not escape it bare.
    escape_exception_names: frozenset[str] = frozenset(
        {"OSError", "IOError", "ValueError", "RuntimeError"}
    )

    #: RPL012 — modules whose resource creations are lifecycle-checked.
    resource_checked_modules: tuple[str, ...] = ("repro/*",)

    #: RPL013 — modules whose RNG constructions are taint-checked
    #: (minus ``rng_allowed_modules``, which RPL013 shares with RPL001).
    rng_taint_modules: tuple[str, ...] = ("repro/*",)
