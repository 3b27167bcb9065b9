"""Experiment harnesses, one per table/figure of the paper's evaluation.

:data:`DIRECTORY` names every figure/ablation the CLI's ``run-all``
covers: id -> (module name, description), in run-all order.
``EXPERIMENTS`` is the same directory with the modules imported: id ->
(module, description).  It is built the first time it is read (a PEP
562 module ``__getattr__``), so the CLI can list, validate and replay
figures without importing any experiment.  Both live here (not in
``__main__``) so the service layer can resolve figure-job requests
without importing the CLI.
"""

from importlib import import_module

#: Experiment id -> (module name under this package, human description),
#: in run-all order.  Every module exposes ``run(profile, context)`` and
#: ``jobs(profile)``.
DIRECTORY = {
    "fig3": ("fig3_characterization", "benchmark characterization"),
    "fig5": ("fig5_regfile_ipc", "IPC vs. register file size"),
    "fig6": ("fig6_performance", "performance vs. register file size"),
    "fig9": ("fig9_eliminated", "saves/restores eliminated"),
    "fig10": ("fig10_speedup", "IPC speedups"),
    "fig11": ("fig11_sensitivity", "cache bandwidth sensitivity"),
    "fig12": ("fig12_context_switch", "context-switch elimination"),
    "fig13": ("fig13_edvi_overhead", "E-DVI overhead"),
    "ablation": ("ablation_lvmstack_depth", "LVM-Stack depth ablation"),
    "predictor": ("ablation_predictor", "branch predictor ablation"),
}

__all__ = ["DIRECTORY", "EXPERIMENTS"]


def __getattr__(name: str):
    if name != "EXPERIMENTS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    experiments = {
        target: (import_module(f"{__name__}.{module}"), description)
        for target, (module, description) in DIRECTORY.items()
    }
    globals()["EXPERIMENTS"] = experiments
    return experiments
