"""Synthetic SPEC95-analog workloads (the paper's benchmark suite).

The paper's suite orderings live here rather than in
:mod:`repro.workloads.suite`, so code that only names workloads (the
experiment profiles) does not import the eight workload builders.
"""

#: Figure 9/10 ordering (li, ijpeg, gcc, perl, vortex, go).
SAVE_RESTORE_ORDER = [
    "li_like", "ijpeg_like", "gcc_like", "perl_like", "vortex_like", "go_like",
]

#: Figure 3 ordering (full suite).  Deliberately excludes workloads that
#: are registered but not part of the paper's benchmark set (m88ksim),
#: so every figure reproduces the paper's exact suite.
ALL_ORDER = ["compress_like"] + SAVE_RESTORE_ORDER
