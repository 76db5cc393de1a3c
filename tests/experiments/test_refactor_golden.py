"""Stored trajectory digests: refactors must be decision-identical.

Each digest pins a run's complete tracer record stream or result summary
(see :mod:`tests.experiments._golden_fp`), so a kernel or overlay
refactor is machine-checked to keep the same seed on a byte-identical
trajectory.  The churn and fig4 digests predate the array-backed ring
index, sweep-wheel timer layer and sharded kernel; the overlay, scaling
and join-CDF digests predate the removal of the kernel's timer wheel.

Regenerate (only when an *intentional* trajectory change lands)::

    PYTHONPATH=src python -m tests.experiments._golden_fp
"""

from tests.experiments._golden_fp import (capture_churn, capture_fig4,
                                          capture_joincdf, capture_overlay,
                                          capture_scaling)

#: captured at 8e638bd (before the array-backed ring index landed)
CHURN_FP = "4a3dbc42990e618dd912f53ab3c5b23ffc91ba7176a80ea8f5aa093f841915ca"
FIG4_FP = "bffcc6c25d35690195b590010f591e32275a131b4045fd848e734483fea87d32"

#: captured at 58c7dde (on the hybrid timer-wheel kernel)
OVERLAY_FP = "da8aac6c4e85737624e939f7397c561d05dfaa4e3ade344b048c93fd8f22ea3b"
SCALING_FP = "193c999ef86cfa7f6a362086c25624208ae2d8b07ae097c5e0a9dbc049fb0338"
JOINCDF_FP = "16447dd9f784a1e4e09cb9d65480c0ae9ba1b7d80261a738950ee03cc5cf27a6"


def test_churn_trajectory_byte_identical_to_main():
    assert capture_churn(seed=0) == CHURN_FP


def test_fig4_trajectory_byte_identical_to_main():
    assert capture_fig4(seed=0) == FIG4_FP


def test_overlay_event_stream_byte_identical_to_main():
    assert capture_overlay(seed=5) == OVERLAY_FP


def test_scaling_summary_byte_identical_to_main():
    assert capture_scaling(seed=3) == SCALING_FP


def test_joincdf_summary_byte_identical_to_main():
    assert capture_joincdf(seed=1) == JOINCDF_FP
