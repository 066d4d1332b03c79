"""Library defects the benchmark's inputs run into, kept visible.

The dense sweep leaves coefficient 6 out of ``workloads.DENSE_CATALOGUE``
because of the defect below.  When it is fixed this test passes, strict
xfail turns that into a failure, and the coefficient can go back in.
"""

import numpy as np
import pytest

import workloads
from fredlab import floer
from fredlab.errors import SamplingTooCoarse


@pytest.mark.xfail(
    strict=True,
    raises=SamplingTooCoarse,
    reason="at s ~ 1.53 one dense spectrum window holds a spurious eigenvalue "
    "near -2.86, so spectral_flow sees a jump and raises",
)
def test_spectral_flow_of_a_strong_smooth_coefficient_at_grid_96():
    a = workloads.smooth_coefficient(6, workloads.DENSE_GRID)
    sweep = np.linspace(0.0, 2.0 * np.pi, workloads.DENSE_SWEEP)[120:130]
    family = [
        floer.assemble_floer_operator(floer.FloerConfig(a, float(s), workloads.DENSE_GRID))
        for s in sweep
    ]
    floer.spectral_flow(family, 5)
