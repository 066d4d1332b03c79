"""Property tests for the metric axioms of the gap and Riesz distances.

On small seeded selfadjoint triples both distances are symmetric and obey
the triangle inequality; the gap distance is at most 2, since each resolvent
``(i + A)^{-1} = (U - i)/2`` with ``U`` unitary, and the Riesz distance is
below 2, since the bounded transform has its spectrum in ``(-1, 1)``.  The
graph distance of a pair is half its gap distance.  Each distance, read from
the eigenbases of the pair, agrees with its spectral-calculus oracle, and the
operator norm under both agrees with the largest singular value.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fredlab import gallery, lagrangian, linalg, topology

#: Slack for rounding in the triangle inequality and the identities.
SLACK = 1e-12


def _triple(dim, seeds, scale, shared_basis):
    """Three seeded operators of one dimension with spectra in ``[-scale, scale]``;
    with ``shared_basis`` they commute, so ``W = Q0^T Q1`` is the identity."""
    if not shared_basis:
        return [
            gallery.random_selfadjoint(dim, seed=s, spectrum_range=(-scale, scale)) for s in seeds
        ]
    spectra = (np.random.default_rng(s).uniform(-scale, scale, dim) for s in seeds)
    return [gallery.random_with_spectrum(w, seed=seeds[0]) for w in spectra]


triples = st.builds(
    _triple,
    dim=st.integers(1, 8),
    seeds=st.lists(st.integers(0, 2**16), min_size=3, max_size=3),
    scale=st.sampled_from([0.1, 1.0, 10.0, 1000.0]),
    shared_basis=st.booleans(),
)

METRICS = (topology.gap_metric, topology.riesz_metric)


@settings(max_examples=60)
@given(ops=triples)
def test_symmetric(ops):
    a, b, _ = ops
    for metric in METRICS:
        assert abs(metric(a, b) - metric(b, a)) <= SLACK


@settings(max_examples=60)
@given(ops=triples)
def test_triangle_inequality(ops):
    for metric in METRICS:
        for a, b, c in itertools.permutations(ops):
            assert metric(a, c) <= metric(a, b) + metric(b, c) + SLACK


@settings(max_examples=60)
@given(ops=triples)
def test_bounds_and_zero_self_distance(ops):
    a, b, _ = ops
    assert topology.gap_metric(a, b) <= 2.0
    assert topology.riesz_metric(a, b) < 2.0
    for metric in METRICS:
        assert metric(a, a) <= SLACK


@settings(max_examples=60)
@given(ops=triples)
def test_graph_distance_is_half_the_gap(ops):
    a, b, _ = ops
    delta, gamma = lagrangian.kato_consistency(a, b)
    assert abs(delta - gamma / 2.0) <= SLACK


@settings(max_examples=60)
@given(ops=triples)
def test_metrics_match_their_oracles(ops):
    a, b, _ = ops
    psi = topology.riesz_map(a) - topology.riesz_map(b)
    assert abs(topology.riesz_metric(a, b) - linalg.operator_norm(psi)) <= SLACK
    branches = zip(topology.resolvents_at_i(a), topology.resolvents_at_i(b))
    resolvent_sum = sum(linalg.operator_norm(ra - rb) for ra, rb in branches)
    assert abs(topology.gap_metric(a, b) - resolvent_sum) <= SLACK


def _matrix(rows, cols, rank, seed, is_complex, exponent):
    """A seeded ``rows x cols`` matrix of rank at most ``rank``, scaled by ``10**exponent``."""
    rng = np.random.default_rng(seed)
    r = min(rank, rows, cols)
    left, right = rng.standard_normal((rows, r)), rng.standard_normal((r, cols))
    if is_complex:
        left = left + 1j * rng.standard_normal((rows, r))
    return (left @ right) * 10.0**exponent


matrices = st.builds(
    _matrix,
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    rank=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    is_complex=st.booleans(),
    exponent=st.sampled_from([-300, -150, 0, 150, 300]),
)


@settings(max_examples=100)
@given(m=matrices)
def test_operator_norm_is_the_largest_singular_value(m):
    reference = np.linalg.norm(m, 2)
    assert abs(linalg.operator_norm(m) - reference) <= 1e-14 * reference
