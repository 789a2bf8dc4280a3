"""The closed-form positional pricing kernel against the looped oracle.

:meth:`~repro.model.plan._RowSpanPricing.span_cycles_matrix` prices an
``(R, K + 1)`` boundary matrix as differences of one cumulative cost plus a
cold-start correction.  Every entry must equal the segment-by-segment loop of
:func:`tests.model.span_oracle.looped_span_cycles`, on whole-model plans and
on decode plans (fixed and adaptive block schedules), cold and primed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.model import LayerGeometry, ModelPlanCompiler, ModelSpec
from repro.model.plan import compile_decode_plan
from repro.serving.request import decode_block_schedule
from tests.model.span_oracle import looped_span_cycles, looped_span_matrix

HEAD_DIM = 8

#: Distinct pipeline geometries (different II/depth) plus a repeat-prone
#: palette, so drawn models mix same-geometry and switch boundaries.
GEOMETRIES = (
    LayerGeometry(window_tokens=8),
    LayerGeometry(window_tokens=16),
    LayerGeometry(window_tokens=8, num_global_tokens=2),
    LayerGeometry(window_tokens=8, num_global_tokens=2, num_random_tokens=2, random_seed=7),
)

spec_strategy = st.builds(
    ModelSpec,
    seq_len=st.sampled_from([5, 16, 24, 33]),
    layers=st.lists(st.sampled_from(GEOMETRIES), min_size=1, max_size=5).map(tuple),
    num_heads=st.integers(1, 3),
    head_dim=st.just(HEAD_DIM),
)


def _compile(spec):
    config = SWATConfig(head_dim=HEAD_DIM, window_tokens=8)
    return ModelPlanCompiler(base_config=config).compile(spec)


def _random_bounds(plan, rng, rows, spans):
    """``(rows, spans + 1)`` strictly increasing boundaries, biased onto the
    plan's segment boundaries so switch and same-geometry starts occur."""
    pool = np.unique(
        np.concatenate([plan.cum_rows, rng.integers(0, plan.total_rows + 1, size=2 * spans)])
    )
    width = min(spans + 1, len(pool))
    return np.array([np.sort(rng.choice(pool, size=width, replace=False)) for _ in range(rows)])


class TestKernelMatchesOracle:
    @settings(deadline=None, max_examples=60)
    @given(
        spec=spec_strategy,
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 4),
        spans=st.integers(1, 6),
        primed=st.booleans(),
    )
    def test_model_plans(self, spec, seed, rows, spans, primed):
        plan = _compile(spec)
        bounds = _random_bounds(plan, np.random.default_rng(seed), rows, spans)
        assert np.array_equal(
            plan.span_cycles_matrix(bounds, primed), looped_span_matrix(plan, bounds, primed)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        spec=spec_strategy,
        new_tokens=st.integers(1, 9),
        block_size=st.integers(1, 4),
        adaptive=st.booleans(),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 4),
        spans=st.integers(1, 6),
        primed=st.booleans(),
    )
    def test_decode_plans(self, spec, new_tokens, block_size, adaptive, seed, rows, spans, primed):
        plan = compile_decode_plan(
            _compile(spec), decode_block_schedule(new_tokens, block_size, adaptive)
        )
        bounds = _random_bounds(plan, np.random.default_rng(seed), rows, spans)
        result = plan.span_cycles_matrix(bounds, primed)
        assert result.dtype == np.int64
        assert result.shape == (bounds.shape[0], bounds.shape[1] - 1)
        assert np.array_equal(result, looped_span_matrix(plan, bounds, primed))


class TestColdStartShapes:
    """Layers ``(A, A, B)``: boundary 1 keeps the geometry (no refill),
    boundary 2 switches it (refill ``fill - II`` charged by the cost)."""

    @pytest.fixture
    def plan(self):
        spec = ModelSpec(
            seq_len=16, layers=(GEOMETRIES[0], GEOMETRIES[0], GEOMETRIES[1]), head_dim=HEAD_DIM
        )
        plan = _compile(spec)
        assert plan.switch_fill[1] == 0 and plan.switch_fill[2] > 0
        return plan

    def _price(self, plan, lo, hi, primed):
        kernel = int(plan.span_cycles_matrix([[lo, hi]], primed)[0, 0])
        assert kernel == looped_span_cycles(plan, lo, hi, primed)
        return kernel

    def test_mid_segment(self, plan):
        lo, hi = 5, 11
        ii, fill = int(plan.layer_ii[0]), int(plan.layer_fill[0])
        assert self._price(plan, lo, hi, primed=True) == 6 * ii
        assert self._price(plan, lo, hi, primed=False) == 6 * ii + fill - ii

    def test_on_geometry_switch_boundary(self, plan):
        lo = int(plan.cum_rows[2])
        ii, refill = int(plan.layer_ii[2]), int(plan.switch_fill[2])
        # The switch refill is charged either way, and only once.
        assert self._price(plan, lo, lo + 4, primed=True) == 4 * ii + refill
        assert self._price(plan, lo, lo + 4, primed=False) == 4 * ii + refill

    def test_on_same_geometry_boundary(self, plan):
        lo = int(plan.cum_rows[1])
        ii, fill = int(plan.layer_ii[1]), int(plan.layer_fill[1])
        assert self._price(plan, lo, lo + 4, primed=True) == 4 * ii
        assert self._price(plan, lo, lo + 4, primed=False) == 4 * ii + fill - ii


class TestKernelValidation:
    @pytest.fixture
    def plan(self):
        return _compile(ModelSpec.uniform(2, 16, window_tokens=8, head_dim=HEAD_DIM))

    def test_negative_lower_bound(self, plan):
        with pytest.raises(ValueError, match="increase strictly"):
            plan.span_cycles_matrix([[0, 3], [-1, 3]], primed=True)

    def test_non_increasing_row(self, plan):
        with pytest.raises(ValueError, match="increase strictly"):
            plan.span_cycles_matrix([[0, 3, 3]], primed=True)

    def test_upper_bound_above_total_rows(self, plan):
        with pytest.raises(ValueError, match="increase strictly"):
            plan.span_cycles_matrix([[0, plan.total_rows + 1]], primed=True)

    def test_one_dimensional_input(self, plan):
        with pytest.raises(ValueError, match="matrix"):
            plan.span_cycles_matrix([0, 3], primed=True)

    def test_single_span_rejects_negative_lower_bound(self, plan):
        with pytest.raises(ValueError, match="increase strictly"):
            plan.span_cycles_matrix([[-1, 3]], primed=True)
