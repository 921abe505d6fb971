"""Serve-engine plan and pool lifecycle tests.

An engine compiles one plan at construction and never recompiles it: a
micro-batcher restart over the same engine reuses it, and ``close()``
releases the worker pool but keeps the plan, so a closed engine serves the
same answers again on demand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.obs import get_registry
from repro.runtime.backends import ParallelBackend
from repro.serve import MicroBatcher, ServeConfig, build_engine, export_artifact


def _artifact(model, seed=0, input_shape=(3, 16, 16)):
    bundle = build_model(model, input_shape=input_shape, seed=seed)
    units = bundle.ff_units()
    return export_artifact(
        units, bundle, overlay_amplitude=2.0,
        registry_name=model,
        registry_kwargs={"input_shape": list(input_shape)},
    )


def _compiles() -> float:
    return get_registry().counter("repro_plan_compiles_total").value()


@pytest.fixture()
def conv_engine():
    artifact = _artifact("resnet18-mini")
    engine = build_engine(
        artifact, build_model("resnet18-mini", input_shape=(3, 16, 16),
                              seed=1),
    )
    yield engine
    engine.close()


class TestPlanCache:
    def test_engine_compiles_one_plan_at_construction(self):
        before = _compiles()
        engine = build_engine(_artifact("resnet18-mini"))
        try:
            assert _compiles() == before + 1
            construction = engine.executor
            engine.predict(np.zeros((2, 3, 16, 16), dtype=np.float32))
            assert engine.executor is construction
            assert _compiles() == before + 1
        finally:
            engine.close()

    def test_mlp_mini_engine_plan_is_one_step_per_module(self):
        bundle = build_model("mlp-mini", input_shape=(1, 14, 14))
        artifact = export_artifact(
            bundle.ff_units(), bundle, registry_name="mlp-mini",
            registry_kwargs={"input_shape": [1, 14, 14]},
        )
        engine = build_engine(artifact)
        try:
            assert [step.kind for step in engine.executor.plan.steps] == [
                "norm", "gemm", "activation"
            ] * 2
        finally:
            engine.close()

    def test_micro_batcher_restart_reuses_cached_plan(self, conv_engine):
        config = ServeConfig(max_batch_size=4, max_wait_ms=0.0,
                             cache_capacity=0)
        construction = conv_engine.executor
        compiles = _compiles()
        with MicroBatcher(conv_engine, config):
            assert conv_engine.executor is construction
        # A second deployment over the same engine serves from the plan
        # compiled at construction: no recompilation.
        with MicroBatcher(conv_engine, config) as batcher:
            assert conv_engine.executor is construction
            sample = np.zeros((3, 16, 16), dtype=np.float32)
            assert batcher.predict(sample) == conv_engine.predict(
                sample[None]
            )[0]
        assert _compiles() == compiles


class TestPlanCacheAcrossClose:
    def test_closed_engine_serves_again(self):
        # mobilenet_v2-mini has depthwise layers, the only kernels the
        # parallel backend tiles across its worker pool.
        backend = ParallelBackend(num_workers=2, min_rows_per_tile=1)
        engine = build_engine(
            _artifact("mobilenet_v2-mini"),
            build_model("mobilenet_v2-mini", input_shape=(3, 16, 16), seed=2),
            backend=backend,
        )
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(
            np.float32
        )
        before = engine.predict(x)
        assert backend.pool_active
        construction = engine.executor
        engine.close()
        assert not backend.pool_active
        try:
            # The plan survives close; the pool comes back lazily and the
            # answers do not move.
            np.testing.assert_array_equal(engine.predict(x), before)
            assert engine.executor is construction
            assert backend.pool_active
        finally:
            engine.close()
