"""Unit tests for the GPU ledger, config types and FocusSystem facade."""

import numpy as np
import pytest

from repro.cnn.zoo import cheap_cnn, resnet152
from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.system import FocusSystem
from repro.storage.docstore import DocumentStore
from repro.video.synthesis import generate_observations


class TestLedger:
    def test_record_and_totals(self):
        ledger = GPULedger()
        gt = resnet152()
        ledger.record(CostCategory.INGEST_CNN, cheap_cnn(1), 100)
        ledger.record(CostCategory.QUERY_GT, gt, 10)
        assert ledger.ingest_seconds > 0
        assert ledger.query_seconds == pytest.approx(gt.cost_seconds(10))
        assert ledger.inferences() == 110
        assert set(ledger.summary()) == {"ingest-cnn", "query-gt"}

    def test_negative_inferences(self):
        with pytest.raises(ValueError):
            GPULedger().record(CostCategory.QUERY_GT, resnet152(), -1)

    def test_merge_and_clear(self):
        a, b = GPULedger(), GPULedger()
        a.record(CostCategory.INGEST_CNN, cheap_cnn(1), 5)
        b.record(CostCategory.QUERY_GT, resnet152(), 5)
        a.merge(b)
        assert len(a.entries) == 2
        a.clear()
        assert a.seconds() == 0


class TestConfigTypes:
    def test_accuracy_target_validation(self):
        with pytest.raises(ValueError):
            AccuracyTarget(precision=0.0)
        with pytest.raises(ValueError):
            AccuracyTarget(recall=1.5)

    def test_focus_config_validation(self):
        with pytest.raises(ValueError):
            FocusConfig(model=cheap_cnn(1), k=0, cluster_threshold=0.1)
        with pytest.raises(ValueError):
            FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=-0.1)

    def test_describe(self):
        config = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.1)
        assert "K=2" in config.describe()
        off = FocusConfig(
            model=cheap_cnn(1), k=2, cluster_threshold=0.1, pixel_diff=False
        )
        assert "no pixel-diff" in off.describe()

    def test_tuner_settings_hashable(self):
        assert hash(TunerSettings()) == hash(TunerSettings())


class TestFocusSystem:
    @pytest.fixture(scope="class")
    def system(self):
        system = FocusSystem()
        system.ingest_stream("lausanne", duration_s=150.0, fps=30.0)
        return system

    def test_streams_listed(self, system):
        assert system.streams() == ["lausanne"]
        with pytest.raises(KeyError):
            system.handle("msnbc")

    def test_query_by_name_and_id(self, system):
        handle = system.handle("lausanne")
        cls = int(handle.table.dominant_classes()[0])
        by_id = system.query("lausanne", cls)
        assert by_id.class_id == cls
        assert by_id.class_name
        by_name = system.query("lausanne", by_id.class_name)
        np.testing.assert_array_equal(by_id.frames, by_name.frames)

    def test_query_with_time_range(self, system):
        handle = system.handle("lausanne")
        cls = int(handle.table.dominant_classes()[0])
        answer = system.query("lausanne", cls, time_range=(0.0, 50.0))
        if len(answer.frames):
            assert (handle.table.time_s[answer.result.returned_rows] < 50.0).all()

    def test_ledger_tracks_all_phases(self, system):
        summary = system.cost_summary()
        assert "retrain-gt" in summary   # GT labelling of the tuning sample
        assert "ingest-cnn" in summary
        assert "query-gt" in summary

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            FocusSystem().ingest_stream("not_a_stream", duration_s=30.0)

    def test_explicit_config_skips_tuning_choice(self):
        table = generate_observations("lausanne", 60.0, 30.0)
        from repro.cnn.specialize import specialize

        model = specialize(cheap_cnn(1), table.class_histogram(), 3, "lausanne")
        config = FocusConfig(model=model, k=2, cluster_threshold=0.12)
        system = FocusSystem()
        handle = system.ingest_stream(table, config=config)
        assert handle.config is config

    def test_save_indexes(self, system):
        store = DocumentStore()
        system.save_indexes(store)
        assert any("clusters:lausanne" in n for n in store.collection_names())
