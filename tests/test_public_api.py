"""The public API surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_headline_types_exported():
    from repro import (
        AccuracyTarget,
        FocusConfig,
        FocusSystem,
        GPULedger,
        IngestAllBaseline,
        Policy,
        QueryAllBaseline,
        STREAMS,
    )

    assert len(STREAMS) == 13
    assert Policy.BALANCE.value == "balance"


def test_subpackages_importable():
    import repro.baselines
    import repro.cnn
    import repro.core
    import repro.eval
    import repro.fabric
    import repro.sched
    import repro.storage
    import repro.video

    for pkg in (repro.cnn, repro.core, repro.video):
        assert pkg.__doc__
