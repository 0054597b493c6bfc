"""Unit tests for the parameter tuner (Section 4.4)."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro

import repro.core.helpers as helpers_module
import repro.core.tuning as tuning_module
from repro.cnn.features import FeatureExtractor
from repro.cnn.specialize import SpecializedClassifier
from repro.cnn.zoo import cheap_cnn, resnet152
from repro.core.clustering import cluster_table, feature_rows_needed
from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.ingest import simulate_pixel_diff
from repro.core.metrics import (
    SegmentMetrics,
    StreamAccuracy,
    gt_segments,
    result_segments,
)
from repro.core.tuning import (
    CandidateConfig,
    ParameterTuner,
    TuningResult,
    pareto_front,
)
from repro.obs.events import EventLog
from repro.video.synthesis import generate_observations


def _candidate(ingest, query, viable=True, k=2, t=0.1):
    config = FocusConfig(model=cheap_cnn(1), k=k, cluster_threshold=t)
    return CandidateConfig(
        config=config,
        precision=0.99,
        recall=0.99,
        ingest_cost_norm=ingest,
        query_latency_norm=query,
        viable=viable,
    )


class TestParetoFront:
    def test_dominated_points_removed(self):
        a = _candidate(0.1, 0.1)
        b = _candidate(0.2, 0.2)  # dominated by a
        c = _candidate(0.05, 0.3)
        front = pareto_front([a, b, c])
        assert a in front and c in front and b not in front

    def test_front_sorted_by_ingest(self):
        pts = [_candidate(x, 1.0 - x) for x in (0.4, 0.1, 0.3, 0.2)]
        front = pareto_front(pts)
        costs = [c.ingest_cost_norm for c in front]
        assert costs == sorted(costs)

    def test_empty(self):
        assert pareto_front([]) == []

    def test_single_point(self):
        a = _candidate(0.1, 0.1)
        assert pareto_front([a]) == [a]


class TestPolicyChoice:
    def _result(self, candidates):
        return TuningResult(
            stream="s", candidates=candidates, dominant_classes=[0], target=AccuracyTarget()
        )

    def test_balance_minimizes_sum(self):
        cheap_ingest = _candidate(0.01, 0.5)
        balanced = _candidate(0.05, 0.05)
        fast_query = _candidate(0.5, 0.01)
        result = self._result([cheap_ingest, balanced, fast_query])
        assert result.choose(Policy.BALANCE) is balanced

    def test_opt_policies(self):
        cheap_ingest = _candidate(0.01, 0.5)
        fast_query = _candidate(0.5, 0.01)
        result = self._result([cheap_ingest, fast_query])
        assert result.choose(Policy.OPT_INGEST) is cheap_ingest
        assert result.choose(Policy.OPT_QUERY) is fast_query

    def test_no_viable_raises(self):
        result = self._result([_candidate(0.1, 0.1, viable=False)])
        with pytest.raises(RuntimeError):
            result.choose(Policy.BALANCE)

    def test_viable_property_filters(self):
        good = _candidate(0.1, 0.1)
        bad = _candidate(0.01, 0.01, viable=False)
        result = self._result([good, bad])
        assert result.viable == [good]
        # the infeasible dominator must not shadow the viable point
        assert result.choose(Policy.BALANCE) is good


class TestTunerEndToEnd:
    @pytest.fixture(scope="class")
    def tuning(self):
        table = generate_observations("auburn_c", 150.0, 30.0)
        sample = table.scattered_sample(60.0)
        tuner = ParameterTuner(resnet152(), AccuracyTarget())
        return tuner.tune(sample, "auburn_c")

    def test_produces_viable_candidates(self, tuning):
        assert len(tuning.viable) >= 1

    def test_estimates_meet_target_with_margin(self, tuning):
        margin = TunerSettings().accuracy_margin
        for c in tuning.viable:
            assert c.precision >= 0.95 + margin - 1e-9
            assert c.recall >= 0.95 + margin - 1e-9

    def test_chosen_config_is_specialized(self, tuning):
        """On typical streams the tuner lands on a per-stream
        specialized model, as the paper's deployments do."""
        chosen = tuning.choose(Policy.BALANCE)
        assert isinstance(chosen.config.model, SpecializedClassifier)

    def test_norms_are_fractions(self, tuning):
        for c in tuning.candidates:
            assert 0 <= c.ingest_cost_norm <= 1.0
            assert 0 <= c.query_latency_norm <= 1.5

    def test_requires_gt_model(self):
        with pytest.raises(ValueError):
            ParameterTuner(cheap_cnn(1))

    def test_empty_sample_rejected(self):
        table = generate_observations("auburn_c", 30.0, 30.0)
        empty = table.select(np.zeros(len(table), dtype=bool))
        with pytest.raises(ValueError):
            ParameterTuner(resnet152()).tune(empty)

    def test_disable_specialization(self):
        table = generate_observations("lausanne", 120.0, 30.0)
        sample = table.scattered_sample(60.0)
        settings = TunerSettings(ls_values=(), include_generic=True)
        tuner = ParameterTuner(resnet152(), settings=settings)
        tuning = tuner.tune(sample)
        assert all(
            not isinstance(c.config.model, SpecializedClassifier)
            for c in tuning.candidates
        )


# -- equivalence oracle ---------------------------------------------------------
# The tuner shares work across its sweep (features per model, ground truth
# per class, top-K membership per (model, K, class)).  The reference below
# shares nothing: every (model, K, T, class) is computed from scratch with
# the public one-at-a-time primitives.  Both must agree to the last bit.

def _reference_tune(tuner, sample, stream):
    settings, target = tuner.settings, tuner.target
    dominant = sample.dominant_classes(settings.dominant_coverage)
    suppressed = simulate_pixel_diff(sample)
    n_obs = len(sample)
    candidates = []
    for model in tuner.candidate_models(sample.class_histogram(), stream):
        specialized = isinstance(model, SpecializedClassifier)
        grid = settings.k_grid_specialized if specialized else settings.k_grid_generic
        ranks = model.ranks(sample)
        ks = []
        for k in sorted(grid):
            present = [c for c in dominant if (sample.class_id == c).any()]
            recalls = [float((ranks[sample.class_id == c] <= k).mean()) for c in present]
            weights = [int((sample.class_id == c).sum()) for c in present]
            if recalls and float(np.average(recalls, weights=weights)) >= target.recall:
                ks.append(k)
            if len(ks) >= settings.max_candidates_per_model:
                break
        for threshold in settings.t_grid if ks else ():
            clusters = cluster_table(sample, model, threshold, suppressed=suppressed)
            seed_mask = np.zeros(n_obs, dtype=bool)
            seed_mask[clusters.seed_rows] = True
            centroids = sample.select(seed_mask)
            members = clusters.members_by_cluster()
            for k in ks:
                per_class, counts = {}, []
                for cls in dominant:
                    token = model.query_token(cls) if specialized else cls
                    in_topk = model.topk_membership(centroids, token, k)
                    counts.append(int(in_topk.sum()))
                    matched = np.nonzero(in_topk & (centroids.class_id == cls))[0]
                    rows = (
                        np.concatenate([members[c] for c in matched])
                        if len(matched) else np.zeros(0, dtype=np.int64)
                    )
                    truth = gt_segments(sample, cls)
                    reported = result_segments(sample, rows)
                    per_class[cls] = SegmentMetrics(
                        cls, len(truth), len(reported), len(truth & reported)
                    )
                accuracy = StreamAccuracy(per_class=per_class)
                margin = settings.accuracy_margin
                candidates.append(CandidateConfig(
                    config=FocusConfig(model=model, k=k, cluster_threshold=threshold),
                    precision=accuracy.precision,
                    recall=accuracy.recall,
                    ingest_cost_norm=(
                        (n_obs - int(suppressed.sum())) * model.gflops
                        / (n_obs * tuner.gt_model.gflops)
                    ),
                    query_latency_norm=float(np.mean(counts)) / n_obs,
                    viable=(
                        accuracy.precision >= min(target.precision + margin, 1.0)
                        and accuracy.recall >= min(target.recall + margin, 1.0)
                    ),
                ))
    return TuningResult(stream, candidates, list(dominant), target)


def _key(candidate):
    """Every CandidateConfig field, with the model by name (each tune
    call trains its own specialized-model objects)."""
    config = candidate.config
    return (
        config.model.name, config.k, config.cluster_threshold,
        candidate.precision, candidate.recall,
        candidate.ingest_cost_norm, candidate.query_latency_norm,
        candidate.viable,
    )


class TestTunerEquivalenceOracle:
    @pytest.fixture(scope="class", params=["auburn_c", "cnn"])
    def sample(self, request):
        # a scattered sample truncates tracks mid-way: some suppressed
        # rows are the first sight of their track and need features
        table = generate_observations(request.param, 180.0, 30.0)
        sample = table.scattered_sample(40.0, chunk_seconds=5.0)
        suppressed = simulate_pixel_diff(sample)
        first_of_track = np.unique(sample.track_id, return_index=True)[1]
        assert suppressed[first_of_track].any()
        return sample

    def test_matches_unshared_reference_bit_for_bit(self, sample):
        tuner = ParameterTuner(resnet152(), AccuracyTarget())
        got = tuner.tune(sample)
        ref = _reference_tune(tuner, sample, sample.stream)
        assert len(got.candidates) > 0
        # == on floats: exact equality, not approx
        assert [_key(c) for c in got.candidates] == [_key(c) for c in ref.candidates]
        assert got.dominant_classes == ref.dominant_classes
        for policy in Policy:
            if not ref.pareto:
                with pytest.raises(RuntimeError):
                    got.choose(policy)
            else:
                assert _key(got.choose(policy)) == _key(ref.choose(policy))

    def test_each_thing_is_paid_for_once(self, sample, monkeypatch):
        # counted in every process: a forked helper's rows land in the
        # same shared counters, allocated before the tune call
        extracted_rows = multiprocessing.Value("q", 0)
        gt_calls = multiprocessing.Value("q", 0)
        real_extract, real_gt = FeatureExtractor.extract, tuning_module.gt_segments

        def counting_extract(self, table):
            with extracted_rows.get_lock():
                extracted_rows.value += len(table)
            return real_extract(self, table)

        def counting_gt(table, class_id):
            with gt_calls.get_lock():
                gt_calls.value += 1
            return real_gt(table, class_id)

        monkeypatch.setattr(FeatureExtractor, "extract", counting_extract)
        monkeypatch.setattr(tuning_module, "gt_segments", counting_gt)
        result = ParameterTuner(resnet152(), AccuracyTarget()).tune(sample)
        models_swept = {c.config.model.name for c in result.candidates}
        assert len(TunerSettings().t_grid) > 1
        # features depend on the model, never on T: each model extracts
        # exactly the rows a fresh clusterer reads, once, however many
        # block-sized calls that takes; ground truth depends on the
        # class, never on (model, K, T)
        needed = int(feature_rows_needed(sample.track_id, simulate_pixel_diff(sample)).sum())
        assert extracted_rows.value == len(models_swept) * needed
        assert gt_calls.value == len(result.dominant_classes)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="the helper path needs two usable CPUs",
    )
    def test_serial_path_on_one_cpu_matches_the_helper_path(self, sample, monkeypatch):
        """The same sweep in a process pinned to one CPU (no helper) and
        here (one forked helper per further CPU) gives the same
        candidates, bit for bit."""
        log = EventLog()
        monkeypatch.setattr("repro.obs.events._DEFAULT", log)
        got = ParameterTuner(resnet152(), AccuracyTarget()).tune(sample)
        assert log.events("tuner.helper"), "the helper path did not run"

        code = textwrap.dedent("""
            import os, pickle, sys
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from repro.cnn.zoo import resnet152
            from repro.core.config import AccuracyTarget
            from repro.core.tuning import ParameterTuner
            from repro.obs.events import default_events
            sample = pickle.load(sys.stdin.buffer)
            result = ParameterTuner(resnet152(), AccuracyTarget()).tune(sample)
            keys = [(c.config.model.name, c.config.k, c.config.cluster_threshold,
                     c.precision, c.recall, c.ingest_cost_norm,
                     c.query_latency_norm, c.viable) for c in result.candidates]
            helpers = default_events().events("tuner.helper")
            pickle.dump((keys, result.dominant_classes, helpers), sys.stdout.buffer)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              input=pickle.dumps(sample), capture_output=True,
                              check=True, timeout=300)
        keys, dominant, helpers = pickle.loads(done.stdout)
        assert helpers == []
        # == on floats: exact equality, not approx
        assert keys == [_key(c) for c in got.candidates]
        assert dominant == got.dominant_classes


# -- the helper path's failures --------------------------------------------------

@pytest.fixture(scope="module")
def small_sample():
    table = generate_observations("auburn_c", 90.0, 30.0)
    return table.scattered_sample(20.0, chunk_seconds=5.0)


@pytest.fixture
def two_cpus(monkeypatch):
    """Force the two-worker path whatever this host's CPU count, and
    record every pid the tuner forks and every helper it reaped."""
    if not hasattr(os, "fork"):
        pytest.skip("the helper path needs os.fork")
    monkeypatch.setattr(helpers_module, "usable_cpus", lambda: 2)
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(helpers_module.os, "fork", recording_fork)
    log = EventLog()
    monkeypatch.setattr("repro.obs.events._DEFAULT", log)

    def hung(signum, frame):
        raise TimeoutError("tune still waiting for a helper")

    # a hang is the failure these tests look for: bound it
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        yield forked, log
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_all_reaped(forked, log):
    assert len(forked) == 1
    assert [e["pid"] for e in log.events("tuner.helper")] == forked
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _fail_in(monkeypatch, where, fail):
    """Make the per-model sweep call ``fail()`` in the parent or in a
    helper, on its first model."""
    parent = os.getpid()
    real_sweep = ParameterTuner._sweep_model

    def sweep(self, *args):
        if (os.getpid() == parent) == (where == "parent"):
            fail()
        return real_sweep(self, *args)

    monkeypatch.setattr(ParameterTuner, "_sweep_model", sweep)


class TestTunerHelpers:
    def test_helper_event_reports_the_models_it_swept(self, small_sample, two_cpus):
        forked, log = two_cpus
        result = ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        _assert_all_reaped(forked, log)
        (event,) = log.events("tuner.helper")
        models = list(dict.fromkeys(c.config.model.name for c in result.candidates))
        assert len(models) >= 2
        # round-robin over two workers: the helper takes every second model
        assert event["models"] == models[1::2]
        assert event["exit_code"] == 0
        assert event["wall_s"] > 0 and event["maxrss_mb"] > 0 and event["minflt"] > 0

    def test_helper_exception_reraises_with_its_type_and_message(
        self, small_sample, two_cpus, monkeypatch
    ):
        def fail():
            raise KeyError("no such model in the helper")

        _fail_in(monkeypatch, "helper", fail)
        with pytest.raises(KeyError) as raised:
            ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        assert raised.value.args == ("no such model in the helper",)
        assert "in tuner helper" in str(raised.value.__cause__)
        _assert_all_reaped(*two_cpus)

    def test_helper_killed_mid_sweep_raises(self, small_sample, two_cpus, monkeypatch):
        _fail_in(monkeypatch, "helper", lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="without a reply"):
            ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        forked, log = two_cpus
        _assert_all_reaped(forked, log)
        assert log.events("tuner.helper")[0]["exit_code"] == -signal.SIGKILL

    def test_parent_share_failure_kills_and_reaps_the_helpers(
        self, small_sample, two_cpus, monkeypatch
    ):
        def fail():
            raise ValueError("parent share failed")

        _fail_in(monkeypatch, "parent", fail)
        with pytest.raises(ValueError, match="parent share failed"):
            ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        _assert_all_reaped(*two_cpus)

    def test_a_live_thread_keeps_the_sweep_in_process(self, small_sample, two_cpus):
        """A fork copies only the calling thread, so with a second
        thread alive the sweep stays in-process: no helper, the same
        candidates."""
        forked, log = two_cpus
        alone = ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        assert len(forked) == 1
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            threaded = ParameterTuner(resnet152(), AccuracyTarget()).tune(small_sample)
        finally:
            release.set()
            waiter.join()
        assert len(forked) == 1
        assert len(log.events("tuner.helper")) == 1
        assert [_key(c) for c in threaded.candidates] == [_key(c) for c in alone.candidates]

    @pytest.mark.parametrize("cpus, names", [(1, ["a", "b", "c"]), (4, ["a"])])
    def test_one_cpu_or_one_model_never_forks(self, monkeypatch, cpus, names):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(helpers_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(helpers_module.os, "fork", no_fork)
        assert helpers_module.sweep_shares(lambda i: [i], names) == [
            [i] for i in range(len(names))
        ]
