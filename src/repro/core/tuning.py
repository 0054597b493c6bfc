"""Parameter selection: balancing accuracy, ingest cost, query latency.

Section 4.4 of the paper: Focus samples a representative slice of each
stream, labels it with the GT-CNN, and evaluates the expected precision
and recall of every parameter combination -- ingest model (generic
compressed or per-stream specialized), top-K width K, specialization
class count Ls, clustering threshold T.  A two-step search keeps the
sweep tractable: (1) the model, Ls and K are chosen against the recall
target alone; (2) T is swept and only values meeting the precision
target are kept.  Among viable configurations, the Pareto boundary over
(ingest cost, query latency) is computed, and a policy picks the
operating point: Opt-Ingest, Balance (minimum summed GPU cost), or
Opt-Query.

Every model's sweep is a pure function of (sample, model), so
:meth:`ParameterTuner.tune` splits the models over the CPUs this
process may run on: it sweeps one share itself and forks one helper per
other share for the duration of the call (see :func:`_sweep_shares`).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.cnn.specialize import SpecializedClassifier, specialization_ladder
from repro.cnn.zoo import cheap_cnn, generic_candidates
from repro.core.clustering import ClusterSummary, cluster_features, feature_chunks
from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.ingest import simulate_pixel_diff
from repro.core.metrics import StreamAccuracy, SegmentMetrics, gt_segments, result_segments
from repro.obs.events import emit
from repro.video.synthesis import ObservationTable

#: one measured (model, K, T): ``(k, T, precision, recall, ingest_norm,
#: query_norm, viable)`` -- plain values, so a helper's rows cross its
#: pipe by pickle bit for bit
Measurement = Tuple[int, float, float, float, float, float, bool]


@dataclass(frozen=True)
class CandidateConfig:
    """One evaluated parameter combination."""

    config: FocusConfig
    precision: float
    recall: float
    ingest_cost_norm: float    # GPU cost vs Ingest-all on the same sample
    query_latency_norm: float  # GPU cost vs Query-all, avg over dominant classes
    viable: bool

    @property
    def total_norm(self) -> float:
        return self.ingest_cost_norm + self.query_latency_norm


@dataclass
class TuningResult:
    """Outcome of a tuning pass over one stream sample."""

    stream: str
    candidates: List[CandidateConfig]
    dominant_classes: List[int]
    target: AccuracyTarget

    @property
    def viable(self) -> List[CandidateConfig]:
        return [c for c in self.candidates if c.viable]

    @property
    def pareto(self) -> List[CandidateConfig]:
        return pareto_front(self.viable)

    def choose(self, policy: Policy) -> CandidateConfig:
        """Pick the operating point for a policy (Section 4.4)."""
        front = self.pareto
        if not front:
            raise RuntimeError(
                "no viable configuration met the accuracy target %r for stream %s"
                % (self.target, self.stream)
            )
        if policy is Policy.OPT_INGEST:
            return min(front, key=lambda c: (c.ingest_cost_norm, c.query_latency_norm))
        if policy is Policy.OPT_QUERY:
            return min(front, key=lambda c: (c.query_latency_norm, c.ingest_cost_norm))
        return min(front, key=lambda c: c.total_norm)


def pareto_front(candidates: Sequence[CandidateConfig]) -> List[CandidateConfig]:
    """Configurations not dominated in (ingest cost, query latency)."""
    front: List[CandidateConfig] = []
    for c in candidates:
        dominated = any(
            (o.ingest_cost_norm <= c.ingest_cost_norm
             and o.query_latency_norm <= c.query_latency_norm
             and (o.ingest_cost_norm < c.ingest_cost_norm
                  or o.query_latency_norm < c.query_latency_norm))
            for o in candidates
        )
        if not dominated:
            front.append(c)
    front.sort(key=lambda c: c.ingest_cost_norm)
    return front


class ParameterTuner:
    """Sweeps the Focus parameter space on a GT-labelled sample."""

    def __init__(
        self,
        gt_model: ClassifierModel,
        target: AccuracyTarget = AccuracyTarget(),
        settings: TunerSettings = TunerSettings(),
        sources: Optional[Sequence[ClassifierModel]] = None,
    ):
        if not gt_model.is_ground_truth:
            raise ValueError("gt_model must have dispersion 0")
        self.gt_model = gt_model
        self.target = target
        self.settings = settings
        self.sources = (
            list(sources) if sources is not None else [cheap_cnn(1), cheap_cnn(2)]
        )

    # -- candidate model space ------------------------------------------------
    def candidate_models(
        self, histogram: Dict[int, int], stream: str
    ) -> List[ClassifierModel]:
        """Generic compressed models plus the specialization ladder."""
        models: List[ClassifierModel] = []
        if self.settings.include_generic:
            models.extend(generic_candidates())
        models.extend(
            specialization_ladder(
                self.sources,
                histogram,
                stream,
                ls_values=self.settings.ls_values,
                cost_divisors=self.settings.specialization_divisors,
            )
        )
        return models

    # -- step 1: recall-only (model, K) filter ---------------------------------
    def _viable_ks(
        self,
        model: ClassifierModel,
        sample: ObservationTable,
        dominant: Sequence[int],
    ) -> List[int]:
        """Smallest K values whose raw index recall meets the target."""
        grid = (
            self.settings.k_grid_specialized
            if isinstance(model, SpecializedClassifier)
            else self.settings.k_grid_generic
        )
        ranks = model.ranks(sample)
        ks: List[int] = []
        for k in sorted(grid):
            recalls = []
            weights = []
            for cls in dominant:
                mask = sample.class_id == cls
                count = int(mask.sum())
                if count == 0:
                    continue
                recalls.append(float((ranks[mask] <= k).mean()))
                weights.append(count)
            if not recalls:
                continue
            weighted = float(np.average(recalls, weights=weights))
            # Clustering can only lose a little more recall; demand the
            # raw index clear the target before paying for a T sweep.
            if weighted >= self.target.recall:
                ks.append(k)
            if len(ks) >= self.settings.max_candidates_per_model:
                break
        return ks

    # -- step 2: T sweep with full-pipeline measurement -------------------------
    def _measure(
        self,
        model: ClassifierModel,
        k: int,
        threshold: float,
        sample: ObservationTable,
        clusters: ClusterSummary,
        suppressed: np.ndarray,
        truth: Dict[int, Set[int]],
        in_topk: Dict[int, np.ndarray],
    ) -> Measurement:
        """Simulate the full pipeline for one (model, K, T) on the sample.

        ``truth`` maps each dominant class to its ground-truth segments
        and ``in_topk`` to its top-K membership over *every* sample row
        (a pure per-row function, so the centroid objects' verdicts are
        a gather at ``clusters.seed_rows``); neither depends on T.  A
        matched centroid returns its whole cluster: the rows whose
        assignment is matched (``result_segments`` ignores row order).
        """
        centroid_classes = sample.class_id[clusters.seed_rows]

        per_class: Dict[int, SegmentMetrics] = {}
        candidate_counts: List[int] = []
        for cls, segments in truth.items():
            member_mask = in_topk[cls][clusters.seed_rows]
            candidate_counts.append(int(member_mask.sum()))
            matched = member_mask & (centroid_classes == cls)
            reported = result_segments(sample, np.flatnonzero(matched[clusters.assignments]))
            per_class[cls] = SegmentMetrics(
                class_id=cls,
                true_segments=len(segments),
                returned_segments=len(reported),
                correct_segments=len(segments & reported),
            )

        accuracy = StreamAccuracy(per_class=per_class)
        n_obs = len(sample)
        ingest_inferences = n_obs - int(suppressed.sum())
        ingest_norm = (ingest_inferences * model.gflops) / (n_obs * self.gt_model.gflops)
        query_norm = float(np.mean(candidate_counts)) / n_obs if n_obs else 0.0

        # Viability demands the sample estimate clear the target with a
        # safety margin, absorbing sample-vs-full-video drift.
        margin = self.settings.accuracy_margin
        viable = (
            accuracy.precision >= min(self.target.precision + margin, 1.0)
            and accuracy.recall >= min(self.target.recall + margin, 1.0)
        )
        return (k, threshold, accuracy.precision, accuracy.recall,
                ingest_norm, query_norm, viable)

    def _sweep_model(
        self,
        model: ClassifierModel,
        ks: Sequence[int],
        sample: ObservationTable,
        dominant: Sequence[int],
        suppressed: np.ndarray,
        truth: Dict[int, Set[int]],
    ) -> List[Measurement]:
        """Every (T, K) of one model, T outer: its feature rows and top-K
        membership once, one clustering per T."""
        specialized = isinstance(model, SpecializedClassifier)
        in_topk = {
            k: {
                cls: model.topk_membership(
                    sample, model.query_token(cls) if specialized else cls, k
                )
                for cls in dominant
            }
            for k in ks
        }
        chunks = list(feature_chunks(sample, model, suppressed))
        rows: List[Measurement] = []
        for threshold in self.settings.t_grid:
            clusters = cluster_features(chunks, model.feature_dim, threshold)
            for k in ks:
                rows.append(
                    self._measure(
                        model, k, threshold, sample, clusters, suppressed,
                        truth, in_topk[k],
                    )
                )
        return rows

    def tune(self, sample: ObservationTable, stream: Optional[str] = None) -> TuningResult:
        """Run the two-step sweep on a GT-labelled sample slice.

        Each thing is paid for at the level it depends on: pixel-diff
        suppression, ground-truth segments and every model's viable K
        values once per sweep, feature rows and top-K membership once
        per model (one model's features held at a time per process),
        and only the clustering itself once per T.  The models with a
        viable K are swept by :func:`_sweep_shares`, on every usable
        CPU; the candidates come back in the serial order (model, then
        T, then K) and are the same to the last bit either way.
        """
        stream = stream or sample.stream
        if len(sample) == 0:
            raise ValueError("sample is empty; widen the sample window")
        histogram = sample.class_histogram()
        dominant = sample.dominant_classes(self.settings.dominant_coverage)

        suppressed = simulate_pixel_diff(sample)
        truth = {cls: gt_segments(sample, cls) for cls in dominant}
        viable_ks = []
        for model in self.candidate_models(histogram, stream):
            ks = self._viable_ks(model, sample, dominant)
            if ks:
                viable_ks.append((model, ks))
        swept = _sweep_shares(
            lambda i: self._sweep_model(*viable_ks[i], sample, dominant, suppressed, truth),
            [model.name for model, _ in viable_ks],
        )
        candidates = [
            CandidateConfig(
                FocusConfig(model=model, k=k, cluster_threshold=threshold), *measured
            )
            for (model, _), rows in zip(viable_ks, swept)
            for k, threshold, *measured in rows
        ]
        return TuningResult(
            stream=stream,
            candidates=candidates,
            dominant_classes=list(dominant),
            target=self.target,
        )


# -- the sweep on every usable CPU ---------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 on a host
    that cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


def _sweep_shares(sweep: Callable[[int], list], names: Sequence[str]) -> List[list]:
    """``[sweep(i) for i in range(len(names))]``, split round-robin over
    W = min(usable CPUs, len(names)) workers.

    This process is worker 0 and runs its share itself; every other
    worker is a :class:`_Helper` forked for this call only, after the
    caller built everything ``sweep`` reads, so nothing is shipped in.
    A host without ``os.fork``, one usable CPU or a single item runs
    the plain loop.  A helper's exception re-raises here with its type
    and message; a helper that dies without a reply raises
    ``RuntimeError``.  However this returns or raises, every helper has
    been reaped.
    """
    count = len(names)
    workers = min(_usable_cpus(), count) if hasattr(os, "fork") else 1
    if workers < 2:
        return [sweep(i) for i in range(count)]
    results: List[list] = [[] for _ in range(count)]
    helpers: List[_Helper] = []
    try:
        for w in range(1, workers):
            share = range(w, count, workers)
            helpers.append(_Helper(sweep, share, [names[i] for i in share]))
        for i in range(0, count, workers):
            results[i] = sweep(i)
        for helper in helpers:
            for i, rows in zip(helper.share, helper.collect()):
                results[i] = rows
    finally:
        for helper in helpers:
            helper.stop()
    return results


class _Helper:
    """One forked process sweeping a share of the items.

    The helper writes one pickle to its pipe -- ``("ok", rows, wall_s)``
    or ``("error", exception, traceback text, wall_s)`` -- and leaves
    through ``os._exit``: no ``atexit`` hook, ``finally`` or buffered
    stream of the parent runs twice.  The parent reaps it with
    ``os.wait4`` and records a ``tuner.helper`` event (pid, models
    swept, the helper's own wall seconds, its ``ru_maxrss`` and
    ``ru_minflt``, its exit code).
    """

    def __init__(self, sweep: Callable[[int], list], share: range, models: List[str]):
        self.share = share
        self.models = models
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            _helper_main(sweep, share, write_fd)  # never returns
        os.close(write_fd)
        #: open until the helper is reaped
        self._read_fd: Optional[int] = read_fd

    def collect(self) -> list:
        """The helper's rows, in share order; raises what it raised."""
        chunks = []
        while True:
            chunk = os.read(self._read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        exit_code, usage = self._reap()
        # a helper exits 0 only after its whole reply is written
        reply = pickle.loads(b"".join(chunks)) if exit_code == 0 and chunks else None
        self._record(exit_code, usage, reply[-1] if reply else None)
        if reply is None:
            raise RuntimeError(
                "tuner helper %d sweeping %s exited with status %d without a reply"
                % (self.pid, ", ".join(self.models), exit_code)
            )
        if reply[0] == "error":
            raise reply[1] from RuntimeError(
                "in tuner helper %d:\n%s" % (self.pid, reply[2])
            )
        return reply[1]

    def stop(self) -> None:
        """Kill and reap the helper unless it was already reaped."""
        if self._read_fd is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._record(*self._reap(), None)

    def _reap(self):
        """Close the pipe and wait for the helper: its exit code
        (negative: the signal that ended it) and resource usage."""
        os.close(self._read_fd)
        self._read_fd = None
        _, status, usage = os.wait4(self.pid, 0)
        return os.waitstatus_to_exitcode(status), usage

    def _record(self, exit_code: int, usage, wall_s: Optional[float]) -> None:
        # minflt counts the helper's copy-on-write faults on the pages
        # it shares with this process, plus its own fresh pages
        emit(
            "tuner.helper",
            pid=self.pid,
            models=list(self.models),
            wall_s=wall_s,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            minflt=usage.ru_minflt,
            exit_code=exit_code,
        )


def _helper_main(sweep: Callable[[int], list], share: range, write_fd: int) -> None:
    """Body of a forked helper: sweep ``share``, write one reply, exit.

    The cyclic collector stays off: the helper lives for one sweep, and
    a collection would walk (and copy-on-write fault) every object
    inherited from the parent.
    """
    exit_code = 1
    try:
        gc.disable()
        started = time.perf_counter()
        try:
            reply = pickle.dumps(
                ("ok", [sweep(i) for i in share], time.perf_counter() - started)
            )
        except BaseException as exc:  # noqa: BLE001 -- re-raised by the parent
            text = traceback.format_exc()
            wall_s = time.perf_counter() - started
            try:
                reply = pickle.dumps(("error", exc, text, wall_s))
            except Exception:  # an exception that does not pickle
                reply = pickle.dumps((
                    "error", RuntimeError("%s: %s" % (type(exc).__name__, exc)),
                    text, wall_s,
                ))
        view = memoryview(reply)
        while view:
            view = view[os.write(write_fd, view):]
        exit_code = 0
    finally:
        os._exit(exit_code)
