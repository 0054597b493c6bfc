"""One entry point per table and figure in the paper's evaluation.

Each function returns plain dict/list structures holding the same rows
or series the paper reports, so benchmarks and the EXPERIMENTS.md that
``scripts/generate_experiments_md.py`` generates can print
paper-vs-measured side by side.  Heavy underlying runs are shared
through :mod:`repro.eval.runner`'s cache.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cnn.zoo import cheap_cnn, resnet152, resnet18
from repro.core.config import AccuracyTarget, Policy, TunerSettings
from repro.core.tuning import ParameterTuner, pareto_front
from repro.eval.runner import (
    EXPERIMENT_DURATION_S,
    EXPERIMENT_FPS,
    StreamRunResult,
    run_stream,
)
from repro.video.profiles import REPRESENTATIVE_STREAMS, STREAMS, get_profile
from repro.video.synthesis import generate_observations

#: The six streams whose class statistics Section 2.2 characterizes.
SECTION22_STREAMS = ("auburn_c", "jacksonh", "lausanne", "sittard", "cnn", "msnbc")

ALL_STREAMS = tuple(STREAMS)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_dataset_characteristics(
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Table 1: the thirteen streams and their measured characteristics."""
    rows = []
    for name in ALL_STREAMS:
        profile = get_profile(name)
        table = generate_observations(name, duration_s, EXPERIMENT_FPS)
        rows.append(
            {
                "type": profile.domain,
                "name": name,
                "location": profile.location,
                "description": profile.description,
                "observations": len(table),
                "tracks": table.num_tracks,
                "empty_frame_fraction": table.empty_frame_fraction(),
                "present_classes": len(table.present_classes()),
                "dominant_classes": len(table.dominant_classes()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 1 / Figure 9: trade-off space
# ---------------------------------------------------------------------------
def fig1_tradeoff_space(
    stream: str = "auburn_c", duration_s: float = EXPERIMENT_DURATION_S
) -> Dict:
    """Figure 1: Focus's three policies vs Ingest-all and Query-all.

    Returns normalized (ingest cost, query latency) per point plus the
    (I, Q) improvement factors the paper annotates.
    """
    result = run_stream(stream, duration_s=duration_s)
    points = {
        "ingest-all": {"ingest_cost": 1.0, "query_latency": 0.0},
        "query-all": {"ingest_cost": 0.0, "query_latency": 1.0},
    }
    for name, point in result.policy_points.items():
        points["focus-%s" % name] = {
            "ingest_cost": 1.0 / point.ingest_cheaper_by,
            "query_latency": 1.0 / point.query_faster_by,
            "I": point.ingest_cheaper_by,
            "Q": point.query_faster_by,
        }
    return {"stream": stream, "points": points}


def fig9_policy_tradeoffs(
    streams: Sequence[str] = REPRESENTATIVE_STREAMS,
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Figure 9: Opt-Ingest and Opt-Query (I, Q) factors per stream."""
    rows = []
    for stream in streams:
        result = run_stream(stream, duration_s=duration_s)
        for policy in ("opt-ingest", "opt-query"):
            point = result.policy_points[policy]
            rows.append(
                {
                    "stream": stream,
                    "policy": policy,
                    "ingest_cheaper_by": point.ingest_cheaper_by,
                    "query_faster_by": point.query_faster_by,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 3 / Section 2.2 statistics
# ---------------------------------------------------------------------------
def fig3_class_cdf(
    streams: Sequence[str] = SECTION22_STREAMS,
    duration_s: float = 43200.0,
    fps: float = 1.0,
) -> Dict:
    """Figure 3: CDF of object-class frequency per stream.

    Also reports the Section 2.2.2 statistics: fraction of the 1000
    classes present, the fraction of classes covering >= 95% of
    objects, and the mean pairwise Jaccard index of class sets.
    """
    out = {"streams": {}, "mean_jaccard": 0.0}
    class_sets = {}
    for stream in streams:
        # class presence is driven by the number of *tracks*, so a full
        # 12-hour window at a low frame rate measures it faithfully and
        # cheaply (the paper's Figure 3 is over 12-hour videos)
        table = generate_observations(stream, duration_s, fps)
        hist = table.class_histogram()
        counts = np.array(sorted(hist.values(), reverse=True), dtype=np.float64)
        cdf = np.cumsum(counts) / counts.sum()
        n95 = int(np.searchsorted(cdf, 0.95)) + 1
        class_sets[stream] = set(hist)
        out["streams"][stream] = {
            "num_classes": len(hist),
            "present_fraction": len(hist) / 1000.0,
            "cdf": cdf.tolist(),
            "classes_for_95pct": n95,
            "fraction_for_95pct": n95 / len(hist),
        }
    jaccards = []
    for a, b in itertools.combinations(streams, 2):
        sa, sb = class_sets[a], class_sets[b]
        jaccards.append(len(sa & sb) / len(sa | sb))
    out["mean_jaccard"] = float(np.mean(jaccards)) if jaccards else 0.0
    return out


def sec223_feature_nearest_neighbour(
    streams: Sequence[str] = SECTION22_STREAMS,
    duration_s: float = 60.0,
    max_objects: int = 3000,
) -> Dict[str, float]:
    """Section 2.2.3: fraction of nearest-neighbour pairs (by cheap-CNN
    feature vector) that share a class -- >99% in the paper."""
    model = resnet18()
    out = {}
    for stream in streams:
        table = generate_observations(stream, duration_s, EXPERIMENT_FPS)
        if len(table) > max_objects:
            # contiguous prefix: nearest neighbours are track-mates, as
            # in the paper's per-video analysis
            table = table.time_range(0.0, duration_s * max_objects / len(table))
        feats = model.features(table).astype(np.float64)
        # brute-force nearest neighbour (excluding self)
        d2 = (
            np.sum(feats ** 2, axis=1)[:, None]
            + np.sum(feats ** 2, axis=1)[None, :]
            - 2.0 * feats @ feats.T
        )
        np.fill_diagonal(d2, np.inf)
        nn = np.argmin(d2, axis=1)
        same = table.class_id[nn] == table.class_id
        out[stream] = float(same.mean())
    return out


# ---------------------------------------------------------------------------
# Figure 5: recall vs K for the generic cheap CNNs
# ---------------------------------------------------------------------------
def fig5_recall_vs_k(
    stream: str = "lausanne",
    ks: Sequence[int] = (10, 20, 60, 100, 200),
    duration_s: float = EXPERIMENT_DURATION_S,
) -> Dict:
    """Figure 5: recall@K of CheapCNN1/2/3 on one stream's objects."""
    table = generate_observations(stream, duration_s, EXPERIMENT_FPS)
    gt = resnet152()
    out = {"stream": stream, "ks": list(ks), "models": {}}
    for i in (1, 2, 3):
        model = cheap_cnn(i)
        ranks = model.ranks(table)
        out["models"][model.name] = {
            "cheaper_than_gt": model.cheaper_than(gt),
            "recall": [float((ranks <= k).mean()) for k in ks],
        }
    return out


# ---------------------------------------------------------------------------
# Figure 6: Pareto boundary of viable configurations
# ---------------------------------------------------------------------------
def fig6_parameter_selection(
    stream: str = "auburn_c",
    duration_s: float = EXPERIMENT_DURATION_S,
    target: AccuracyTarget = AccuracyTarget(),
) -> Dict:
    """Figure 6: viable configurations, Pareto boundary, chosen points."""
    table = generate_observations(stream, duration_s, EXPERIMENT_FPS)
    sample = table.scattered_sample(TunerSettings().max_sample_seconds)
    tuner = ParameterTuner(resnet152(), target)
    tuning = tuner.tune(sample, stream)
    viable = tuning.viable
    front = tuning.pareto
    chosen = {
        "balance": tuning.choose(Policy.BALANCE),
        "opt-ingest": tuning.choose(Policy.OPT_INGEST),
        "opt-query": tuning.choose(Policy.OPT_QUERY),
    }

    def _point(c):
        return {
            "model": c.config.model.name,
            "k": c.config.k,
            "t": c.config.cluster_threshold,
            "ingest_cost": c.ingest_cost_norm,
            "query_latency": c.query_latency_norm,
        }

    return {
        "stream": stream,
        "viable": [_point(c) for c in viable],
        "pareto": [_point(c) for c in front],
        "chosen": {name: _point(c) for name, c in chosen.items()},
    }


# ---------------------------------------------------------------------------
# Figure 7: end-to-end factors for all 13 streams
# ---------------------------------------------------------------------------
def fig7_end_to_end(
    streams: Sequence[str] = ALL_STREAMS,
    duration_s: float = EXPERIMENT_DURATION_S,
    target: AccuracyTarget = AccuracyTarget(),
) -> Dict:
    """Figure 7: ingest-cheaper-by and query-faster-by per stream."""
    rows = []
    for stream in streams:
        result = run_stream(stream, duration_s=duration_s, target=target)
        rows.append(
            {
                "stream": stream,
                "domain": get_profile(stream).domain,
                "ingest_cheaper_by": result.ingest_cheaper_by,
                "query_faster_by": result.query_faster_by,
                "precision": result.precision,
                "recall": result.recall,
                "config": result.config_description,
            }
        )
    return {
        "rows": rows,
        "avg_ingest_cheaper_by": float(np.mean([r["ingest_cheaper_by"] for r in rows])),
        "avg_query_faster_by": float(np.mean([r["query_faster_by"] for r in rows])),
    }


# ---------------------------------------------------------------------------
# Figure 8: component ablation ladder
# ---------------------------------------------------------------------------
def _ablation_settings(specialized: bool, clustering: bool) -> TunerSettings:
    base = TunerSettings()
    return TunerSettings(
        k_grid_generic=base.k_grid_generic,
        k_grid_specialized=base.k_grid_specialized,
        t_grid=base.t_grid if clustering else (0.0,),
        ls_values=base.ls_values if specialized else (),
        specialization_divisors=base.specialization_divisors,
        sample_fraction=base.sample_fraction,
        max_sample_seconds=base.max_sample_seconds,
        include_generic=True,
        max_candidates_per_model=base.max_candidates_per_model,
        dominant_coverage=base.dominant_coverage,
        accuracy_margin=base.accuracy_margin,
    )


def fig8_component_ablation(
    streams: Sequence[str] = REPRESENTATIVE_STREAMS,
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Figure 8: compressed model / +specialization / +clustering.

    Each step adds one Focus technique; all three verify with GT-CNN at
    query time and meet the same accuracy target (Section 6.3).
    """
    ladder = [
        ("compressed", _ablation_settings(specialized=False, clustering=False)),
        ("compressed+specialized", _ablation_settings(specialized=True, clustering=False)),
        ("compressed+specialized+clustering", _ablation_settings(specialized=True, clustering=True)),
    ]
    rows = []
    for stream in streams:
        for label, settings in ladder:
            result = run_stream(stream, duration_s=duration_s, settings=settings)
            rows.append(
                {
                    "stream": stream,
                    "design": label,
                    "ingest_cheaper_by": result.ingest_cheaper_by,
                    "query_faster_by": result.query_faster_by,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 10-11: accuracy-target sensitivity
# ---------------------------------------------------------------------------
def fig10_11_accuracy_sensitivity(
    streams: Sequence[str] = REPRESENTATIVE_STREAMS,
    targets: Sequence[float] = (0.95, 0.97, 0.98, 0.99),
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Figures 10 and 11: factors vs the accuracy target."""
    rows = []
    for stream in streams:
        for t in targets:
            target = AccuracyTarget(precision=t, recall=t)
            try:
                result = run_stream(stream, duration_s=duration_s, target=target)
            except RuntimeError:
                # no viable configuration at this target on this sample
                rows.append(
                    {
                        "stream": stream,
                        "target": t,
                        "ingest_cheaper_by": float("nan"),
                        "query_faster_by": float("nan"),
                    }
                )
                continue
            rows.append(
                {
                    "stream": stream,
                    "target": t,
                    "ingest_cheaper_by": result.ingest_cheaper_by,
                    "query_faster_by": result.query_faster_by,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 12-13: frame-rate sensitivity
# ---------------------------------------------------------------------------
def fig12_13_fps_sensitivity(
    streams: Sequence[str] = REPRESENTATIVE_STREAMS,
    fps_values: Sequence[float] = (30.0, 10.0, 5.0, 1.0),
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Figures 12 and 13: factors vs the frame sampling rate."""
    rows = []
    for stream in streams:
        # tune once at the native rate; lower rates reuse the same
        # pipeline, as a deployment applying frame sampling would
        base = run_stream(stream, duration_s=duration_s, fps=max(fps_values))
        for fps in fps_values:
            if fps == max(fps_values):
                result = base
            else:
                result = run_stream(
                    stream, duration_s=duration_s, fps=fps, config=base.config
                )
            rows.append(
                {
                    "stream": stream,
                    "fps": fps,
                    "ingest_cheaper_by": result.ingest_cheaper_by,
                    "query_faster_by": result.query_faster_by,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Section 6.7: extreme query rates
# ---------------------------------------------------------------------------
def sec67_query_rates(
    streams: Sequence[str] = REPRESENTATIVE_STREAMS,
    duration_s: float = EXPERIMENT_DURATION_S,
) -> List[Dict]:
    """Section 6.7: Focus under the two extreme query rates.

    * everything queried: Focus's total cost (cheap ingest + one GT-CNN
      pass per distinct cluster, cached across queries) vs Ingest-all.
    * almost nothing queried: all Focus techniques deferred to query
      time -- latency = cheap CNN over the interval + GT-CNN on matching
      centroids -- vs Query-all.
    """
    gt = resnet152()
    rows = []
    for stream in streams:
        result = run_stream(stream, duration_s=duration_s)
        n = result.num_observations
        ingest_all_cost = result.ingest_all_gpu_seconds
        gt_per_obj = ingest_all_cost / max(n, 1)

        # extreme 1: all classes / all videos queried
        focus_total = result.ingest_gpu_seconds + result.num_clusters * gt_per_obj
        all_queried_cheaper = ingest_all_cost / focus_total

        # extreme 2: Focus runs entirely at query time
        cheap_per_obj = result.ingest_gpu_seconds / max(
            n * (1 - result.suppression_ratio), 1
        )
        focus_query_only = (
            n * (1 - result.suppression_ratio) * cheap_per_obj
            + result.query_gpu_seconds_avg
        )
        query_only_faster = result.query_all_gpu_seconds_avg / focus_query_only

        rows.append(
            {
                "stream": stream,
                "all_queried_cheaper_than_ingest_all": all_queried_cheaper,
                "query_time_only_faster_than_query_all": query_only_faster,
            }
        )
    return rows
