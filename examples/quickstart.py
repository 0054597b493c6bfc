#!/usr/bin/env python
"""Quickstart: ingest one camera stream and query it for cars.

This is the 60-second tour of the Focus reproduction:

1. Build a FocusSystem with the default GT-CNN (ResNet152 simulator),
   95%/95% accuracy targets and the Balance policy.
2. Ingest five minutes of a busy traffic intersection.  Behind the
   scenes Focus samples the stream, labels the sample with the GT-CNN,
   tunes (cheap CNN, K, Ls, T), runs the cheap specialized CNN over
   every detected object, clusters similar objects, and builds the
   top-K index.
3. Query for "car": Focus looks up matching clusters, verifies only
   their centroids with the GT-CNN, and returns the frames.
4. Grade each answer offline against the GT labels (``grade``): the
   serving path returns frames and cost, never its own accuracy.

Run:  python examples/quickstart.py
"""

from repro import FocusSystem, grade

STREAM = "auburn_c"  # a commercial-area intersection (Table 1)


def main():
    system = FocusSystem()

    print("Ingesting 5 minutes of %s ..." % STREAM)
    handle = system.ingest_stream(STREAM, duration_s=300.0, fps=30.0)
    print("  chose configuration: %s" % handle.config.describe())
    print(
        "  %d objects -> %d clusters; ingest GPU time %.1f s"
        % (
            len(handle.table),
            handle.ingest.clusters.num_clusters,
            handle.ingest.ingest_gpu_seconds,
        )
    )

    from repro.video.classes import class_name

    top_classes = [class_name(c) for c in handle.table.dominant_classes()[:3]]
    for query_class in top_classes:
        answer = system.query(STREAM, query_class)
        accuracy = grade(answer, {STREAM: handle.table})
        print(
            "query %-10s -> %5d frames, %3d GT-CNN verifications, "
            "latency %.2f s on %d GPUs (precision %.2f, recall %.2f)"
            % (
                repr(query_class),
                len(answer.frames),
                answer.gt_inferences,
                answer.latency_seconds,
                system.cluster.num_gpus,
                accuracy.precision,
                accuracy.recall,
            )
        )

    print("\nGPU-time ledger (seconds by category):")
    for category, seconds in sorted(system.cost_summary().items()):
        print("  %-16s %8.2f" % (category, seconds))


if __name__ == "__main__":
    main()
