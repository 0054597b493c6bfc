#!/usr/bin/env python
"""Surveillance review: rare-class (OTHER bucket) queries and persistence.

Surveillance deployments ingest many streams that are almost never
queried, and when they are, the query is often for an *unusual* object
-- precisely the classes a per-stream specialized model folds into its
OTHER bucket (Section 4.3).  This example:

* ingests two surveillance streams,
* queries a rare class, which routes through the OTHER bucket: Focus
  fetches all OTHER-matching clusters and lets the GT-CNN pick out the
  queried class,
* persists the top-K indexes to the embedded document store (the
  MongoDB stand-in of Section 5) and reloads them, demonstrating that
  queries survive a restart.

Run:  python examples/surveillance_review.py
"""

import numpy as np

from repro import FocusSystem, Policy, grade
from repro.core.index import TopKIndex
from repro.storage.docstore import DocumentStore
from repro.video.classes import class_name

STREAMS = ("lausanne", "sittard")


def main():
    system = FocusSystem(policy=Policy.OPT_INGEST)
    for stream in STREAMS:
        print("Ingesting %s ..." % stream)
        handle = system.ingest_stream(stream, duration_s=300.0, fps=30.0)
        print("  configuration: %s" % handle.config.describe())

    # pick a genuinely rare class: present in the video but outside the
    # specialized model's head (quiet windows may have no tail at all)
    rare_stream, rare_class = None, None
    for stream in STREAMS:
        handle = system.handle(stream)
        model = handle.config.model
        histogram = handle.table.class_histogram()
        rare = [
            c for c in sorted(histogram, key=histogram.get)
            if not (hasattr(model, "head_set") and c in model.head_set)
        ]
        if rare:
            rare_stream, rare_class = stream, rare[-1]  # most frequent tail class
            break
    if rare_stream is None:
        # every observed class is in some head; fall back to a head class
        rare_stream = STREAMS[0]
        rare_class = int(system.handle(rare_stream).table.dominant_classes()[-1])
    histogram = system.handle(rare_stream).table.class_histogram()
    print(
        "\nRare-class query on %s: %r (%d objects in the video)"
        % (rare_stream, class_name(rare_class), histogram[rare_class])
    )
    answer = system.query(rare_stream, rare_class)
    accuracy = grade(answer, {rare_stream: system.handle(rare_stream).table})
    print(
        "  routed via OTHER bucket -> %d candidate clusters verified, "
        "%d frames returned (precision %.2f, recall %.2f)"
        % (
            answer.gt_inferences,
            len(answer.frames),
            accuracy.precision,
            accuracy.recall,
        )
    )

    print("\nPersisting indexes to the document store ...")
    store = DocumentStore()
    system.save_indexes(store)
    path = "/tmp/focus_indexes.json"
    store.save(path)
    print("  wrote %s (collections: %s)" % (path, ", ".join(store.collection_names())))

    reloaded = DocumentStore.load(path)
    index = TopKIndex.from_docstore(reloaded, "lausanne")
    print(
        "  reloaded lausanne index: %d clusters, %d index entries, K=%d"
        % (index.num_clusters, index.num_entries, index.k)
    )
    token = index.classes()[0]
    print(
        "  spot-check lookup for token %d -> %d clusters"
        % (token, len(index.lookup(token)))
    )


if __name__ == "__main__":
    main()
