#!/usr/bin/env python
"""Live ingest: query a camera while it is still being ingested.

Focus targets live deployments (Sections 3, 6.3): ingest runs
continuously on each feed and queries arrive at any time.  This example
plays one camera's day back as a stream of 30-second chunks:

1. Opens a durable live session with ``FocusSystem.open_stream`` (tuned
   on a short recorded warmup window, the way a real deployment samples
   a fresh camera), write-ahead journaling every chunk into a document
   store.
2. A "camera loop" appends each chunk with ``FocusSystem.append``; the
   incremental clusterer and the top-K index absorb the delta in place,
   and the chunk's ingest-CNN batches land on the same GPU work queues
   query verification uses.
3. After every chunk a "query thread" polls ``query`` / ``query_all``
   at the current watermark -- answers cover everything ingested so
   far, and cached centroid verdicts keep serving because cluster
   growth never moves a centroid.
4. Each chunk ends with a durable checkpoint: only the rows ingested
   since the last one are written, beside the clusterer's state, and a
   cold ``FocusSystem.recover`` resumes the session at its watermark,
   deriving the index from those rows.

Run:  python examples/live_ingest.py
"""

from repro import DocumentStore, FocusSystem, generate_observations, grade

CAMERA = "auburn_c"
DAY_SECONDS = 300.0
CHUNK_SECONDS = 30.0
FPS = 30.0


def main():
    # the full "day" of video; the camera loop below replays it in
    # 30-second chunks, the way frames would arrive from a live feed
    feed = generate_observations(CAMERA, DAY_SECONDS, FPS)

    system = FocusSystem()
    store = DocumentStore()
    warmup = feed.scattered_sample(30.0)
    handle = system.open_stream(CAMERA, fps=FPS, tune_on=warmup, wal_store=store)
    print(
        "Opened live session on %s (tuned on a %d-observation warmup sample)"
        % (CAMERA, len(warmup))
    )

    t = 0.0
    while t < DAY_SECONDS:
        end = min(t + CHUNK_SECONDS, DAY_SECONDS)
        chunk = feed.time_range(t, end)
        report = system.append(CAMERA, chunk, watermark_s=end)

        # mid-ingest query at the current watermark
        answer = system.query(CAMERA, "car")
        accuracy = grade(answer, {CAMERA: handle.table})  # offline evaluator
        fan = system.query_all("car")
        system.checkpoint(store)
        print(
            "  t=%5.0fs  +%4d obs (%4.0f%% pixel-diff) | clusters +%d new "
            "/ %d grown | 'car': %4d frames (P=%.2f R=%.2f) | "
            "cache hits %d" % (
                report.watermark_s,
                report.chunk_rows,
                100.0 * report.suppression_ratio,
                len(report.new_clusters),
                len(report.grown_clusters),
                len(answer.frames),
                accuracy.precision,
                accuracy.recall,
                fan.cache_hits,
            )
        )
        t = end

    print(
        "\nSession totals: %d observations, %d clusters, %d ingest-CNN "
        "inferences (%.1f GPU-s)" % (
            handle.ingestor.num_rows,
            handle.index.num_clusters,
            handle.ingestor.cnn_inferences,
            handle.ingestor.ingest_gpu_seconds,
        )
    )
    print("Verdict cache: %s" % system.service.cache_stats())

    # cold-start another service from the durable checkpoints; the tuned
    # model is specialized (not in the zoo), so its config is passed in
    resumed = FocusSystem()
    resumed.recover(store, configs={CAMERA: handle.config})
    answer = resumed.query(CAMERA, "car")
    print(
        "Resumed from checkpoint store: %d 'car' frames at watermark "
        "%.0f s" % (len(answer.frames), resumed.handle(CAMERA).table.duration_s)
    )


if __name__ == "__main__":
    main()
