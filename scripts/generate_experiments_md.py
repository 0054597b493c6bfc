#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs the full experiment suite (sharing the runner cache) and writes
the comparison document.  Takes several minutes.

Run:  python scripts/generate_experiments_md.py
"""

import io
import sys

import numpy as np

from repro.eval import experiments as ex
from repro.eval import reporting


def main():
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs measured\n\n")
    w("Generated by `scripts/generate_experiments_md.py`.  Every table and\n")
    w("figure of the paper's evaluation is regenerated by a benchmark in\n")
    w("`benchmarks/` (240 s simulated windows per stream unless noted);\n")
    w("this file records the measured numbers next to the paper's.\n\n")
    w("**Reading guide.** Absolute factors depend on the simulated\n")
    w("substrate; what must (and does) hold is the *shape*: Focus beats\n")
    w("both baselines simultaneously by 1–2 orders of magnitude, the\n")
    w("trade-off policies span a real frontier, specialization dominates\n")
    w("ingest savings while clustering dominates query savings, and the\n")
    w("sensitivity trends match.\n\n")
    w("**Known deviations**, each with its cause:\n")
    w("* Ingest factors run high (~100–145× vs paper avg 58×): our\n")
    w("  specialized models bottom out at the calibrated cost floor that\n")
    w("  matches the paper's *Opt-Ingest* extreme (141×), and Balance\n")
    w("  often sits there because query cost dominates the sum.\n")
    w("* Class-presence fractions (Fig. 3) are ~0.7× the paper's and the\n")
    w("  mean Jaccard is 0.31 vs 0.46: the synthetic tail is thinner than\n")
    w("  real video's.  Ordering across stream types is preserved.\n\n")

    # Table 1 -------------------------------------------------------------
    print("Table 1 ...", file=sys.stderr)
    rows = ex.table1_dataset_characteristics()
    w("## Table 1 — dataset characteristics\n\n")
    w("Paper: thirteen 12-hour streams (6 traffic / 4 surveillance / 3 news);\n")
    w("one-third to one-half of frames contain no moving objects (§2.2.1).\n\n")
    w("```\n")
    w(reporting.format_table(
        rows,
        columns=("type", "name", "observations", "tracks",
                 "empty_frame_fraction", "present_classes", "dominant_classes"),
    ))
    w("\n```\n\n")

    # Figure 1 -------------------------------------------------------------
    print("Figure 1 ...", file=sys.stderr)
    f1 = ex.fig1_tradeoff_space("auburn_c")
    w("## Figure 1 — trade-off space (auburn_c)\n\n")
    w("| point | paper (I, Q) | measured (I, Q) |\n|---|---|---|\n")
    paper1 = {"focus-balance": "(86x, 56x)", "focus-opt-ingest": "(141x, 46x)",
              "focus-opt-query": "(26x, 63x)"}
    for name, paper in paper1.items():
        p = f1["points"][name]
        w("| %s | %s | (%.0fx, %.0fx) |\n" % (name, paper, p["I"], p["Q"]))
    w("\n")

    # Figure 3 -------------------------------------------------------------
    print("Figure 3 ...", file=sys.stderr)
    f3 = ex.fig3_class_cdf()
    w("## Figure 3 / §2.2.2 — class-frequency statistics (12 h windows)\n\n")
    w("| statistic | paper | measured |\n|---|---|---|\n")
    fr95 = [d["fraction_for_95pct"] for d in f3["streams"].values()]
    present = {s: d["present_fraction"] for s, d in f3["streams"].items()}
    w("| classes covering >=95%% of objects | 3-10%% | %.0f-%.0f%% |\n"
      % (100 * min(fr95), 100 * max(fr95)))
    w("| present classes, quiet streams | 22-33%% | %.0f-%.0f%% |\n"
      % (100 * min(present[s] for s in ("auburn_c", "jacksonh", "lausanne", "sittard")),
         100 * max(present[s] for s in ("auburn_c", "jacksonh", "lausanne", "sittard"))))
    w("| present classes, news streams | 50-69%% | %.0f-%.0f%% |\n"
      % (100 * min(present[s] for s in ("cnn", "msnbc")),
         100 * max(present[s] for s in ("cnn", "msnbc"))))
    w("| mean pairwise Jaccard of class sets | 0.46 | %.2f |\n\n" % f3["mean_jaccard"])

    # Section 2.2.3 --------------------------------------------------------
    print("Section 2.2.3 ...", file=sys.stderr)
    nn = ex.sec223_feature_nearest_neighbour(streams=("auburn_c", "jacksonh", "lausanne", "cnn", "msnbc"))
    w("## §2.2.3 — nearest-neighbour same-class fraction (ResNet18 features)\n\n")
    w("Paper: >99%% on every video.  Measured: %s.\n\n"
      % ", ".join("%s %.3f" % (s, v) for s, v in nn.items()))

    # Figure 5 -------------------------------------------------------------
    print("Figure 5 ...", file=sys.stderr)
    f5 = ex.fig5_recall_vs_k("lausanne")
    w("## Figure 5 — recall vs K (lausanne)\n\n")
    w("Paper anchors: CheapCNN1/2/3 are 7x/28x/58x cheaper than GT-CNN and\n")
    w("reach 90% recall at K >= 60 / 100 / 200.\n\n")
    w("| model | cheaper | " + " | ".join("K=%d" % k for k in f5["ks"]) + " |\n")
    w("|---|---|" + "---|" * len(f5["ks"]) + "\n")
    for name, d in f5["models"].items():
        w("| %s | %.0fx | " % (name, d["cheaper_than_gt"])
          + " | ".join("%.2f" % r for r in d["recall"]) + " |\n")
    w("\n")

    # Figure 6 -------------------------------------------------------------
    print("Figure 6 ...", file=sys.stderr)
    f6 = ex.fig6_parameter_selection("auburn_c")
    w("## Figure 6 — parameter selection (auburn_c)\n\n")
    w("%d viable configurations, %d on the Pareto boundary.  Chosen points:\n\n"
      % (len(f6["viable"]), len(f6["pareto"])))
    w("```\n")
    for name, p in f6["chosen"].items():
        w("%-11s %-46s ingest=%.4f query=%.4f\n"
          % (name, "%s K=%d T=%.2f" % (p["model"], p["k"], p["t"]),
             p["ingest_cost"], p["query_latency"]))
    w("```\n\n")

    # Figure 7 -------------------------------------------------------------
    print("Figure 7 ...", file=sys.stderr)
    f7 = ex.fig7_end_to_end()
    w("## Figure 7 — end-to-end factors, all 13 streams (Balance)\n\n")
    w("Paper: ingest avg 58x (44-98x); query avg 37x (11-57x); >=95%\n")
    w("precision and recall everywhere.\n\n```\n")
    w(reporting.format_table(
        f7["rows"],
        columns=("stream", "domain", "ingest_cheaper_by", "query_faster_by",
                 "precision", "recall", "config"),
    ))
    w("\n```\n\nMeasured averages: ingest %.0fx, query %.0fx.\n\n"
      % (f7["avg_ingest_cheaper_by"], f7["avg_query_faster_by"]))

    # Figure 8 -------------------------------------------------------------
    print("Figure 8 ...", file=sys.stderr)
    f8 = ex.fig8_component_ablation(
        streams=("auburn_c", "city_a_r", "jacksonh", "lausanne", "cnn", "msnbc"),
        duration_s=180.0,
    )
    w("## Figure 8 — component ablation (6-stream sample, 180 s)\n\n")
    by_design = {}
    for r in f8:
        by_design.setdefault(r["design"], []).append(r)
    w("| design point | ingest avg | query avg | paper shape |\n|---|---|---|---|\n")
    notes = {
        "compressed": "helps, not the main source",
        "compressed+specialized": "large ingest gain (spec ~10x cheaper)",
        "compressed+specialized+clustering": "large query gain (up to 56x), free ingest",
    }
    for design, rows_ in by_design.items():
        w("| %s | %.0fx | %.0fx | %s |\n"
          % (design, np.mean([r["ingest_cheaper_by"] for r in rows_]),
             np.mean([r["query_faster_by"] for r in rows_]), notes[design]))
    w("\n")

    # Figure 9 -------------------------------------------------------------
    print("Figure 9 ...", file=sys.stderr)
    f9 = ex.fig9_policy_tradeoffs()
    w("## Figure 9 — Opt-Ingest / Opt-Query per stream\n\n")
    w("Paper: avg Opt-Ingest = (95x, 35x); avg Opt-Query = (15x, 49x).\n\n```\n")
    by_stream = {}
    for r in f9:
        by_stream.setdefault(r["stream"], {})[r["policy"]] = r
    for stream, p in by_stream.items():
        oi, oq = p["opt-ingest"], p["opt-query"]
        w("%-10s Opt-I (I=%4.0fx, Q=%4.0fx)   Opt-Q (I=%4.0fx, Q=%4.0fx)\n"
          % (stream, oi["ingest_cheaper_by"], oi["query_faster_by"],
             oq["ingest_cheaper_by"], oq["query_faster_by"]))
    oi_avg = np.mean([p["opt-ingest"]["ingest_cheaper_by"] for p in by_stream.values()])
    oq_avg = np.mean([p["opt-query"]["query_faster_by"] for p in by_stream.values()])
    w("averages: Opt-I ingest %.0fx, Opt-Q query %.0fx\n```\n\n" % (oi_avg, oq_avg))

    # Figures 10-11 -----------------------------------------------------------
    print("Figures 10-11 ...", file=sys.stderr)
    f10 = ex.fig10_11_accuracy_sensitivity(
        streams=("auburn_c", "jacksonh", "lausanne", "cnn"), targets=(0.95, 0.97, 0.99)
    )
    w("## Figures 10-11 — accuracy-target sensitivity (4-stream sample)\n\n")
    w("Paper: ingest factor roughly flat (62-64x); query factor degrades\n")
    w("(37x -> 15x / 12x / 8x at 97/98/99%).\n\n")
    w("| target | ingest avg | query avg | streams viable |\n|---|---|---|---|\n")
    by_target = {}
    for r in f10:
        by_target.setdefault(r["target"], []).append(r)
    for t, rows_ in sorted(by_target.items()):
        ok = [r for r in rows_ if r["ingest_cheaper_by"] == r["ingest_cheaper_by"]]
        if ok:
            w("| %.2f | %.0fx | %.0fx | %d/%d |\n"
              % (t, np.mean([r["ingest_cheaper_by"] for r in ok]),
                 np.mean([r["query_faster_by"] for r in ok]), len(ok), len(rows_)))
        else:
            w("| %.2f | - | - | 0/%d |\n" % (t, len(rows_)))
    w("\n")

    # Figures 12-13 -----------------------------------------------------------
    print("Figures 12-13 ...", file=sys.stderr)
    f12 = ex.fig12_13_fps_sensitivity(
        streams=("auburn_c", "jacksonh", "lausanne", "cnn"), fps_values=(30.0, 10.0, 1.0)
    )
    w("## Figures 12-13 — frame-rate sensitivity (4-stream sample)\n\n")
    w("Paper: ingest factor roughly flat across 30-1 fps; query factor\n")
    w("degrades at low fps but stays ~an order of magnitude at 1 fps.\n\n")
    w("| fps | ingest avg | query avg |\n|---|---|---|\n")
    by_fps = {}
    for r in f12:
        by_fps.setdefault(r["fps"], []).append(r)
    for fps, rows_ in sorted(by_fps.items(), reverse=True):
        w("| %.0f | %.0fx | %.0fx |\n"
          % (fps, np.mean([r["ingest_cheaper_by"] for r in rows_]),
             np.mean([r["query_faster_by"] for r in rows_])))
    w("\n")

    # Section 6.7 --------------------------------------------------------------
    print("Section 6.7 ...", file=sys.stderr)
    f67 = ex.sec67_query_rates(streams=("auburn_c", "jacksonh", "lausanne", "cnn", "msnbc"))
    w("## §6.7 — extreme query rates (5-stream sample)\n\n")
    w("| scenario | paper | measured avg |\n|---|---|---|\n")
    w("| everything queried: Focus total vs Ingest-all | 4x (up to 6x) | %.1fx |\n"
      % np.mean([r["all_queried_cheaper_than_ingest_all"] for r in f67]))
    w("| query-time-only Focus vs Query-all | 22x (up to 34x) | %.1fx |\n\n"
      % np.mean([r["query_time_only_faster_than_query_all"] for r in f67]))

    with open("EXPERIMENTS.md", "w") as f:
        f.write(out.getvalue())
    print("wrote EXPERIMENTS.md", file=sys.stderr)


if __name__ == "__main__":
    main()
