"""Command-line interface for the Egeria framework.

Subcommands:

* ``egeria build GUIDE.html -o summary.html`` — synthesize an advisor
  from an HTML/Markdown guide and write the advising summary page;
* ``egeria query GUIDE.html "how to ..."`` — one-shot question
  answering against a guide;
* ``egeria report GUIDE.html REPORT.txt`` — answer an NVVP-style
  profiler report;
* ``egeria demo [cuda|opencl|xeon]`` — build an advisor from one of
  the bundled corpora and answer a sample query;
* ``egeria snapshots [list|verify|gc] DIR`` — inspect, verify, or
  garbage-collect a versioned snapshot store.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.egeria import Egeria
from repro.core.keywords import KeywordConfig
from repro.core.render import render_answer, render_summary
from repro.docs.document import Document
from repro.docs.html_loader import HTMLDocumentLoader
from repro.docs.markdown_loader import MarkdownDocumentLoader


def _load_document(path: str) -> Document:
    if path.endswith((".html", ".htm")):
        return HTMLDocumentLoader().load_file(path)
    if path.endswith((".md", ".markdown")):
        return MarkdownDocumentLoader().load_file(path)
    with open(path, encoding="utf-8") as handle:
        return Document.from_text(handle.read(), title=path)


def _load_config(args: argparse.Namespace):
    from repro.core.config import EgeriaConfig

    if getattr(args, "config", None):
        return EgeriaConfig.load(args.config)
    return EgeriaConfig()


def _resolve_workers(args: argparse.Namespace) -> int:
    if getattr(args, "workers", None):
        return args.workers
    return _load_config(args).workers


def _resolve_resilience(args: argparse.Namespace) -> dict:
    """The degrade/max_retries knobs: CLI flag beats config file."""
    config = _load_config(args)
    degrade = getattr(args, "degrade", None)
    max_retries = getattr(args, "max_retries", None)
    return {
        "degrade": config.degrade if degrade is None else degrade,
        "max_retries": (config.max_retries if max_retries is None
                        else max_retries),
    }


def _resolve_annotations(args: argparse.Namespace) -> dict:
    """The annotation-store knobs: CLI flag beats config file."""
    config = _load_config(args)
    if getattr(args, "no_annotations_cache", False):
        return {"use_annotations_store": False}
    cache_dir = getattr(args, "annotations_cache", None)
    return {"annotations_cache": cache_dir or config.annotations_cache}


def _resolve_segments(args: argparse.Namespace) -> dict:
    """The segmented-index knobs: CLI flag beats config file."""
    config = _load_config(args)
    target = getattr(args, "segment_target_size", None)
    ratio = getattr(args, "compaction_ratio", None)
    auto = (False if getattr(args, "no_compaction", False)
            else config.compaction)
    return {
        "segment_target_size": target or config.segment_target_size,
        "compaction_ratio": ratio or config.compaction_ratio,
        "auto_compaction": auto,
    }


def _resolve_prefilter(args: argparse.Namespace) -> dict:
    """The Stage I pre-filter knobs: CLI flag beats config file.

    Returns ``{"prefilter": AdvicePrefilter}`` when a trained model is
    configured and enabled, ``{}`` otherwise (the pure cascade).
    """
    config = _load_config(args)
    enabled = config.prefilter
    flag = getattr(args, "prefilter", None)
    if flag is not None:
        enabled = flag
    path = (getattr(args, "prefilter_model", None)
            or config.prefilter_model)
    if not enabled or not path:
        return {}
    from repro.stage1.model import AdvicePrefilter

    model = AdvicePrefilter.load(path)
    slack = getattr(args, "prefilter_slack", None)
    if slack is None:
        slack = config.prefilter_margin_slack
    if slack:
        model.margin_slack = float(slack)
    return {"prefilter": model}


def _build_egeria(args: argparse.Namespace,
                  threshold: float | None = None,
                  keywords=None) -> Egeria:
    config = _load_config(args)
    return Egeria(
        keywords=keywords if keywords is not None else _load_keywords(args),
        threshold=threshold if threshold is not None else config.threshold,
        workers=_resolve_workers(args),
        worker_min_sentences=config.worker_min_sentences,
        worker_chunk_size=config.worker_chunk_size,
        **_resolve_resilience(args),
        **_resolve_annotations(args),
        **_resolve_segments(args),
        **_resolve_prefilter(args),
    )


def _build_or_load_advisor(args: argparse.Namespace,
                           threshold: float | None = None):
    """Build an advisor from a guide file, or load a saved .json one."""
    if args.guide.endswith(".json"):
        from repro.core.persistence import load_advisor

        return load_advisor(args.guide)
    document = _load_document(args.guide)
    return _build_egeria(args, threshold=threshold).build_advisor(document)


def _load_keywords(args: argparse.Namespace) -> KeywordConfig:
    config = _load_config(args).keyword_config()
    if getattr(args, "extra_keywords", None):
        config = config.extend(
            flagging_words=tuple(args.extra_keywords))
    return config


def _print_answer(answer) -> None:
    print(f"Q: {answer.query}")
    print(f"   {answer.message}")
    for rec in answer.recommendations:
        section = rec.sentence.section_path or "(doc)"
        print(f"   ({rec.score:.2f}) [{section}] {rec.sentence.text}")


def cmd_build(args: argparse.Namespace) -> int:
    document = _load_document(args.guide)
    advisor = _build_egeria(args).build_advisor(document)
    stats = advisor.selection_stats()
    print(f"{document.title}: {stats['document_sentences']:.0f} sentences, "
          f"{stats['advising_sentences']:.0f} advising "
          f"(ratio {stats['ratio']:.1f})")
    if advisor.degradation_events or advisor.quarantined:
        print(f"degraded build: {len(advisor.degradation_events)} events, "
              f"{len(advisor.quarantined)} quarantined sentences")
    if args.save:
        from repro.core.persistence import save_advisor

        save_advisor(advisor, args.save)
        print(f"advisor saved to {args.save} (+ .bin sidecar)")
    if args.save_snapshot:
        from repro.core.snapshots import SnapshotStore

        info = SnapshotStore(args.save_snapshot).save(advisor)
        print(f"snapshot {info.version} committed to {args.save_snapshot} "
              f"({info.payload_bytes} bytes)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_summary(advisor))
        print(f"summary written to {args.output}")
    else:
        for heading, sentences in advisor.summary_by_section():
            print(f"\n[{heading}]")
            for sentence in sentences:
                print(f"  - {sentence.text}")
    return 0


def cmd_train_prefilter(args: argparse.Namespace) -> int:
    """Distill + calibrate a Stage I pre-filter from a guide.

    Bundled corpus names (``cuda``/``opencl``/``xeon``/``mpi``) train
    against the generated guide *with* its generation labels; a guide
    file trains against the selector cascade's own decisions
    (self-distillation).  Refuses to save a model whose calibrated
    recall is not exactly 1.0.
    """
    import json as _json

    from repro.stage1.model import train_prefilter_for_document

    labels = None
    if args.guide in ("cuda", "opencl", "xeon", "mpi"):
        from repro.corpus import guides as corpus_guides

        guide = getattr(corpus_guides, f"{args.guide}_guide")()
        document, labels = guide.document, guide.labels()
    else:
        document = _load_document(args.guide)
    keywords = _load_keywords(args)
    prefilter, calibration, eval_report = train_prefilter_for_document(
        document, keywords=keywords, labels=labels,
        iterations=args.iterations, seed=args.seed,
        margin_slack=args.slack)
    print(f"{document.title}: calibrated on {calibration.sentences} "
          f"sentences ({calibration.positives} positive) — "
          f"tau={calibration.tau:.4f}, "
          f"{calibration.defer_tokens} evidence tokens, "
          f"skip rate {calibration.skip_rate:.1%}, "
          f"recall {calibration.recall:.3f}")
    if eval_report.recall_vs_labels < 1.0 \
            or eval_report.recall_vs_cascade < 1.0:
        print("train-prefilter: calibrated recall below 1.0 "
              f"(labels={eval_report.recall_vs_labels:.4f}, "
              f"cascade={eval_report.recall_vs_cascade:.4f}); "
              "refusing to save", file=sys.stderr)
        return 1
    prefilter.save(args.output)
    print(f"model saved to {args.output} "
          f"(checksum {prefilter.checksum[:12]}…)")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            _json.dump({"calibration": calibration.to_dict(),
                        "eval": eval_report.to_dict()},
                       handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"calibration/eval report written to {args.report}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    advisor = _build_or_load_advisor(args, threshold=args.threshold)
    answer = advisor.query(args.question, limit=args.limit)
    _print_answer(answer)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_answer(advisor, answer, limit=args.limit))
        print(f"answer page written to {args.output}")
    return 0 if answer.found else 1


def cmd_report(args: argparse.Namespace) -> int:
    advisor = _build_or_load_advisor(args, threshold=args.threshold)
    if args.report.endswith(".pdf"):
        with open(args.report, "rb") as handle:
            answers = advisor.query_report_pdf(handle.read())
    else:
        with open(args.report, encoding="utf-8") as handle:
            answers = advisor.query_report(handle.read())
    if not answers:
        print("no performance issues found in the report")
        return 1
    for answer in answers:
        _print_answer(answer)
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.web.server import run

    config = _load_config(args)
    snapshots_dir = args.snapshots or config.snapshots
    store = None
    if snapshots_dir:
        from repro.core.snapshots import SnapshotStore

        store = SnapshotStore(snapshots_dir, keep=config.snapshot_keep)
    workers = args.serve_workers or config.workers
    if workers > 1 and not hasattr(os, "fork"):
        print("serve: prefork needs os.fork(); serving threaded instead",
              file=sys.stderr)
        workers = 1
    deadline_ms = args.deadline_ms or config.deadline_ms
    host = args.host or config.host
    # an explicit --port 0 means "pick a free port" — `or` would
    # silently fall back to the configured port
    port = config.port if args.port is None else args.port
    if workers > 1:
        # prefork: the master never loads an index — workers map the
        # shared snapshot, so a populated store is the one requirement
        from repro.web.prefork import run_prefork

        if store is None:
            print("serve: --workers needs --snapshots DIR (workers "
                  "load the shared snapshot)", file=sys.stderr)
            return 2
        name = None
        if args.guide is not None:
            # commit the guide as the snapshot the workers will map —
            # serving an older version than what was asked for on the
            # command line would be a silent surprise
            advisor = _build_or_load_advisor(args)
            info = store.save(advisor)
            name = advisor.name
            print(f"snapshot {info.version} committed to "
                  f"{snapshots_dir}")
        elif not store.versions():
            print(f"serve: snapshot store {snapshots_dir} is empty; "
                  "provide a guide file or run 'build --save-snapshot'",
                  file=sys.stderr)
            return 2
        return run_prefork(
            store,
            host=host,
            port=port,
            workers=workers,
            name=name,
            max_body_bytes=config.max_body_bytes,
            request_deadline_s=deadline_ms / 1000.0,
            max_in_flight=args.max_in_flight or config.max_in_flight,
            drain_timeout_s=config.drain_timeout_ms / 1000.0)
    if args.guide is None:
        if store is None:
            print("serve: provide a guide file or --snapshots DIR",
                  file=sys.stderr)
            return 2
        advisor = store.load()
        report = store.last_report
        print(f"loaded snapshot {report.version}"
              + (" (recovered from corruption)" if report.recovered
                 else ""))
    else:
        advisor = _build_or_load_advisor(args)
        if store is not None and not store.versions():
            # seed the store so /api/reload and SIGHUP work from the
            # first request on
            store.save(advisor)
    run(advisor,
        host=host,
        port=port,
        max_body_bytes=config.max_body_bytes,
        request_deadline_s=deadline_ms / 1000.0,
        threads=not args.single_thread,
        max_in_flight=args.max_in_flight or config.max_in_flight,
        snapshot_store=store,
        drain_timeout_s=config.drain_timeout_ms / 1000.0)
    return 0


def cmd_snapshots(args: argparse.Namespace) -> int:
    from repro.core.snapshots import SnapshotStore

    store = SnapshotStore(args.root)
    if args.action == "gc":
        removed = store.gc(keep=args.keep)
        if removed:
            print("removed " + ", ".join(f"snapshot-{v}" for v in removed))
        else:
            print("nothing to remove")
        return 0
    versions = store.versions()
    if not versions:
        print(f"{args.root}: empty store")
        return 1
    if args.action == "list":
        current = store.current_version()
        for version in versions:
            marker = "*" if version == current else " "
            print(f"{marker} snapshot-{version}")
        return 0
    failures = 0
    for version in versions:
        report = store.verify_report(version)
        ok = all(entry["ok"] for entry in report)
        print(f"snapshot-{version}: {'ok' if ok else 'CORRUPT'}")
        for entry in report:
            if entry["ok"]:
                continue
            print(f"  {entry['name']}: expected {entry['expected']}, "
                  f"actual {entry['actual']}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.corpus import GUIDE_BUILDERS

    guide = GUIDE_BUILDERS[args.corpus]()
    advisor = _build_egeria(args, keywords=KeywordConfig()).build_advisor(
        guide.document)
    stats = advisor.selection_stats()
    print(f"{guide.spec.name}: {stats['document_sentences']:.0f} sentences, "
          f"{stats['advising_sentences']:.0f} advising "
          f"(ratio {stats['ratio']:.1f})")
    question = args.question or "how to improve memory throughput"
    _print_answer(advisor.query(question))
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    """Interactive QA loop — the paper's 'question-answer agent that
    interactively offers suggestions' (§1)."""
    advisor = _build_or_load_advisor(args)
    print(f"{advisor.name}: {len(advisor.advising_sentences)} advising "
          f"sentences loaded. Type a question, or 'quit'.")
    while True:
        try:
            line = input("egeria> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line.lower() in ("quit", "exit", "q"):
            break
        _print_answer(advisor.query(line))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentRegistry

    if args.name == "list":
        for name, (_, description) in ExperimentRegistry.items():
            print(f"{name:8s} {description}")
        return 0
    try:
        runner, description = ExperimentRegistry[args.name]
    except KeyError:
        print(f"unknown experiment {args.name!r}; try 'list'")
        return 1
    print(f"# {args.name}: {description}")
    result = runner()
    _print_experiment(args.name, result)
    return 0


def _print_experiment(name: str, result) -> None:
    if name == "table5":
        print(f"{'group/device':18s} {'average':>8s} {'median':>8s}")
        for key, stats in result.items():
            print(f"{key:18s} {stats['average']:7.2f}x "
                  f"{stats['median']:7.2f}x")
    elif name == "table6":
        print(f"{'issue':46s} {'#GT':>3s}  {'Egeria P/R/F':20s} "
              f"{'Full-doc P/R/F':20s} {'Keywords P/R/F':20s}")
        for row in result:
            def fmt(t):
                return "/".join(f"{v:.2f}" for v in t)
            print(f"{row['issue'][:46]:46s} {row['ground_truth']:3d}  "
                  f"{fmt(row['egeria']):20s} {fmt(row['fulldoc']):20s} "
                  f"{fmt(row['keywords']):20s}")
    elif name == "table7":
        print(f"{'guide':36s} {'sentences (pages)':>18s} "
              f"{'selected':>8s} {'ratio':>6s}")
        for row in result:
            print(f"{row['guide']:36s} "
                  f"{row['sentences']:>11d} ({row['pages']:>3d}) "
                  f"{row['selected']:8d} {row['ratio']:6.1f}")
    elif name == "table8":
        for guide, methods in result.items():
            print(f"\n[{guide}]")
            print(f"{'method':12s} {'sel':>4s} {'corr':>4s} "
                  f"{'P':>6s} {'R':>6s} {'F':>6s}")
            for method, scores in methods.items():
                print(f"{method:12s} {scores['selected']:4d} "
                      f"{scores['correct']:4d} {scores['p']:6.3f} "
                      f"{scores['r']:6.3f} {scores['f']:6.3f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egeria",
        description="Synthesize and query HPC advising tools (SC'17 "
                    "Egeria reproduction).")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for Stage I")
    parser.add_argument("--config", default=None,
                        help="JSON configuration file (host/port/workers/"
                             "threshold/keyword extensions/resilience)")
    parser.add_argument("--fault-plan", default=None,
                        help="JSON fault-plan file; activates chaos-mode "
                             "fault injection for the whole command")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="per-batch worker re-dispatch attempts in "
                             "Stage I (default from config: 2)")
    parser.add_argument("--deadline-ms", type=int, default=None,
                        help="per-request time budget for 'serve' "
                             "(default from config: 10000)")
    parser.add_argument("--degrade", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="enable the NLP degradation ladder "
                             "(--no-degrade = fail fast)")
    parser.add_argument("--annotations-cache", default=None, metavar="DIR",
                        help="persist sentence annotations to DIR so "
                             "rebuilds of overlapping documents skip "
                             "their NLP layers")
    parser.add_argument("--no-annotations-cache", action="store_true",
                        help="disable annotation reuse entirely "
                             "(every build re-runs all NLP layers)")
    parser.add_argument("--segment-target-size", type=int, default=None,
                        help="target rows per freshly sealed index "
                             "segment (default from config: 256)")
    parser.add_argument("--compaction-ratio", type=int, default=None,
                        help="adjacent same-tier segments merged per "
                             "compaction step (default from config: 4)")
    parser.add_argument("--no-compaction", action="store_true",
                        help="disable background segment compaction "
                             "after extend()")
    parser.add_argument("--prefilter", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="enable the learned Stage I pre-filter "
                             "(needs --prefilter-model or the "
                             "prefilter_model config key; "
                             "--no-prefilter forces the pure cascade)")
    parser.add_argument("--prefilter-model", default=None, metavar="FILE",
                        help="trained pre-filter artifact "
                             "(train-prefilter output)")
    parser.add_argument("--prefilter-slack", type=float, default=None,
                        metavar="MARGIN",
                        help="extra conservatism subtracted from the "
                             "calibrated skip threshold (normalized-"
                             "margin units; default 0.0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an advisor; print or "
                             "write the advising summary")
    p_build.add_argument("guide", help="guide file (.html/.md/.txt)")
    p_build.add_argument("-o", "--output", help="write summary HTML here")
    p_build.add_argument("--save", metavar="FILE.json",
                         help="persist the advisor: a JSON header plus "
                              "its .bin index sidecar next to it")
    p_build.add_argument("--save-snapshot", metavar="DIR",
                         help="commit the advisor to a versioned "
                              "snapshot store (crash-safe)")
    p_build.add_argument("--extra-keywords", nargs="*",
                         help="extra flagging keywords/phrases")
    p_build.set_defaults(func=cmd_build)

    p_train = sub.add_parser(
        "train-prefilter",
        help="distill + calibrate a recall-safe Stage I pre-filter")
    p_train.add_argument("guide",
                         help="guide file, or a bundled corpus name "
                              "(cuda/opencl/xeon/mpi — trains with "
                              "generation labels)")
    p_train.add_argument("-o", "--output", required=True,
                         help="write the trained model artifact here")
    p_train.add_argument("--report", default=None, metavar="FILE",
                         help="write the calibration + eval report "
                              "JSON here")
    p_train.add_argument("--iterations", type=int, default=10,
                         help="perceptron training epochs (default 10)")
    p_train.add_argument("--seed", type=int, default=1,
                         help="training shuffle seed (default 1)")
    p_train.add_argument("--slack", type=float, default=0.0,
                         help="margin slack baked into the saved model "
                              "(default 0.0)")
    p_train.add_argument("--extra-keywords", nargs="*")
    p_train.set_defaults(func=cmd_train_prefilter)

    p_query = sub.add_parser("query", help="ask a guide a question")
    p_query.add_argument("guide")
    p_query.add_argument("question")
    p_query.add_argument("-o", "--output", help="write answer HTML here")
    p_query.add_argument("--threshold", type=float, default=None)
    p_query.add_argument("--limit", type=int, default=None,
                         help="return only the top-k recommendations "
                              "(partial selection, not a full sort)")
    p_query.add_argument("--extra-keywords", nargs="*")
    p_query.set_defaults(func=cmd_query)

    p_report = sub.add_parser("report", help="answer an NVVP-style report")
    p_report.add_argument("guide")
    p_report.add_argument("report", help="profiler report text file")
    p_report.add_argument("--threshold", type=float, default=None)
    p_report.add_argument("--extra-keywords", nargs="*")
    p_report.set_defaults(func=cmd_report)

    p_serve = sub.add_parser("serve", help="serve an advisor as a website")
    p_serve.add_argument("guide", nargs="?", default=None,
                         help="guide file or saved advisor .json; may be "
                              "omitted when --snapshots points at a "
                              "populated store")
    p_serve.add_argument("--host", default=None)
    p_serve.add_argument("--port", type=int, default=None)
    p_serve.add_argument("--extra-keywords", nargs="*")
    p_serve.add_argument("--single-thread", action="store_true",
                         help="serve requests serially (default: "
                              "reused handler threads)")
    p_serve.add_argument("--snapshots", default=None, metavar="DIR",
                         help="versioned snapshot store backing "
                              "POST /api/reload, SIGHUP hot reload, and "
                              "the SIGTERM final snapshot")
    p_serve.add_argument("--max-in-flight", type=int, default=None,
                         help="admission-control cap on concurrent "
                              "requests (default from config: 64)")
    # dest avoids clobbering the root parser's Stage-I --workers:
    # argparse writes subparser defaults over parent values sharing
    # a dest, so "serve" would always reset args.workers to None
    p_serve.add_argument("--workers", type=int, default=None,
                         dest="serve_workers", metavar="N",
                         help="serve with N prefork worker processes "
                              "mapping the shared snapshot (requires "
                              "--snapshots; default from config: 1)")
    p_serve.set_defaults(func=cmd_serve)

    p_snap = sub.add_parser(
        "snapshots", help="inspect a versioned snapshot store")
    p_snap.add_argument("action", choices=("list", "verify", "gc"),
                        help="list versions, verify checksums, or "
                             "garbage-collect old versions")
    p_snap.add_argument("root", help="snapshot store directory")
    p_snap.add_argument("--keep", type=int, default=None,
                        help="versions retained by 'gc' (default: "
                             "the store's own retention knob)")
    p_snap.set_defaults(func=cmd_snapshots)

    p_demo = sub.add_parser("demo", help="run against a bundled corpus")
    p_demo.add_argument("corpus", choices=("cuda", "opencl", "xeon", "mpi"))
    p_demo.add_argument("question", nargs="?", default=None)
    p_demo.set_defaults(func=cmd_demo)

    p_exp = sub.add_parser(
        "experiments", help="reproduce a paper table (or 'list')")
    p_exp.add_argument("name", nargs="?", default="list")
    p_exp.set_defaults(func=cmd_experiments)

    p_shell = sub.add_parser("shell", help="interactive QA session")
    p_shell.add_argument("guide", help="guide file or saved advisor .json")
    p_shell.add_argument("--extra-keywords", nargs="*")
    p_shell.set_defaults(func=cmd_shell)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.core.persistence import PersistenceError

    parser = build_parser()
    args = parser.parse_args(argv)
    plan_path = args.fault_plan or _load_config(args).fault_plan
    try:
        if plan_path:
            from repro.resilience.faults import FaultPlan, inject

            with inject(FaultPlan.load(plan_path)):
                return args.func(args)
        return args.func(args)
    except PersistenceError as error:
        # an unloadable saved advisor or snapshot store is a user
        # error, not a crash: one line, no traceback
        print(f"egeria: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        if error.filename is None:
            raise
        # so is a guide, report or output path that cannot be opened
        print(f"egeria: {error.filename}: {error.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
