"""Seeded, pinned inputs for the three workloads.

Every generator takes the workload seed and builds its own
``random.Random``; the program under test only ever sees the generated
text.  ``build-guides`` re-seeds the four bundled guide specs of
:mod:`repro.corpus` (the default seed keeps their own seeds, so it
reproduces the bundled guides); the serve workloads draw from the
vocabulary below, which belongs to the benchmark.

:func:`check_pins` hashes each workload's default-seed inputs and
refuses to run when a hash drifts, so a change to ``repro.corpus`` or
to a generator here cannot silently change what a workload measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

#: the seed whose inputs are pinned by :data:`PINNED_SHA256`
DEFAULT_SEED = 0

#: advising sentences in the served corpus
CORPUS_SENTENCES = 30_000

#: distinct queries in the serve-repeat-ingest hot set (fits the
#: server's 1024-entry query cache)
HOT_QUERIES = 300

#: POST /api/extend batches the serve workloads time, after one
#: untimed warm-up batch, and the sentences of guide text in each
INGEST_BATCHES = 6
INGEST_SENTENCES = 120

#: answers per query (the serving layer's usual top-k)
LIMIT = 10

#: sha256 of each workload's default-seed inputs (see describe_inputs)
PINNED_SHA256 = {
    "build-guides":
        "a6b585344794c5597f92c9c8af519d1b3df18404fde14f154f9e85bcf1809cda",
    "serve-unique":
        "974d8e92b5c0fe63a2ca7f15ed1264965b45d175a28f5440303f488380d1ea3a",
    "serve-repeat-ingest":
        "8923108b2f263fc07873c92432f441b568e26a7a03a0fac1cf69377fdef3cf98",
}

#: per-topic jargon; every term is unique across topics and stems to a
#: distinct, non-stopword term, so distinct term tuples are distinct
#: normalized queries (checked by :func:`check_vocabulary`)
TOPICS: tuple[tuple[str, ...], ...] = (
    ("coalescing", "transaction", "stride", "aligned", "burst",
     "sector", "dram", "contiguous", "gmem", "misaligned"),
    ("bank", "conflict", "padding", "tile", "scratchpad", "smem",
     "broadcasting", "swizzle", "staging", "bankwidth"),
    ("warp", "divergence", "branch", "predication", "lockstep",
     "reconverge", "simt", "ballot", "shuffle", "votes"),
    ("occupancy", "register", "spill", "resident", "multiprocessor",
     "limiter", "launch", "blocksize", "waves", "heuristic"),
    ("texture", "locality", "fetch", "readonly", "surface",
     "interpolation", "binding", "sampler", "filtering", "mipmap"),
    ("constant", "uniform", "immediate", "serialized", "halfwarp",
     "operand", "literal", "bytecode", "opcode", "encoding"),
    ("atomic", "contention", "reduction", "privatize", "histogram",
     "fence", "hotspot", "increment", "cas", "lockfree"),
    ("stream", "overlap", "copy", "async", "pinned", "transfer",
     "engine", "concurrent", "event", "callback"),
    ("unroll", "loop", "pragma", "tripcount", "factor", "pipeline",
     "dependence", "ilp", "epilogue", "peel"),
    ("vectorize", "simd", "lane", "alignas", "intrinsic", "gather",
     "scatter", "pack", "mask", "avx"),
    ("prefetch", "distance", "hardware", "software", "hint", "ahead",
     "stall", "miss", "streamer", "lookahead"),
    ("numa", "affinity", "socket", "firsttouch", "interleave", "node",
     "rebinding", "cpuset", "hugepage", "topology"),
    ("mpi", "collective", "allreduce", "rank", "message", "eager",
     "rendezvous", "communicator", "alltoall", "halo"),
    ("openmp", "schedule", "dynamic", "chunk", "nowait", "barrier",
     "critical", "taskloop", "guided", "firstprivate"),
    ("tessellate", "blocking", "reuse", "workingset", "cacheline",
     "temporal", "spatial", "footprint", "eviction", "associativity"),
    ("precision", "mixed", "halfprec", "tensor", "accumulate",
     "rounding", "denormal", "bfloat", "quantize", "underflow"),
    ("instruction", "dual", "issue", "port", "hazardpair", "fma",
     "scoreboard", "latency", "retire", "decode"),
    ("synchronization", "syncthreads", "grid", "cooperative", "phase",
     "deadlock", "wait", "semaphore", "arrive", "mutex"),
    ("bandwidth", "peak", "sustained", "roofline", "bound",
     "arithmetic", "intensity", "bytes", "flops", "ceiling"),
    ("kernel", "fusion", "overhead", "graph", "capture", "replay",
     "small", "persistent", "megakernel", "dispatch"),
    ("compiler", "flag", "inline", "restrict", "alias", "fastmath",
     "lto", "pgo", "autovectorizer", "unswitch"),
    ("profiler", "counter", "metric", "sampling", "timeline", "trace",
     "nvprof", "vtune", "advixe", "annotation"),
    ("pagefault", "fault", "unified", "managed", "oversubscribe",
     "advise", "migrate", "hostregister", "thrashing", "tlb"),
    ("io", "buffer", "stripe", "lustre", "aggregator", "flush",
     "posix", "netcdf", "checkpoint", "metadata"),
    ("offload", "coprocessor", "mic", "pcie", "marshal", "keepalive",
     "signal", "nocopy", "alloc", "preallocate"),
    ("hyperthread", "core", "thread", "oversubscription", "spin",
     "yield", "smt", "sibling", "pause", "backoff"),
    ("workgroup", "ndrange", "wavefront", "lds", "gcn", "vgpr", "sgpr",
     "clause", "waitcnt", "occupancycalc"),
    ("opencl", "buffer_object", "enqueue", "queue", "clfinish",
     "clflush", "mapbuffer", "hostptr", "zerocopy", "svm"),
    ("matrix", "gemm", "blas", "panel", "microkernel", "kpanel",
     "ldm", "transpose", "batched", "batchcount"),
    ("sparse", "csr", "spmv", "ellpack", "nonzero", "rowptr",
     "colind", "irregular", "reorder", "bandwidthbound"),
    ("stencil", "ghost", "sweep", "diamond", "jacobi", "radius",
     "timestep", "skewing", "boundary", "neighbor"),
    ("fft", "butterfly", "twiddle", "radix", "bitreversal", "plan",
     "convolution", "cufft", "fftw", "inplace"),
)

#: advisory openers of corpus sentences (Stage I would select them)
_OPENERS = (
    "you should", "it is best to", "consider", "make sure to", "try to",
    "avoid", "prefer", "remember to", "it is recommended to",
    "developers must", "always", "it helps to",
)

#: topic-neutral glue padding sentences to guide-like lengths
_GLUE = (
    "the", "performance", "of", "application", "code", "when", "using",
    "device", "data", "each", "per", "significantly", "improve",
    "reduce", "overall", "runtime", "cost", "effect", "result",
    "program", "workload", "host", "memory", "access",
)

#: query openers (stopwords: they never reach the normalized terms)
_ASK = ("how to", "how do i", "what about", "why is", "how should i")

#: ingest guide prose: advising and descriptive sentence frames over a
#: vocabulary the served corpus never uses, mixed with corpus topics
_INGEST_ADVICE = (
    "You should {a} the {b} to reduce {c} overhead on {d}.",
    "It is better to {a} each {b} before the {c} phase.",
    "Prefer a {b} layout when the {c} dominates {d} time.",
    "To benefit from {d}, {a} the {b} early.",
    "Avoid {c} in the {b} path; it can lead to {d} stalls.",
)
_INGEST_PLAIN = (
    "The {b} stores one {c} entry for every {d}.",
    "Each {b} reports its {c} count through the {d} interface.",
    "This release changes how the {b} maps {c} onto {d}.",
    "The {d} unit exposes a {b} with a {c} register.",
)
_INGEST_VERBS = (
    "stage", "batch", "split", "merge", "retile", "rebalance",
    "coarsen", "refine", "hoist", "sink",
)
_INGEST_NOUNS = (
    "ringbuffer", "doorbell", "scoreboardq", "credit", "mailbox",
    "descriptor", "tagstore", "freelist", "slab", "arena", "journal",
    "ledger", "bucketizer", "shard", "cursor", "watermark", "epochal",
    "quorum", "lease", "tombstone", "fenceword", "spinlock", "futex",
    "rcu", "hazard", "ticket", "seqlock", "barrierq", "cohort", "gate",
)


# -- build-guides -----------------------------------------------------------


def guide_documents(seed: int) -> dict[str, object]:
    """The four bundled guides, re-generated with *seed*.

    The default seed returns the bundled guides themselves; any other
    seed rebuilds the same four specs (chapters, sizes, family mix)
    with a per-guide seed derived from *seed*.
    """
    from repro.corpus import GUIDE_BUILDERS, build_guide

    documents = {}
    for name, builder in GUIDE_BUILDERS.items():
        guide = builder()
        if seed != DEFAULT_SEED:
            spec = dataclasses.replace(
                guide.spec, seed=guide.spec.seed + 1_000_003 * seed)
            guide = build_guide(spec)
        documents[name] = guide.document
    return documents


def guide_html(seed: int) -> dict[str, str]:
    """``{name: html}`` — the guides rendered as the raw HTML an
    operator would feed the builder."""
    from repro.docs.html_writer import document_to_html

    return {name: document_to_html(document)
            for name, document in guide_documents(seed).items()}


# -- serve workloads --------------------------------------------------------


def check_vocabulary() -> None:
    """Refuse a vocabulary whose distinct term tuples could normalize
    to the same query (a stopword, or two terms sharing a stem)."""
    from repro.textproc.normalize import NormalizationPipeline

    normalize = NormalizationPipeline()
    seen: dict[str, str] = {}
    for topic in TOPICS:
        for term in topic:
            normalized = normalize(term)
            if len(normalized) != 1:
                raise SystemExit(
                    f"vocabulary term {term!r} normalizes to "
                    f"{normalized}")
            stem = normalized[0]
            if stem in seen:
                raise SystemExit(
                    f"vocabulary terms {seen[stem]!r} and {term!r} "
                    f"share the stem {stem!r}")
            seen[stem] = term


def corpus_sentences(seed: int,
                     count: int = CORPUS_SENTENCES) -> list[str]:
    """*count* distinct advising sentences, each over one topic's
    jargon, so a query's candidate rows are a slice of the corpus."""
    rng = random.Random(f"corpus-{seed}")
    sentences: list[str] = []
    seen: set[str] = set()
    while len(sentences) < count:
        topic = TOPICS[len(sentences) % len(TOPICS)]
        words = (rng.sample(topic, k=rng.randint(3, 5))
                 + rng.sample(_GLUE, k=rng.randint(4, 7)))
        rng.shuffle(words)
        sentence = f"{rng.choice(_OPENERS)} {' '.join(words)}."
        if sentence not in seen:
            seen.add(sentence)
            sentences.append(sentence)
    return sentences


def _query(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    topic = rng.choice(TOPICS)
    terms = rng.sample(topic, k=rng.randint(2, 3))
    if rng.random() < 0.25:
        other = rng.choice(TOPICS)
        extra = rng.choice(other)
        if extra not in terms:
            terms.append(extra)
    return f"{rng.choice(_ASK)} {' '.join(terms)}", tuple(terms)


def unique_queries(seed: int, count: int, stream: str = "unique"
                   ) -> list[str]:
    """*count* queries whose term tuples never repeat — with the
    vocabulary checked by :func:`check_vocabulary`, no two of them
    share a normalized query, so every one misses the query cache.
    *stream* names an independent sequence for the same seed."""
    rng = random.Random(f"{stream}-{seed}")
    queries: list[str] = []
    seen: set[tuple[str, ...]] = set()
    while len(queries) < count:
        text, terms = _query(rng)
        if terms not in seen:
            seen.add(terms)
            queries.append(text)
    return queries


def hot_queries(seed: int, count: int = HOT_QUERIES) -> list[str]:
    """The serve-repeat-ingest hot set: *count* distinct queries."""
    return unique_queries(seed, count, stream="hot")


def hot_sequence(seed: int, hot: list[str], count: int) -> list[str]:
    """*count* draws from the hot set, uniform with replacement."""
    rng = random.Random(f"hot-sequence-{seed}")
    return [rng.choice(hot) for _ in range(count)]


def ingest_batches(seed: int) -> list[str]:
    """Guide text never seen by the served corpus: each batch mixes
    advising and descriptive sentences over the ingest vocabulary and
    the corpus topics, so new segments match the hot queries too.  The
    first batch is the untimed warm-up."""
    rng = random.Random(f"ingest-{seed}")
    seen: set[str] = set()
    out: list[str] = []
    for _ in range(INGEST_BATCHES + 1):
        lines: list[str] = []
        while len(lines) < INGEST_SENTENCES:
            frames = (_INGEST_ADVICE if rng.random() < 0.5
                      else _INGEST_PLAIN)
            topic = rng.choice(TOPICS)
            sentence = rng.choice(frames).format(
                a=rng.choice(_INGEST_VERBS),
                b=rng.choice(_INGEST_NOUNS),
                c=rng.choice(topic),
                d=rng.choice(topic))
            if sentence not in seen:
                seen.add(sentence)
                lines.append(sentence)
        out.append(" ".join(lines))
    return out


# -- pins -------------------------------------------------------------------


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def describe_inputs(workload: str, seed: int) -> str:
    """sha256 over everything the workload feeds the program."""
    if workload == "build-guides":
        html = guide_html(seed)
        return _digest(f"{name}\n{html[name]}" for name in sorted(html))
    served = corpus_sentences(seed) + ingest_batches(seed)
    if workload == "serve-unique":
        return _digest(served + unique_queries(seed, 2000))
    hot = hot_queries(seed)
    return _digest(served + hot + hot_sequence(seed, hot, 2000))


def check_pins(workload: str) -> str:
    """Hash *workload*'s default-seed inputs; exit when they drifted."""
    check_vocabulary()
    actual = describe_inputs(workload, DEFAULT_SEED)
    expected = PINNED_SHA256[workload]
    if actual != expected:
        raise SystemExit(
            f"{workload}: default-seed inputs drifted (sha256 {actual}, "
            f"pinned {expected}); a workload must not change silently")
    return actual
