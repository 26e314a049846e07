"""Per-layer metrics of ``mvcodes``, derived from tracer spans.

Layers are the package's modules. Each ``_s`` metric is the summed self time
of the listed spans (a span's duration minus its child spans); counts come
from the span boundaries, and the ones marked *computed* from input sizes
seen there (``SIZES``), not from inside the program. Values are per replay
of the workload's job list.

Every span name the tracer can record belongs to exactly one metric: the
self time of a public name that ``SELF_TIME`` does not list goes to its
layer's ``<layer>.other_s``, or to ``trace.unlisted_s`` for a module that is
no layer, so new public code never silently lowers a listed metric.

Which end-to-end metric each layer should move, on which workload:

- cli: every metric on every workload (dispatch and printing only).
- fileio: ``jobs_per_s`` on tables; enumerate latency on catalog.
- algebras: ``jobs_per_s``/``job_p50_ms`` on tables, ``job_p90_ms`` on
  catalog (attach's output convert); no move on embed.
- convert: ``jobs_per_s`` on tables.
- codes: ``job_p90_ms`` on catalog; skeleton and distance jobs on tables.
- order: ``jobs_per_s`` on catalog; skeleton jobs on tables.
- catalog: ``jobs_per_s`` and ``peak_rss_mb`` on catalog.
- attach: ``jobs_per_s``/``job_p90_ms`` on embed; attach jobs on catalog.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times


SIZES = {
    "fileio.parse_algebra": lambda a, kw, r: len(a[0]),
    "fileio.parse_code": lambda a, kw, r: len(a[0]),
    "fileio.format_algebra": lambda a, kw, r: len(r),
    "fileio.format_code": lambda a, kw, r: len(r),
    "algebras.verify": lambda a, kw, r: a[0].k ** 3,
    "algebras.CayleyTable": lambda a, kw, r: r.k ** 2,
    "codes.code_poset": lambda a, kw, r: a[0].size ** 2,
    "codes.min_hamming_distance": lambda a, kw, r: a[0].size * (a[0].size - 1) // 2,
}

# Self-time metric -> span names whose self time it sums.
SELF_TIME = {
    "cli.self_s": ("cli.run", "cli.main"),
    "fileio.parse_s": ("fileio.parse_algebra", "fileio.parse_code"),
    "fileio.format_s": ("fileio.format_algebra", "fileio.format_code"),
    "algebras.verify_s": (
        "algebras.verify", "algebras.ensure_verified", "algebras.verify_bck", "algebras.verify_mv",
        "algebras.verify_wajsberg", "algebras.evaluate_axiom", "algebras.axiom_suite",
        "algebras.bck_axiom_suite", "algebras.mv_axiom_suite", "algebras.wajsberg_axiom_suite",
        "algebras.Violation", "algebras.AxiomReport", "algebras.kind_of",
    ),
    "algebras.table_build_s": (
        "algebras.CayleyTable", "algebras.BckAlgebra", "algebras.MvAlgebra",
        "algebras.WajsbergAlgebra", "algebras.mv_derived_ops",
    ),
    "algebras.natural_order_s": ("algebras.natural_order", "algebras.mv_leq_equivalences"),
    "convert.self_s": (
        "convert.convert", "convert.bck_to_mv", "convert.mv_to_bck",
        "convert.wajsberg_to_mv", "convert.mv_to_wajsberg",
    ),
    "codes.code_from_algebra_s": (
        "codes.code_from_algebra", "codes.cut_subset", "codes.code_equivalent", "codes.BlockCode",
    ),
    "codes.code_poset_s": ("codes.code_poset", "codes.codeword_leq"),
    "codes.distance_s": ("codes.distance_D", "codes.hamming", "codes.min_hamming_distance"),
    "codes.skeleton_s": ("codes.skeleton", "codes.Skeleton", "codes.mv_sum_indicator"),
    "order.poset_build_s": ("order.Poset",),
    "order.order_violation_s": ("order.order_violation",),
    "order.iso_search_s": ("order.poset_isomorphisms", "order.poset_isomorphism", "order.OrderIso"),
    "catalog.enumerate_s": (
        "catalog.enumerate_wajsberg", "catalog.factorizations", "catalog.pi_count",
        "catalog.chain_wajsberg", "catalog.ChainProduct",
    ),
    "catalog.product_s": ("catalog.product_wajsberg",),
    "catalog.transport_s": ("catalog.transport_structure",),
    "catalog.isomorphism_s": ("catalog.wajsberg_isomorphisms", "catalog.wajsberg_isomorphic"),
    "attach.validate_s": ("attach.validate_code_matrix", "attach.MatrixCheck", "attach.MatrixReport"),
    "attach.attach_self_s": (
        "attach.attach_wajsberg", "attach.attach_mv", "attach.attach_bck",
        "attach.AttachmentResult", "attach.RejectionReason",
    ),
    "attach.embed_self_s": ("attach.embed_code", "attach.EmbeddingResult"),
}

LAYERS = ("cli", "fileio", "algebras", "convert", "codes", "order", "catalog", "attach")
LISTED = {name: metric for metric, names in SELF_TIME.items() for name in names}

REJECTION_KINDS = ("boundary-violation", "not-a-poset", "transitivity-failure", "no-catalog-match")


def self_time_metric(name):
    """The metric that sums the self time of spans called ``name``."""
    if name in LISTED:
        return LISTED[name]
    layer = name.partition(".")[0]
    return f"{layer}.other_s" if layer in LAYERS else "trace.unlisted_s"


def layer_metrics(spans, scale=None):
    """Every per-layer metric but ``trace.overhead_frac``, over ``spans``.
    ``scale`` maps a job id to the factor that brings its times to the
    gauge's reference speed (see ``gauge.py``); without it times stay wall
    times."""
    own = self_times(spans)
    time_of = defaultdict(float)
    count = defaultdict(int)
    size = defaultdict(int)
    for s, t in zip(spans, own):
        time_of[s[1]] += t * (scale[s[5]] if scale else 1)
        count[s[1]] += 1
        if s[7] is not None:
            size[s[1]] += s[7]
    out = dict.fromkeys([*SELF_TIME, *(f"{layer}.other_s" for layer in LAYERS), "trace.unlisted_s"], 0.0)
    for name, t in time_of.items():
        out[self_time_metric(name)] += t

    def children(parent_name, child_name):
        return sum(1 for s in spans if s[1] == child_name and s[4] >= 0 and spans[s[4]][1] == parent_name)

    def under(ancestor_name, name):
        n = 0
        for s in spans:
            if s[1] == name:
                parent = s[4]
                while parent >= 0 and spans[parent][1] != ancestor_name:
                    parent = spans[parent][4]
                n += parent >= 0
        return n

    notes = defaultdict(int)
    for s in spans:
        if s[6] is not None:
            notes[s[1], s[6]] += 1
    attach_calls = count["attach.attach_wajsberg"]
    rejected = {kind: notes["attach.attach_wajsberg", f"raise:CodeRejected:{kind}"] for kind in REJECTION_KINDS}
    raised = sum(n for (name, note), n in notes.items()
                 if name == "attach.attach_wajsberg" and str(note).startswith("raise:"))
    accepted = attach_calls - raised
    hits = children("attach.embed_code", "catalog.transport_structure")
    out.update({
        "cli.jobs": count["cli.run"],
        "cli.exit_rejected": notes["cli.run", 2],
        "fileio.bytes_parsed": size["fileio.parse_algebra"] + size["fileio.parse_code"],
        "fileio.bytes_formatted": size["fileio.format_algebra"] + size["fileio.format_code"],
        "algebras.verify_calls": count["algebras.verify"],
        "algebras.verify_triples": size["algebras.verify"],
        "algebras.tables_built": count["algebras.CayleyTable"],
        "algebras.table_cells": size["algebras.CayleyTable"],
        "convert.calls": count["convert.convert"],
        "convert.verifies_per_call": _ratio(under("convert.convert", "algebras.verify"), count["convert.convert"]),
        "codes.word_pairs_compared": size["codes.code_poset"] + size["codes.min_hamming_distance"],
        "order.posets_built": count["order.Poset"],
        "order.isos_yielded": notes["order.poset_isomorphisms", "yield"],
        "catalog.entries_built": count["catalog.ChainProduct"],
        "catalog.entries_per_attach": _ratio(under("attach.attach_wajsberg", "catalog.ChainProduct"), accepted),
        "attach.accepted": accepted,
        "attach.embed_hosts_scanned": children("attach.embed_code", "codes.code_from_algebra") - hits,
        "attach.embed_hits": hits,
        "attach.embed_exhausted": notes["attach.embed_code", "raise:NoEmbeddingFound"],
    })
    out.update({f"attach.rejected.{kind}": n for kind, n in rejected.items()})
    return out


def _ratio(a, b):
    return a / b if b else 0.0
