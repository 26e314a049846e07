"""Seeded job lists for the three workloads, built from ``model`` alone.

``build(workload, seed)`` returns ``(files, jobs)``: the input files the
program reads (name -> text) and the jobs, each a dict with an ``id``, the
``argv`` passed to ``mvcodes.cli.run`` and an ``expect`` record that
``check`` turns into the expected outcome. The same seed gives byte-identical
files and jobs.

The seed picks relabellings, presentations, factorizations, corrupted cells
and code cuts. Sizes and job kinds are fixed per slot, so every seed asks
for about the same amount of work and run-to-run spread stays small. Every
list has more than 110 jobs, so that more than 10 jobs lie above the p90 of
their latencies.

Why each workload exists, and which layers it should stress or bypass:

- ``tables``: verify, convert, code, skeleton and distance on relabelled
  chain products of order 16..64 in all three presentations, a quarter of
  them with one corrupted cell. The cubic axiom scan, table validation,
  convert's double verify and parsing do the work; no catalog, isomorphism
  or embedding search runs. Valid tables run the full scan, corrupted ones
  stop at their first witness, so a verify rewrite that trades one for the
  other shows.
- ``catalog``: attach (default, ``--to bck``, ``--all``) on square codes of
  relabelled chain products of order 24..128, codes rejected for their
  boundary, a broken transitivity or an order that is no product of chains,
  ``mindist`` on those codes and ``enumerate`` for n in 48..240. Catalog
  building, poset validation, the code order and the isomorphism search do
  the work, with little table verification beyond attach's output convert.
  ``enumerate`` (build every entry) beside ``attach`` (find one) shows a
  catalog cache that trades memory or enumerate time for attach time.
- ``embed``: embed on under-sized codes, either cut from a relabelled
  catalog code (hit at the lowest order searched or only at the source
  order) or unit-vector and antichain codes that exhaust the search. The
  column-tuple scan does the work on tables of order <= 10; the other
  layers hardly run.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import model as M

WORKLOADS = ("tables", "catalog", "embed")


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    files, jobs = {}, []
    {"tables": _tables, "catalog": _catalog, "embed": _embed}[workload](rng, files, jobs)
    return files, jobs


def _job(jobs, argv, **expect):
    jobs.append({"id": f"j{len(jobs):03d}", "argv": argv, "expect": expect})


# --- tables ---------------------------------------------------------------

# Orders in four groups of similar size; the second file of each group is
# corrupted, so that the seed does not decide which large tables run the
# full scan.
TABLE_ORDERS = ((16, 18, 20, 24), (27, 30, 32, 36), (40, 42, 45, 48), (54, 56, 60, 64))
TABLE_JOBS = (
    ("verify",),
    ("convert", "bck"),
    ("convert", "mv"),
    ("convert", "wajsberg"),
    ("code",),
    ("skeleton",),
    ("distance",),
)
PRESENTATIONS = ("bck", "mv", "wajsberg")


def _corrupt(rng, alg, kind):
    """The presented table with one cell changed so that a unary or binary
    axiom fails."""
    rows, unary, constants = M.present(alg, kind)
    k = len(rows)
    while True:
        a, b = rng.randrange(k), rng.randrange(k)
        v = rng.choice([v for v in range(k) if v != rows[a][b]])
        bad = tuple(row if x != a else row[:b] + (v,) + row[b + 1:] for x, row in enumerate(rows))
        if M.violations(kind, bad, unary, constants, max_arity=2):
            return M.format_presented(kind, bad, unary, constants)


def _tables(rng, files, jobs):
    slot = 0
    for group in TABLE_ORDERS:
        for i, k in enumerate(group):
            kind = PRESENTATIONS[slot % 3]
            slot += 1
            factors = rng.choice(M.catalog_factors(k))
            perm = list(range(k))
            rng.shuffle(perm)
            alg = M.relabel(M.chain_product(factors), perm)
            name = f"t{k:02d}_{kind}.alg"
            valid = i != 1
            files[name] = M.format_algebra(alg, kind) if valid else _corrupt(rng, alg, kind)
            for spec in TABLE_JOBS:
                exp = dict(kind="table", op=spec[0], file=name, valid=valid)
                if spec[0] == "convert":
                    argv = ["convert", name, "--to", spec[1]]
                    exp["to"] = spec[1]
                elif spec[0] == "distance":
                    r, s = rng.randrange(k), rng.randrange(k)
                    argv = ["distance", name, str(r), str(s)]
                    exp["pair"] = (r, s)
                else:
                    argv = [spec[0], name]
                _job(jobs, argv, **exp)


# --- catalog --------------------------------------------------------------

# Factorizations are fixed per slot and only the relabelling varies with the
# seed: the isomorphism search, and so an attach job's cost, depends much
# more on the factorization than on the labels.
ATTACH_DEFAULT = ((2, 3, 4), (2, 2, 3, 3), (2, 4, 6), (3, 4, 5), (2, 6, 6), (2, 2, 4, 4),
                  (2, 2, 2, 2, 2, 4))
ATTACH_BCK = ((4, 8), (2, 2, 12), (2, 2, 2, 2, 4))
ATTACH_ALL = ((2, 2, 2, 3), (2, 2, 3, 3), (2, 2, 2, 6))
# Every product of two or more chains of order 24..42: cheap attach jobs (and
# their mindist jobs) that fill the body of the latency distribution.
ATTACH_SMALL = tuple(f for n in (24, 30, 32, 36, 40, 42) for f in M.catalog_factors(n) if len(f) > 1)
BOUNDARY_FLIP = ((2, 4, 6), (2, 6, 8))
TRANSITIVITY_BREAK = ((2, 5, 6), (4, 4, 6))
ORDINAL_SUM = (((2, 3, 4), (2, 12)), ((3, 3, 4), (2, 3, 6)), ((2, 4, 4), (4, 4, 4)))
# Besides the big enumerations, a run of cheap ones whose cost does not depend
# on the seed fills the middle of the latency distribution, so the median
# job does not jump between unlike jobs from seed to seed.
ENUMERATE = (48, 60, 64, 72, 80, 84, 96, 240)


def _code_perm(rng, k):
    """A relabelling that keeps the bottom first and the top last."""
    inner = list(range(1, k - 1))
    rng.shuffle(inner)
    return [0] + inner + [k - 1]


def _product_code(rng, factors):
    k = math.prod(factors)
    perm = _code_perm(rng, k)
    alg = M.relabel(M.chain_product(factors), perm)
    return M.code_lines(M.up_masks(alg), k), perm


def _add_code(files, stem, words):
    name = f"{stem}.code"
    files[name] = "\n".join(words) + "\n"
    return name


def _catalog(rng, files, jobs):
    codes = []
    for to, all_matches, slots in (("wajsberg", False, ATTACH_DEFAULT), ("bck", False, ATTACH_BCK),
                                   ("wajsberg", True, ATTACH_ALL), ("wajsberg", False, ATTACH_SMALL)):
        for factors in slots:
            words, perm = _product_code(rng, factors)
            prefix = "all" if all_matches else {"wajsberg": "a", "bck": "b"}[to]
            name = _add_code(files, f"{prefix}{len(words)}_{len(codes)}", words)
            codes.append(name)
            argv = ["attach", name] + (["--to", to] if to != "wajsberg" else []) + (["--all"] if all_matches else [])
            _job(jobs, argv, kind="attach", code=name, factors=factors, perm=perm, to=to, all=all_matches)
    for factors in BOUNDARY_FLIP:
        words, _ = _product_code(rng, factors)
        n = len(words)
        while True:
            i, j = rng.choice(
                [(0, rng.randrange(n)), (rng.randrange(n), n - 1), (n - 1, rng.randrange(n - 1)),
                 (rng.randrange(1, n), 0), (rng.randrange(n),) * 2]
            )
            row = words[i][:j] + ("0" if words[i][j] == "1" else "1") + words[i][j + 1:]
            if row not in words:
                break
        words[i] = row
        name = _add_code(files, f"rb{n}", words)
        codes.append(name)
        _job(jobs, ["attach", name], kind="reject", code=name, reason="boundary-violation")
    for factors in TRANSITIVITY_BREAK:
        words, _ = _product_code(rng, factors)
        n = len(words)
        # Clear a strict, non-covering relation i < j away from the boundary.
        # The order check scans rows up to i, so i stays near the middle.
        pairs = [
            (i, j)
            for i in range(n // 2 - 2, n // 2 + 3)
            for j in range(1, n - 1)
            if i != j and words[i][j] == "1"
            and any(words[i][y] == "1" and words[y][j] == "1" for y in range(n) if y not in (i, j))
        ]
        i, j = rng.choice(pairs)
        words[i] = words[i][:j] + "0" + words[i][j + 1:]
        name = _add_code(files, f"rt{n}", words)
        codes.append(name)
        _job(jobs, ["attach", name], kind="reject", code=name, reason="transitivity-failure", cleared=(i, j))
    for lower_factors, upper_factors in ORDINAL_SUM:
        lower = M.up_masks(M.chain_product(lower_factors))
        upper = M.up_masks(M.chain_product(upper_factors))
        n1, n2 = len(lower), len(upper)
        # Every element of the lower part lies below the whole upper part.
        ups = [m | (((1 << n2) - 1) << n1) for m in lower] + [m << n1 for m in upper]
        n = n1 + n2
        perm = _code_perm(rng, n)
        relabelled = [0] * n
        for x, m in enumerate(ups):
            relabelled[perm[x]] = sum(1 << perm[y] for y in range(n) if m >> y & 1)
        name = _add_code(files, f"ro{n}", M.code_lines(relabelled, n))
        codes.append(name)
        _job(jobs, ["attach", name], kind="reject", code=name, reason="no-catalog-match")
    for name in codes:
        _job(jobs, ["mindist", name], kind="mindist", code=name)
    for n in ENUMERATE:
        _job(jobs, ["enumerate", str(n)], kind="enumerate", n=n)


# --- embed ----------------------------------------------------------------

# (source order, columns, order of the first hit, copies) per embeddable
# slot: the search scans every order below the hit in full, so fixing the hit
# order fixes most of a job's cost while the seed still picks the code. Each
# copy is drawn anew.
#
# Job costs come in clusters with gaps between them. The p90 of the job
# latencies is steady only if it falls inside a cluster, not at the edge of a
# gap: the late hits at order 8 and the (4, 5) antichains, all about 70 ms at
# the reference speed, have five copies each, so that 15 jobs of about that
# cost sit between the 35 ms cluster and the three slowest jobs.
EMBEDDABLE = (
    (6, 3, 3, 8), (6, 3, 4, 8), (8, 3, 4, 8), (8, 4, 4, 8), (8, 4, 5, 8), (8, 4, 6, 8), (9, 4, 5, 8),
    (10, 4, 6, 8), (8, 5, 5, 8), (8, 5, 6, 8), (8, 5, 8, 5), (9, 5, 6, 8), (9, 5, 8, 5), (10, 5, 6, 8),
)
# Codes without a host up to the default maximum order (columns + 4), with
# their copies: unit vectors of length m, and (length, words) antichains of
# equal weight.
UNIT_VECTOR = ((4, 3), (5, 1))
ANTICHAIN = ((4, 4, 3), (4, 5, 5), (5, 4, 1), (5, 5, 1))
# (source order, columns, hits, copies) for --all; hit counts take few
# distinct values, so each slot asks for one of the common ones.
EMBED_ALL = ((6, 3, 63, 3), (6, 4, 92, 3))


def _cut_code(rng, q, m):
    """Between 2 and m distinct restrictions of a relabelled catalog code to
    m columns, in random order; the search then starts at order m."""
    perm = list(range(q))
    rng.shuffle(perm)
    masks = M.up_masks(M.relabel(M.chain_product(rng.choice(M.catalog_factors(q))), perm))
    cols = rng.sample(range(q), m)
    words = sorted({"".join("1" if mask >> c & 1 else "0" for c in cols) for mask in masks})
    rng.shuffle(words)
    return words[: rng.randint(2, min(m, len(words)))]


def _tuples_before(words, factors, cols):
    """Column tuples the documented search tries before the hit (factors, cols)."""
    m = len(words[0])
    q = math.prod(factors)
    tried = sum(len(M.catalog_factors(p)) * math.perm(p, m) for p in range(max(m, len(words)), q))
    tried += M.catalog_factors(q).index(factors) * math.perm(q, m)
    for i, c in enumerate(cols):
        tried += sum(1 for v in range(c) if v not in cols[:i]) * math.perm(q - i - 1, m - i - 1)
    return tried


def _pick(rng, candidates, key, target):
    """Of 12 random candidates with a key, the one whose key is nearest the
    target, so that a slot's cost hardly depends on the seed."""
    found = []
    while len(found) < 12:
        words = candidates(rng)
        value = key(words)
        if value is not None:
            found.append((abs(value - target), len(found), words))
    return min(found)[2]


def _embed(rng, files, jobs):
    for q, m, hit_order, copies in EMBEDDABLE:
        # Aim at the middle of the hit order's part of the search.
        below = sum(len(M.catalog_factors(p)) * math.perm(p, m) for p in range(m, hit_order))
        target = below + len(M.catalog_factors(hit_order)) * math.perm(hit_order, m) // 2

        def position(words, q=q, hit_order=hit_order):
            factors, cols = M.embed_hits(words, q, limit=1)[0]
            return _tuples_before(words, factors, cols) if math.prod(factors) == hit_order else None

        for copy in range(copies):
            words = _pick(rng, lambda r, q=q, m=m: _cut_code(r, q, m), position, target)
            name = _add_code(files, f"e{q}_{m}_{hit_order}_{copy}", words)
            _job(jobs, ["embed", name, "--max-order", str(q)], kind="embed", code=name, max_order=q, all=False)
    for m, copies in UNIT_VECTOR:
        for copy in range(copies):
            words = ["".join("1" if i == j else "0" for j in range(m)) for i in range(m)]
            rng.shuffle(words)
            name = _add_code(files, f"u{m}_{copy}", words)
            _job(jobs, ["embed", name], kind="embed", code=name, max_order=m + 4, all=False)
    for m, count, copies in ANTICHAIN:
        # The antichain is fixed per slot, because the cost of the exhaustive
        # search depends on it; the seed permutes its columns and its words.
        fixed = random.Random(f"antichain:{m}:{count}")
        while True:
            weight = fixed.choice(range(2, m - 1))
            pool = [frozenset(s) for s in combinations(range(m), weight)]
            chosen = fixed.sample(pool, count)
            words = ["".join("1" if j in s else "0" for j in range(m)) for s in chosen]
            if not M.embed_hits(words, max(m, count) + 4, limit=1):
                break
        for copy in range(copies):
            cols = list(range(m))
            rng.shuffle(cols)
            words = ["".join("1" if cols[j] in s else "0" for j in range(m)) for s in chosen]
            rng.shuffle(words)
            name = _add_code(files, f"n{m}_{count}_{copy}", words)
            _job(jobs, ["embed", name], kind="embed", code=name, max_order=max(m, count) + 4, all=False)
    for q, m, hits, copies in EMBED_ALL:
        for copy in range(copies):
            while True:
                words = _cut_code(rng, q, m)
                if len(M.embed_hits(words, q)) == hits:
                    break
            name = _add_code(files, f"all{q}_{m}_{copy}", words)
            _job(jobs, ["embed", name, "--max-order", str(q), "--all"], kind="embed", code=name, max_order=q,
                 all=True)
