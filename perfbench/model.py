"""Closed-form model of finite Wajsberg algebras, independent of ``mvcodes``.

The benchmark builds its inputs and checks the program's outputs with this
module alone, so a change to the package can neither alter the inputs of a
seed nor vouch for its own answers.

A finite Wajsberg algebra is a product of Lukasiewicz chains. On the chain
``0 < 1 < .. < f-1`` the implication is ``x->y = min(f-1, f-1-x+y)`` and the
negation is ``f-1-x``; a product acts digit by digit on the mixed-radix
carrier, first factor most significant. An algebra is held as the triple
``(t, n, one)``: implication rows, negation, unit. The BCK and MV
presentations of the same algebra are ``x*y = n(x->y)`` and
``x+y = n(x)->y``, both with zero ``n(one)``.
"""

from __future__ import annotations

from itertools import permutations, product

KIND_LABELS = {"bck": "bounded commutative BCK", "mv": "MV", "wajsberg": "Wajsberg"}


# --- chain products -------------------------------------------------------


def factorizations(n):
    """Multisets of factors >= 2 with product n and at least two factors,
    each ascending, in ascending lexicographic order."""
    out = []

    def descend(rest, lo, acc):
        for d in range(lo, rest + 1):
            if rest % d == 0:
                if d == rest:
                    if acc:
                        out.append(tuple(acc) + (d,))
                else:
                    descend(rest // d, d, acc + [d])

    descend(n, 2, [])
    return sorted(out)


def catalog_factors(n):
    """The catalog of order n: the chain, then one entry per factorization."""
    return [(n,)] + factorizations(n)


def chain_product(factors):
    """The canonical Wajsberg algebra on the mixed-radix carrier."""
    t, neg = ((0,),), (0,)
    for f in factors:
        top = f - 1
        chain = [[min(top, top - x + y) for y in range(f)] for x in range(f)]
        t = tuple(
            tuple(a * f + b for a in t[x] for b in chain[u])
            for x in range(len(t))
            for u in range(f)
        )
        neg = tuple(a * f + (top - u) for a in neg for u in range(f))
    return t, neg, len(t) - 1


def relabel(alg, perm):
    """Carry ``alg`` along the bijection ``perm`` (old index -> new index)."""
    t, n, one = alg
    k = len(t)
    inv = [0] * k
    for x, y in enumerate(perm):
        inv[y] = x
    rows = tuple(tuple(perm[t[inv[x]][inv[y]]] for y in range(k)) for x in range(k))
    return rows, tuple(perm[n[inv[x]]] for x in range(k)), perm[one]


def digits(factors):
    """Digit vectors of the mixed-radix carrier, in index order."""
    out = [()]
    for f in factors:
        out = [d + (a,) for d in out for a in range(f)]
    return out


def order_automorphisms(factors):
    """Order automorphisms of the canonical product, as index maps.

    They are exactly the permutations of digit positions that only swap
    equal factors."""
    ds = digits(factors)
    index = {d: i for i, d in enumerate(ds)}
    r = len(factors)
    return [
        tuple(index[tuple(d[g[i]] for i in range(r))] for d in ds)
        for g in permutations(range(r))
        if all(factors[g[i]] == factors[i] for i in range(r))
    ]


# --- presentations and the file format ------------------------------------


def present(alg, kind):
    """(rows, unary or None, constants) of the algebra in presentation ``kind``."""
    t, n, one = alg
    k = len(t)
    zero = n[one]
    if kind == "wajsberg":
        return t, n, {"one": one}
    if kind == "mv":
        return tuple(tuple(t[n[x]][y] for y in range(k)) for x in range(k)), n, {"zero": zero}
    return tuple(tuple(n[t[x][y]] for y in range(k)) for x in range(k)), None, {"zero": zero, "one": one}


def format_presented(kind, rows, unary, constants):
    lines = [f"kind: {kind}", f"order: {len(rows)}"]
    lines.append(" ".join(f"{name}: {value}" for name, value in constants.items()))
    if unary is not None:
        lines.append("unary: " + " ".join(map(str, unary)))
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def format_algebra(alg, kind):
    return format_presented(kind, *present(alg, kind))


def parse_algebra(text):
    """(kind, rows, unary, constants) of an algebra document in the file format."""
    lines = [s.strip() for s in text.splitlines()]
    lines = [s for s in lines if s and not s.startswith("#")]
    kind = lines[0].split(":", 1)[1].strip()
    k = int(lines[1].split(":", 1)[1])
    fields = lines[2].replace(":", " ").split()
    constants = {fields[i]: int(fields[i + 1]) for i in range(0, len(fields), 2)}
    body = lines[3:]
    unary = None
    if kind != "bck":
        unary = tuple(int(v) for v in body[0].split(":", 1)[1].split())
        body = body[1:]
    if len(body) != k:
        raise ValueError(f"expected {k} table rows, got {len(body)}")
    rows = tuple(tuple(int(v) for v in line.split()) for line in body)
    return kind, rows, unary, constants


def as_wajsberg(kind, rows, unary, constants):
    """The Wajsberg triple of a parsed algebra in any presentation."""
    k = len(rows)
    if kind == "wajsberg":
        return rows, unary, constants["one"]
    if kind == "mv":
        return tuple(tuple(rows[unary[x]][y] for y in range(k)) for x in range(k)), unary, unary[constants["zero"]]
    one = constants["one"]
    neg = tuple(rows[one][x] for x in range(k))
    return tuple(tuple(neg[rows[x][y]] for y in range(k)) for x in range(k)), neg, one


# --- orders and codes -----------------------------------------------------


def up_masks(alg):
    """Bit y of entry x is set iff x <= y, i.e. x->y is the unit."""
    t, _, one = alg
    return [sum(1 << y for y, v in enumerate(row) if v == one) for row in t]


def code_lines(masks, k):
    return ["".join("1" if m >> y & 1 else "0" for y in range(k)) for m in masks]


def code_masks(words):
    """Bit strings as integers, bit y holding character y."""
    return [sum(1 << y for y, ch in enumerate(w) if ch == "1") for w in words]


def min_distance(words):
    ms = code_masks(words)
    return min((a ^ b).bit_count() for i, a in enumerate(ms) for b in ms[i + 1:])


# --- axioms ---------------------------------------------------------------


def axiom_suite(kind, rows, unary, constants):
    """(name, arity, predicate) in the documented checking order per kind."""
    if kind == "bck":
        s, z, o = rows, constants["zero"], constants["one"]
        return [
            ("bck1", 3, lambda x, y, w: s[s[s[x][y]][s[x][w]]][s[w][y]] == z),
            ("bck2", 2, lambda x, y: s[s[x][s[x][y]]][y] == z),
            ("bck3", 1, lambda x: s[x][x] == z),
            ("bck4", 2, lambda x, y: x == y or s[x][y] != z or s[y][x] != z),
            ("bck5", 1, lambda x: s[z][x] == z),
            ("bounded", 1, lambda x: s[x][o] == z),
            ("commutative", 2, lambda x, y: s[y][s[y][x]] == s[x][s[x][y]]),
        ]
    if kind == "mv":
        p, c, z = rows, unary, constants["zero"]
        o = c[z]
        return [
            ("assoc", 3, lambda x, y, w: p[p[x][y]][w] == p[x][p[y][w]]),
            ("comm", 2, lambda x, y: p[x][y] == p[y][x]),
            ("identity", 1, lambda x: p[z][x] == x and p[x][z] == x),
            ("double-complement", 1, lambda x: c[c[x]] == x),
            ("top-absorbing", 1, lambda x: p[x][o] == o),
            ("lukasiewicz", 2, lambda x, y: p[c[p[c[x]][y]]][y] == p[c[p[c[y]][x]]][x]),
            ("excluded-middle", 1, lambda x: p[x][c[x]] == o),
        ]
    t, n, o = rows, unary, constants["one"]
    return [
        ("w1", 1, lambda x: t[o][x] == x),
        ("w2", 3, lambda x, y, v: t[t[x][y]][t[t[y][v]][t[x][v]]] == o),
        ("w3", 2, lambda x, y: t[t[x][y]][y] == t[t[y][x]][x]),
        ("w4", 2, lambda x, y: t[t[n[x]][n[y]]][t[y][x]] == o),
        ("involution", 1, lambda x: n[n[x]] == x),
    ]


def violations(kind, rows, unary, constants, max_arity=3):
    """Least failing witness per axiom, in suite order.

    Axioms of arity above ``max_arity`` are skipped."""
    k = len(rows)
    out = []
    for name, arity, pred in axiom_suite(kind, rows, unary, constants):
        if arity > max_arity:
            continue
        for w in product(range(k), repeat=arity):
            if not pred(*w):
                out.append((name, w))
                break
    return out


def axiom_holds(kind, rows, unary, constants, axiom, witness):
    for name, arity, pred in axiom_suite(kind, rows, unary, constants):
        if name == axiom:
            return len(witness) == arity and bool(pred(*witness))
    raise KeyError(axiom)


# --- square code matrices -------------------------------------------------


def boundary_failures(words):
    """Failed boundary conditions of a square code, each with its least cell."""
    k = len(words)
    checks = [
        ("first-row-ones", [(0, j) for j in range(k)], "1"),
        ("last-column-ones", [(i, k - 1) for i in range(k)], "1"),
        ("last-row-unit", [(k - 1, j) for j in range(k - 1)], "0"),
        ("first-column-unit", [(i, 0) for i in range(1, k)], "0"),
        ("diagonal-ones", [(i, i) for i in range(k)], "1"),
    ]
    out = []
    for name, cells, want in checks:
        bad = next(((i, j) for i, j in cells if words[i][j] != want), None)
        if bad is not None:
            out.append((name, bad))
    return out


# --- reference embedding search -------------------------------------------


def embed_hits(words, max_order, limit=None):
    """Embedding hits in the documented search order, up to ``limit`` hits.

    Orders q ascending from max(#words, length), catalog entries in catalog
    order, injective column tuples in lexicographic order; a hit is a column
    tuple under which every input word is the restriction of some host word.
    A depth-first search that keeps, per input word, the set of host words
    still matching visits the tuples in the same order and prunes dead
    prefixes. Returns a list of (factors, columns).
    """
    m, rows = len(words[0]), len(words)
    hits = []
    for q in range(max(m, rows), max_order + 1):
        for factors in catalog_factors(q):
            below = [0] * q  # below[c]: host words with bit c set
            for x, mask in enumerate(up_masks(chain_product(factors))):
                for c in range(q):
                    if mask >> c & 1:
                        below[c] |= 1 << x
            full = (1 << q) - 1
            cols = []

            def dfs(live):
                i = len(cols)
                if i == m:
                    hits.append((factors, tuple(cols)))
                    return limit is not None and len(hits) >= limit
                for c in range(q):
                    if c in cols:
                        continue
                    nxt = [s & (below[c] if w[i] == "1" else full & ~below[c]) for w, s in zip(words, live)]
                    if all(nxt):
                        cols.append(c)
                        stop = dfs(nxt)
                        cols.pop()
                        if stop:
                            return True
                return False

            if dfs([full] * rows):
                return hits
    return hits


def canonical_embedding(factors, cols):
    """Host, sorted columns and restriction lines of a hit, as the CLI prints them."""
    q = 1
    for f in factors:
        q *= f
    ordered = sorted(cols)
    forward = list(range(q))
    for a, b in zip(cols, ordered):
        forward[a] = b
    host = relabel(chain_product(factors), forward)
    seen = []
    for mask in up_masks(host):
        r = "".join("1" if mask >> c & 1 else "0" for c in ordered)
        if r not in seen:
            seen.append(r)
    return host, ordered, seen
