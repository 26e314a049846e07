"""Output checks for every job kind, computed from ``model`` alone.

``check(job, files, rc, out, err)`` returns None when the job's exit code,
stdout and stderr are right, and a one-line reason otherwise. Expected
rejections (exit 2) are checked like any other answer: every violation
witness must really fail its axiom and every rejection witness must really
break the law it names.
"""

from __future__ import annotations

import functools
import math
import re

import model as M

EX_OK, EX_REJECTED = 0, 2


def check(job, files, rc, out, err):
    exp = job["expect"]
    return _CHECKS[exp["kind"]](exp, files, rc, out, err)


def _expect(rc, out, err, want_rc, want_out, want_err):
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if out != want_out:
        return f"stdout differs from the expected {len(want_out)} bytes: {_first_diff(out, want_out)}"
    if err != want_err:
        return f"stderr {err[:80]!r}, expected {want_err[:80]!r}"
    return None


def _first_diff(got, want):
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        if a != b:
            return f"line {i + 1}: {a[:60]!r} != {b[:60]!r}"
    return f"{len(got.splitlines())} lines, expected {len(want.splitlines())}"


def _words(text):
    return [w for w in (s.strip() for s in text.splitlines()) if w and not w.startswith("#")]


def _documents(out):
    """The texts of ``---``-separated CLI documents, or None."""
    if not out.startswith("---\n"):
        return None
    parts = out[4:].split("\n---\n")
    return [p + "\n" for p in parts[:-1]] + parts[-1:]


# --- algebra tables -------------------------------------------------------

_VIOLATION = re.compile(r"violated (\S+) witness \(([0-9, ]*)\)")


@functools.lru_cache(maxsize=4)
def _table_violations(text):
    parsed = M.parse_algebra(text)
    return parsed, M.violations(*parsed)


def _convert_error(src, dst, axioms):
    if src == "bck" and dst != "bck":
        if "bounded" in axioms:
            return "input BCK algebra is not bounded"
        if "commutative" in axioms:
            return "input BCK algebra is not commutative"
        return "input is not a BCK algebra"
    return f"{src} verification failed: {', '.join(sorted(axioms))}"


def _check_table(exp, files, rc, out, err):
    name, op = exp["file"], exp["op"]
    if not exp["valid"]:
        (kind, rows, unary, consts), bad = _table_violations(files[name])
        if not bad:
            return "generator bug: corrupted table verifies"
        for line in out.splitlines()[1:]:
            m = _VIOLATION.fullmatch(line)
            if m is None:
                return f"unexpected line {line!r}"
            witness = tuple(int(v) for v in m.group(2).split(", "))
            if M.axiom_holds(kind, rows, unary, consts, m.group(1), witness):
                return f"witness {witness} does not break {m.group(1)}"
        if op == "convert":
            message = _convert_error(kind, exp["to"], {a for a, _ in bad})
            return _expect(rc, out, err, EX_REJECTED, "", f"error: {message}\n")
        report = f"invalid: {M.KIND_LABELS[kind]}\n" + "".join(
            f"violated {a} witness ({', '.join(map(str, w))})\n" for a, w in bad
        )
        tail = "" if op == "verify" else f"error: {name} does not verify\n"
        return _expect(rc, out, err, EX_REJECTED, report, tail)
    kind, rows, unary, consts = M.parse_algebra(files[name])
    alg = M.as_wajsberg(kind, rows, unary, consts)
    k = len(rows)
    if op == "verify":
        want = f"valid: {M.KIND_LABELS[kind]}\n"
    elif op == "convert":
        want = M.format_algebra(alg, exp["to"])
    elif op == "code":
        want = "\n".join(M.code_lines(M.up_masks(alg), k)) + "\n"
    elif op == "skeleton":
        want = "\n".join(M.code_lines(M.up_masks(alg), k)).replace("1", "#").replace("0", ".") + "\n"
    else:
        up = M.up_masks(alg)
        r, s = exp["pair"]
        want = f"{(up[r] ^ up[s]).bit_count()}\n"
    return _expect(rc, out, err, EX_OK, want, "")


# --- catalog --------------------------------------------------------------


def _check_attach(exp, files, rc, out, err):
    words = _words(files[exp["code"]])
    factors, perm = tuple(exp["factors"]), exp["perm"]
    docs = _documents(out)
    if rc != EX_OK or err or docs is None:
        return f"exit code {rc}, stderr {err[:80]!r}"
    forwards = sorted(tuple(perm[a[x]] for x in range(len(perm))) for a in M.order_automorphisms(factors))
    if not exp["all"]:
        forwards = forwards[:1]
    if len(docs) != len(forwards):
        return f"{len(docs)} attachments, expected {len(forwards)}"
    label = "x".join(map(str, factors))
    for doc, forward in zip(docs, forwards):
        head, _, body = doc.partition("\n# relabeling: ")
        if head != f"# catalog: n={len(words)} factors={label}":
            return f"header {head!r}, expected factors {label}"
        relabeling, _, text = body.partition("\n")
        parsed = M.parse_algebra(text)
        regenerated = M.code_lines(M.up_masks(M.as_wajsberg(*parsed)), len(words))
        if regenerated != words:
            return "attached algebra does not regenerate the code"
        if relabeling != ",".join(map(str, forward)):
            return f"relabeling {relabeling[:40]!r} is not the next least order isomorphism"
        want = M.format_algebra(M.relabel(M.chain_product(factors), forward), exp["to"])
        if text != want:
            return f"attached table differs: {_first_diff(text, want)}"
    return None


def _check_reject(exp, files, rc, out, err):
    words = _words(files[exp["code"]])
    n = len(words)
    reason = exp["reason"]
    if reason == "boundary-violation":
        failures = M.boundary_failures(words)
        if not failures:
            return "generator bug: boundary intact"
        condition, (i, j) = failures[0]
        detail = f"{condition} fails at ({i}, {j})"
        witness = f"{i}, {j}"
    elif reason == "transitivity-failure":
        i, j = exp["cleared"]
        # Only the cleared pair is missing from a transitive relation, so the
        # least broken triple is (i, y, j) with the least y between them.
        y = min(y for y in range(n) if y not in (i, j) and words[i][y] == words[y][j] == "1")
        if words[i][j] != "0":
            return "generator bug: relation not cleared"
        witness = f"{i}, {y}, {j}"
        detail = f"matrix relation breaks transitivity at ({witness})"
    else:
        witness = ""
        detail = f"word order of the {n}-word code matches no product of chains"
    return _expect(rc, out, err, EX_REJECTED, "", f"rejected: {reason} witness ({witness})\n{detail}\n")


def _check_mindist(exp, files, rc, out, err):
    return _expect(rc, out, err, EX_OK, f"{M.min_distance(_words(files[exp['code']]))}\n", "")


def _check_enumerate(exp, files, rc, out, err):
    n = exp["n"]
    entries = M.catalog_factors(n)
    header = f"n={n} pi={len(entries) - 1} total={len(entries)}\n"
    if not out.startswith(header):
        return f"header {out.partition(chr(10))[0]!r}, expected {header.strip()!r}"
    docs = _documents(out[len(header):])
    if docs is None or len(docs) != len(entries):
        return f"{0 if docs is None else len(docs)} documents, expected {len(entries)}"
    want = header + "".join(
        "---\n# factors: "
        + ("chain" if len(f) == 1 else "x".join(map(str, f)))
        + "\n"
        + M.format_algebra(M.chain_product(f), "wajsberg")
        for f in entries
    )
    return _expect(rc, out, err, EX_OK, want, "")


# --- embed ----------------------------------------------------------------


def _check_embed(exp, files, rc, out, err):
    words = _words(files[exp["code"]])
    hits = M.embed_hits(words, exp["max_order"], limit=None if exp["all"] else 1)
    if not hits:
        return _expect(rc, out, err, EX_REJECTED, "", f"no embedding found up to order {exp['max_order']}\n")
    docs = _documents(out)
    if rc != EX_OK or err or docs is None:
        return f"exit code {rc}, stderr {err[:80]!r}"
    if len(docs) != len(hits):
        return f"{len(docs)} embeddings, expected {len(hits)}"
    want_all = []
    for doc, (factors, cols) in zip(docs, hits):
        summary, _, rest = doc.partition("\n")
        host_text, _, restriction = rest.partition("# restricted code\n")
        got = _words(restriction)
        if not set(words) <= set(got):
            return "restriction does not cover the input words"
        parsed = M.parse_algebra(host_text)
        if M.violations(*parsed):
            return "host is not a Wajsberg algebra"
        host, ordered, seen = M.canonical_embedding(factors, cols)
        want = (
            f"q={math.prod(factors)} factors={'x'.join(map(str, factors))} columns={','.join(map(str, ordered))}\n"
            + M.format_algebra(host, "wajsberg")
            + "# restricted code\n"
            + "\n".join(seen)
            + "\n"
        )
        if summary != want.partition("\n")[0]:
            return f"summary {summary!r}, expected {want.partition(chr(10))[0]!r}"
        want_all.append(want)
    return _expect(rc, out, err, EX_OK, "---\n" + "---\n".join(want_all), "")


_CHECKS = {
    "table": _check_table,
    "attach": _check_attach,
    "reject": _check_reject,
    "mindist": _check_mindist,
    "enumerate": _check_enumerate,
    "embed": _check_embed,
}
