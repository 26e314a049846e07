"""Command-line front end over the algebra and code text formats.

Exit codes: 0 success, 1 malformed input or output that cannot be written
(a closed pipe exits quietly), 2 domain rejection (invalid algebra, rejected
attachment, exhausted embedding), 64 usage error, 130 interrupted (SIGINT).
Output is deterministic: identical inputs produce byte-identical output.
``enumerate`` builds, formats and writes one catalog entry at a time, so an
interrupted run, or one whose stdout pipe closes, leaves the entries already
written, and still exits 130, or quietly 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .algebras import Algebra, _translate, kind_of, verify
from .attach import (
    CodeRejected,
    attach_wajsberg,
    embed_code,
)
from .catalog import _chain_products, _order_types
from .codes import (
    code_from_algebra,
    distance_D,
    min_hamming_distance,
    skeleton,
)
from .convert import convert
from .errors import AlgebraError, NoEmbeddingFound, NotAnAlgebra, ParseError
from .fileio import format_algebra, format_code, parse_algebra, parse_code

EX_OK = 0
EX_MALFORMED = 1
EX_REJECTED = 2
EX_USAGE = 64
EX_INTERRUPTED = 130

KIND_LABELS = {
    "bck": "bounded commutative BCK",
    "mv": "MV",
    "wajsberg": "Wajsberg",
}


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text of ``-h``/``--help`` back to ``run()``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="mvcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("algebra", type=Path)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("convert", help="translate an algebra to another presentation")
    p.add_argument("algebra", type=Path)
    p.add_argument("--to", required=True, choices=("bck", "mv", "wajsberg"), dest="kind")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("code", help="print the block code generated by an algebra")
    p.add_argument("algebra", type=Path)
    p.set_defaults(handler=_cmd_code)

    p = sub.add_parser("distance", help="cut-set distance between two elements")
    p.add_argument("algebra", type=Path)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("mindist", help="minimum Hamming distance of a code file")
    p.add_argument("code", type=Path)
    p.set_defaults(handler=_cmd_mindist)

    p = sub.add_parser("skeleton", help="print the order skeleton of an algebra")
    p.add_argument("algebra", type=Path)
    p.set_defaults(handler=_cmd_skeleton)

    p = sub.add_parser("enumerate", help="all Wajsberg algebras of a given order")
    p.add_argument("n", type=int)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("attach", help="reconstruct the algebra behind a square code")
    p.add_argument("code", type=Path)
    p.add_argument("--all", action="store_true", dest="all_matches")
    p.add_argument("--to", choices=("bck", "mv", "wajsberg"), dest="kind", default="wajsberg")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(handler=_cmd_attach)

    p = sub.add_parser("embed", help="embed a code into a larger algebra's code")
    p.add_argument("code", type=Path)
    p.add_argument("--max-order", type=int, default=None, dest="max_order")
    p.add_argument("--all", action="store_true", dest="all_matches")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(handler=_cmd_embed)

    return parser


def _read(path: Path) -> str:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _load_verified(path: Path, out) -> Algebra:
    algebra = parse_algebra(_read(path))
    report = verify(algebra)
    if not report.valid:
        _print_violations(algebra, report, out)
        raise NotAnAlgebra(f"{path} does not verify", report)
    return algebra


def _print_violations(algebra, report, out) -> None:
    print(f"invalid: {KIND_LABELS[kind_of(algebra)]}", file=out)
    for v in report.violations:
        args = ", ".join(str(x) for x in v.witness)
        print(f"violated {v.axiom} witness ({args})", file=out)


def _cmd_verify(args, out, err) -> int:
    algebra = parse_algebra(_read(args.algebra))
    report = verify(algebra)
    if report.valid:
        print(f"valid: {KIND_LABELS[kind_of(algebra)]}", file=out)
        return EX_OK
    _print_violations(algebra, report, out)
    return EX_REJECTED


def _cmd_convert(args, out, err) -> int:
    algebra = parse_algebra(_read(args.algebra))
    out.write(format_algebra(convert(algebra, args.kind)))
    return EX_OK


def _cmd_code(args, out, err) -> int:
    algebra = _load_verified(args.algebra, out)
    out.write(format_code(code_from_algebra(algebra)))
    return EX_OK


def _cmd_distance(args, out, err) -> int:
    algebra = _load_verified(args.algebra, out)
    if not (0 <= args.r < algebra.k and 0 <= args.s < algebra.k):
        raise ParseError(f"elements must lie in [0,{algebra.k})")
    print(distance_D(algebra, args.r, args.s), file=out)
    return EX_OK


def _cmd_mindist(args, out, err) -> int:
    code = parse_code(_read(args.code))
    print(min_hamming_distance(code), file=out)
    return EX_OK


def _cmd_skeleton(args, out, err) -> int:
    algebra = _load_verified(args.algebra, out)
    print(skeleton(algebra).render(), file=out)
    return EX_OK


def _write_or_print(docs: Iterable[tuple[str, Sequence[str]]], output: Optional[Path], out, head: str = "") -> None:
    """Emit named documents, each a sequence of text parts written in turn,
    never joined, one at a time as ``docs`` yields them: to files in a
    directory, then ``head`` to stdout; or ``head``, then each document after
    a ``---`` line, to stdout."""
    if output is None:
        out.write(head)
        for _, parts in docs:
            out.write("---\n")
            for part in parts:
                out.write(part)
        return
    try:
        output.mkdir(parents=True, exist_ok=True)
        for name, parts in docs:
            with open(output / name, "w") as file:
                file.writelines(parts)
    except OSError as exc:
        raise ParseError(f"cannot write {output}: {exc.strerror}") from exc
    out.write(head)


def _cmd_enumerate(args, out, err) -> int:
    n = args.n
    types = _order_types(n)  # raises InvalidSize before anything is built or written
    head = f"n={n} pi={len(types) - 1} total={len(types)}\n"  # the chain, then the proper factorizations

    def docs():
        for entry in _chain_products(types):
            label = "chain" if len(entry.factors) == 1 else entry.factor_label()
            yield f"w{n}_{label.replace('x', '_')}.alg", (f"# factors: {label}\n", format_algebra(entry.algebra))

    _write_or_print(docs(), args.output, out, head)
    return EX_OK


def _cmd_attach(args, out, err) -> int:
    code = parse_code(_read(args.code))
    try:
        found = attach_wajsberg(code, all_matches=args.all_matches)
    except CodeRejected as exc:
        reason = exc.reason
        witness = ", ".join(str(x) for x in reason.witness)
        print(f"rejected: {reason.kind} witness ({witness})", file=err)
        print(reason.detail, file=err)
        return EX_REJECTED
    results = found if args.all_matches else [found]
    # every match carries the same algebra; only the relabeling line differs
    source = results[0].source
    head = f"# catalog: n={source.order} factors={source.factor_label()}\n"
    # a transport of a catalog entry, valid by construction: translated unverified
    body = format_algebra(_translate(results[0].algebra, args.kind))
    docs = [
        (f"attached_{i}_{args.kind}.alg", (head, f"# relabeling: {','.join(map(str, r.iso.forward))}\n", body))
        for i, r in enumerate(results, start=1)
    ]
    _write_or_print(docs, args.output, out)
    return EX_OK


def _cmd_embed(args, out, err) -> int:
    code = parse_code(_read(args.code))
    try:
        found = embed_code(code, max_order=args.max_order, all_matches=args.all_matches)
    except NoEmbeddingFound as exc:
        print(f"no embedding found up to order {exc.max_order}", file=err)
        return EX_REJECTED
    results = found if args.all_matches else [found]
    docs = []
    for i, result in enumerate(results, start=1):
        cols = ",".join(str(c) for c in result.columns)
        summary = f"q={result.q} factors={result.factor_label()} columns={cols}\n"
        parts = (summary, format_algebra(result.host), "# restricted code\n", format_code(result.restriction))
        docs.append((f"embedding_{i}.txt", parts))
    _write_or_print(docs, args.output, out)
    return EX_OK


def run(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EX_USAGE
    except _HelpRequested as exc:
        out.write(str(exc))
        return EX_OK
    try:
        return args.handler(args, out, err)
    except NotAnAlgebra as exc:
        print(f"error: {exc}", file=err)
        return EX_REJECTED
    except AlgebraError as exc:
        print(f"error: {exc}", file=err)
        return EX_MALFORMED


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except KeyboardInterrupt:
        code = EX_INTERRUPTED
    except OSError as exc:  # stdout is a closed pipe, or its device is full
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; let that flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EX_MALFORMED
    sys.exit(code)


if __name__ == "__main__":
    main()
