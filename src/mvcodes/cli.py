"""Command-line front end over the algebra and code text formats; its
``-h`` text, with the exit codes, is ``_DESCRIPTION``.

``run`` reads a well-formed command line straight off the command table,
``_COMMANDS``. Only what that reader declines (help, usage errors, and forms
such as ``--to=mv`` or the abbreviation ``--max``) goes to an argparse parser,
built from the same table on first need, so ``import mvcodes.cli`` loads no
argparse.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from types import SimpleNamespace
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

# the top-level ``-h`` text; argparse joins its lines and wraps them anew
_DESCRIPTION = """Command-line front end over the algebra and code text formats.
Exit codes: 0 success, 1 malformed input or output that cannot be written
(a closed pipe exits quietly), 2 domain rejection (invalid algebra, rejected
attachment, exhausted embedding), 64 usage error, 130 interrupted (SIGINT).
Output is deterministic: identical inputs produce byte-identical output.
``enumerate`` builds, formats and writes one catalog entry at a time, so an
interrupted run, or one whose stdout pipe closes, leaves the entries already
written, and still exits 130, or quietly 1."""


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text of ``-h``/``--help`` back to ``run()``."""


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
        print(f"invalid: {KIND_LABELS[kind_of(algebra)]}", file=out)
        for v in report.violations:
            args = ", ".join(str(x) for x in v.witness)
            print(f"violated {v.axiom} witness ({args})", file=out)
        raise NotAnAlgebra(f"{path} does not verify", report)
    return algebra


def _cmd_verify(args, out, err) -> int:
    try:
        algebra = _load_verified(args.algebra, out)
    except NotAnAlgebra:
        return EX_REJECTED
    print(f"valid: {KIND_LABELS[kind_of(algebra)]}", file=out)
    return EX_OK


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


_KINDS = tuple(KIND_LABELS)

# The command table, one row per command in the order ``-h`` lists them: help
# line, handler, and arguments, each name with the keyword arguments that
# argparse's ``add_argument`` takes for it. Names starting with ``-`` are
# options, the others positionals in order.
_COMMANDS = {
    "verify": ("check the axioms of an algebra file", _cmd_verify, {"algebra": {"type": Path}}),
    "convert": (
        "translate an algebra to another presentation",
        _cmd_convert,
        {"algebra": {"type": Path}, "--to": {"dest": "kind", "choices": _KINDS, "required": True}},
    ),
    "code": ("print the block code generated by an algebra", _cmd_code, {"algebra": {"type": Path}}),
    "distance": (
        "cut-set distance between two elements",
        _cmd_distance,
        {"algebra": {"type": Path}, "r": {"type": int}, "s": {"type": int}},
    ),
    "mindist": ("minimum Hamming distance of a code file", _cmd_mindist, {"code": {"type": Path}}),
    "skeleton": ("print the order skeleton of an algebra", _cmd_skeleton, {"algebra": {"type": Path}}),
    "enumerate": (
        "all Wajsberg algebras of a given order",
        _cmd_enumerate,
        {"n": {"type": int}, "--output": {"type": Path}},
    ),
    "attach": (
        "reconstruct the algebra behind a square code",
        _cmd_attach,
        {
            "code": {"type": Path},
            "--all": {"dest": "all_matches", "action": "store_true"},
            "--to": {"dest": "kind", "choices": _KINDS, "default": "wajsberg"},
            "--output": {"type": Path},
        },
    ),
    "embed": (
        "embed a code into a larger algebra's code",
        _cmd_embed,
        {
            "code": {"type": Path},
            "--max-order": {"type": int},
            "--all": {"dest": "all_matches", "action": "store_true"},
            "--output": {"type": Path},
        },
    ),
}


@functools.cache
def _build_parser():
    """The argparse parser of the command table, built on first use and
    shared by later calls. It reads what ``_read_argv`` declines: help,
    usage errors and the forms the table parser does not take."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):
            raise _HelpRequested(self.format_help())

    parser = _Parser(prog="mvcodes", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, spec in arguments.items():
            p.add_argument(name, **spec)
        p.set_defaults(handler=handler)
    return parser


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace ``_build_parser().parse_args(argv)`` gives, when ``argv``
    is in the canonical form; otherwise None.

    Canonical: an exact command name, then tokens that are either positionals
    (not starting with ``-``) or exact options of that command, each valued
    option followed by a value that does not start with ``-``; values convert
    by the spec's ``type``, or lie in its ``choices``; every required option
    and exactly as many positionals as the command takes are there. A
    repeated option keeps its last value, as argparse does. Help,
    abbreviations, ``--to=mv``, ``--``, a lone ``-``, negative numbers and
    failed conversions are not canonical.
    """
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    _, handler, arguments = row
    positionals = iter([name for name in arguments if not name.startswith("-")])
    given = {}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                name, word = next(positionals, ""), token  # a positional too many is a KeyError
            elif arguments[token].get("action") == "store_true":
                given[token] = True
                continue
            else:
                name, word = token, next(tokens, "-")  # a missing value declines as a flag would
            spec = arguments[name]
            if word.startswith("-") or ("choices" in spec and word not in spec["choices"]):
                return None
            given[name] = spec.get("type", str)(word)
    except (KeyError, ValueError):
        return None
    values = {}
    for name, spec in arguments.items():
        if name in given:
            value = given[name]
        elif name.startswith("-") and not spec.get("required"):
            value = spec.get("default", False if spec.get("action") == "store_true" else None)
        else:
            return None
        values[spec.get("dest") or name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def run(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
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
