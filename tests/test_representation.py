"""One row representation: ``Poset``, ``Skeleton``, ``BlockCode`` and
``CayleyTable`` keep rows of ``bytes`` and build their public tuples only
when a caller reads them.

A guard counts those builds on the CLI's paths. Differential checks hold
the byte paths to the tuple-based code they replaced, over the catalog up to
order 64 and one-cell flips of its orders, codes and tables.
"""

import io
import random
from itertools import permutations, product
from operator import le

import pytest

from mvcodes import (
    BlockCode,
    CayleyTable,
    MvAlgebra,
    NotAPoset,
    Poset,
    Skeleton,
    chain_wajsberg,
    code_from_algebra,
    code_poset,
    convert,
    format_algebra,
    format_code,
    mv_sum_indicator,
    natural_order,
    skeleton,
    validate_code_matrix,
)
from mvcodes.cli import run
from mvcodes.errors import DuplicateWord
from mvcodes.order import _LazyRows, order_violation

from conftest import CODE_INTRANSITIVE, CODE_PAIR, CODE_PROD222, CODE_SIX, CODE_TRIPLE, catalog_upto, code_of

FLIPS = 2  # one-cell flips per catalog entry


@pytest.fixture
def view_builds(monkeypatch):
    """``Class.field`` of each public tuple view built from kept rows."""
    builds = []
    lazy = _LazyRows.__getattr__

    def counted(self, name):
        if name == self._view:
            builds.append(f"{type(self).__name__}.{name}")
        return lazy(self, name)

    monkeypatch.setattr(_LazyRows, "__getattr__", counted)
    return builds


class TestNoTupleViews:
    def test_the_counter_sees_each_view_once(self, view_builds):
        code, marks, order = code_of(("10", "01")), Skeleton([b"\1"]), Poset([b"\1"])
        assert code.words == code.words == ((1, 0), (0, 1))
        assert marks.black == ((True,),) and order.leq == ((True,),)
        assert view_builds == ["BlockCode.words", "Skeleton.black", "Poset.leq"]

    def test_cli_subcommands(self, tmp_path, six_bck, view_builds):
        paths = {}
        for name, algebra in (("six", six_bck), ("mv24", convert(chain_wajsberg(24), "mv"))):
            paths[name] = tmp_path / f"{name}.alg"
            paths[name].write_text(format_algebra(algebra))
        for name, words in (("six", CODE_SIX), ("222", CODE_PROD222), ("bad", CODE_INTRANSITIVE)):
            paths[name + ".code"] = tmp_path / f"{name}.code"
            paths[name + ".code"].write_text(format_code(code_of(words)))
        for name, words in (("triple", CODE_TRIPLE), ("pair", CODE_PAIR)):
            paths[name] = tmp_path / f"{name}.code"
            paths[name].write_text("\n".join(words) + "\n")
        argvs = [[command, str(paths[name])] for command in ("code", "skeleton") for name in ("six", "mv24")]
        argvs += [["distance", str(paths["mv24"]), "3", "17"], ["mindist", str(paths["six.code"])]]
        argvs += [
            ["attach", str(paths[name]), "--to", kind, *flag]
            for name in ("six.code", "222.code", "bad.code")
            for kind in ("bck", "mv", "wajsberg")
            for flag in ([], ["--all"])
        ]
        argvs += [["embed", str(paths["triple"])], ["embed", str(paths["pair"]), "--all", "--max-order", "8"]]
        argvs += [["embed", str(paths["pair"]), "--max-order", "3"]]
        for argv in argvs:
            err = io.StringIO()
            assert run(argv, out=io.StringIO(), err=err) in (0, 2), (argv, err.getvalue())
        assert view_builds == []


def catalog_inputs():
    """(algebra, rng) for every catalog entry of order <= 64."""
    for seed, (_, _, algebra) in enumerate(catalog_upto(64)):
        yield algebra, random.Random(seed)


def flipped(rows, i, j):
    """Byte rows of 0 / 1 with cell (i, j) flipped."""
    row = bytearray(rows[i])
    row[j] ^= 1
    return (*rows[:i], bytes(row), *rows[i + 1 :])


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def old_poset(rows):
    """``Poset`` on tuples of bools: its (leq, up, down), or the law and witness it raised."""
    leq = tuple(tuple(map(bool, row)) for row in rows)
    k = len(leq)
    if any(len(row) != k for row in leq):
        return "shape", ()
    up = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in leq)
    down = tuple(sum(1 << i for i, row in enumerate(leq) if row[j]) for j in range(k))
    return order_violation(up, down) or (leq, up, down)


def new_poset(rows):
    try:
        p = Poset(rows)
    except NotAPoset as exc:
        return exc.law, exc.witness
    assert all(type(v) is bool for row in p.leq for v in row)
    return p.leq, p.up, p.down


def old_validate(words):
    """``validate_code_matrix`` over per-cell coordinate lists, as (condition, position) pairs."""
    k = len(words)
    checks = [
        ("first-row-ones", [(0, j) for j in range(k)], 1),
        ("last-column-ones", [(i, k - 1) for i in range(k)], 1),
        ("last-row-unit", [(k - 1, j) for j in range(k - 1)], 0),
        ("first-column-unit", [(i, 0) for i in range(1, k)], 0),
        ("diagonal-ones", [(i, i) for i in range(k)], 1),
    ]
    found = ((name, next(((i, j) for i, j in cells if words[i][j] != want), None)) for name, cells, want in checks)
    return tuple((name, pos) for name, pos in found if pos is not None)


class TestAgainstTuplePaths:
    def test_poset_and_skeleton(self):
        for algebra, rng in catalog_inputs():
            rows = natural_order(algebra)._rows
            k = len(rows)
            inputs = [rows] + [flipped(rows, rng.randrange(k), rng.randrange(k)) for _ in range(FLIPS)]
            for case in inputs:
                for form in (case, [tuple(map(bool, row)) for row in case], [list(row) for row in case]):
                    assert new_poset(form) == old_poset(form)
                    marks = Skeleton(form)
                    black = tuple(tuple(map(bool, row)) for row in case)
                    assert marks.black == black and marks == Skeleton(black) and hash(marks) == hash(Skeleton(black))
                    assert marks.render() == "\n".join("".join(".#"[v] for v in row) for row in black)
            assert skeleton(algebra).black == natural_order(algebra).leq

    def test_block_code_and_code_poset(self):
        for algebra, rng in catalog_inputs():
            t, one = algebra.circ.rows, algebra.one
            words = tuple(tuple(int(v == one) for v in row) for row in t)
            code = code_from_algebra(algebra)
            assert code.words == words and all(type(v) is int for w in code.words for v in w)
            assert code == BlockCode(words) and hash(code) == hash(BlockCode(words))
            assert repr(code) == f"BlockCode(words={words!r})"
            assert code.word_strings() == tuple("".join(map(str, w)) for w in words)
            assert code.sorted_desc().words == tuple(sorted(words, reverse=True))
            k = len(words)
            cases = [code._rows] + [flipped(code._rows, rng.randrange(k), rng.randrange(k)) for _ in range(FLIPS)]
            for case in cases:
                tuples = tuple(map(tuple, case))
                built = outcome(BlockCode, case)
                if isinstance(built, tuple):  # a flip that repeats a word
                    assert built[0] is DuplicateWord and outcome(BlockCode, tuples) == built
                    continue
                assert built.words == tuples
                # codeword_leq(a, b): b's bits fit under a's
                assert code_poset(built).leq == tuple(tuple(all(map(le, b, a)) for b in tuples) for a in tuples)
                assert tuple((c.condition, c.position) for c in validate_code_matrix(built).failures) == old_validate(tuples)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_validate_code_matrix_on_every_small_square_code(self, k):
        for words in permutations(product((0, 1), repeat=k), k):
            failures = validate_code_matrix(BlockCode(words)).failures
            assert tuple((c.condition, c.position) for c in failures) == old_validate(words)

    def test_mv_sum_indicator_above_256(self):
        k = 257  # the chain: x+y = min(x+y, top), tuple rows
        chain = tuple(tuple(min(x + y, k - 1) for y in range(k)) for x in range(k))
        self.check_indicator(MvAlgebra(CayleyTable(chain), range(k - 1, -1, -1), 0), random.Random(k))

    def test_mv_sum_indicator(self):
        for algebra, rng in catalog_inputs():
            self.check_indicator(convert(algebra, "mv"), rng)

    @staticmethod
    def check_indicator(m, rng):
        k = m.k
        tables = [m.oplus.rows]
        for _ in range(FLIPS):  # unverified inputs
            i, j = rng.randrange(k), rng.randrange(k)
            tables.append(tables[0][:i] + ((*tables[0][i][:j], rng.randrange(k), *tables[0][i][j + 1 :]),) + tables[0][i + 1 :])
        for rows in tables:
            algebra = MvAlgebra(CayleyTable(rows), m.complement, m.zero)
            o = algebra.one
            assert mv_sum_indicator(algebra).black == tuple(tuple(v == o for v in row) for row in rows)
