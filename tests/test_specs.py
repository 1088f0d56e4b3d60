"""Text specs for groups, pairs, and quasimorphisms round-trip with names."""

import random
import re
from fractions import Fraction

import pytest

from sclkit.braids import BraidGroup, index_sum, pr1
from sclkit.groups import CyclicZ, DirectProduct, FreeGroup, SymmetricGroup, proj_left, proj_right
from sclkit.quasimorphisms import brooks, brooks_homogenized, hom_qm, pullback, zero_qm
from sclkit.specs import (
    MAX_BRAID_STRANDS,
    MAX_FREE_RANK,
    MAX_PERM_DEGREE,
    MAX_PRODUCT_DEPTH,
    SpecError,
    parse_group,
    parse_group_pair,
    parse_qm,
)
from sclkit.words import word


@pytest.mark.parametrize(
    "spec,kind",
    [
        ("z", CyclicZ),
        ("free:2", FreeGroup),
        ("free:xy", FreeGroup),
        ("braid:3", BraidGroup),
        ("braid:4", BraidGroup),
        ("perm:5", SymmetricGroup),
        ("product:free:2,z", DirectProduct),
        ("product:product:free:2,z,z", DirectProduct),
    ],
)
def test_parse_group_kinds_and_name_round_trip(spec, kind):
    g = parse_group(spec)
    assert isinstance(g, kind)
    again = parse_group(g.name)
    assert type(again) is type(g)
    assert again.name == g.name


def test_parse_group_details():
    assert str(parse_group("free:xy").generators()[0]) == "x"
    assert parse_group("braid:3").n == 3
    assert parse_group("perm:4").n == 4
    prod = parse_group("product:free:2,z")
    assert isinstance(prod.left, FreeGroup) and isinstance(prod.right, CyclicZ)


@pytest.mark.parametrize(
    "bad",
    ["", "braid:1", "braid:x", "free:", "perm:0", "product:z", "bogus:3", "free:a1"],
)
def test_parse_group_rejects(bad):
    with pytest.raises(SpecError):
        parse_group(bad)


def test_braid_strand_count_is_capped():
    assert parse_group(f"braid:{MAX_BRAID_STRANDS}").n == MAX_BRAID_STRANDS
    assert parse_group_pair(f"braid:{MAX_BRAID_STRANDS}/comm").ambient.n == MAX_BRAID_STRANDS
    for bad in (f"braid:{MAX_BRAID_STRANDS + 1}", "braid:500", "braid:" + "9" * 5000, "braid:²"):
        with pytest.raises(SpecError, match="strand count"):
            parse_group(bad)
    with pytest.raises(SpecError, match="strand count"):
        parse_group_pair("braid:500/comm")
    # digit strings past int()'s limit are a spec error too, not a crash
    for bad in ("free:" + "9" * 5000, "perm:" + "9" * 5000):
        with pytest.raises(SpecError):
            parse_group(bad)


def test_free_rank_and_permutation_degree_are_capped():
    # a huge rank or degree must fail before anything of that size is built
    assert len(parse_group(f"free:{MAX_FREE_RANK}").gen_indices) == MAX_FREE_RANK == 26
    assert parse_group(f"perm:{MAX_PERM_DEGREE}").n == MAX_PERM_DEGREE
    for bad in (f"free:{MAX_FREE_RANK + 1}", "free:100000000"):
        with pytest.raises(SpecError, match="rank"):
            parse_group(bad)
    for bad in (f"perm:{MAX_PERM_DEGREE + 1}", "perm:100000000"):
        with pytest.raises(SpecError, match="degree"):
            parse_group(bad)
    with pytest.raises(SpecError, match="degree"):
        parse_group_pair("product:perm:100000000,z")


def test_product_nesting_is_capped():
    def nested(depth, sep=""):
        return f"product:{sep}" * depth + "free:2" + ",z" * depth

    assert parse_group(nested(MAX_PRODUCT_DEPTH)).name == nested(MAX_PRODUCT_DEPTH)
    # a spec 1000 deep used to end in a RecursionError
    for bad in (nested(MAX_PRODUCT_DEPTH + 1), nested(1000), nested(1000, " ")):
        with pytest.raises(SpecError, match="nest"):
            parse_group(bad)
        with pytest.raises(SpecError, match="nest"):
            parse_group_pair(bad + "/left")


def test_parse_group_pair_modes():
    assert parse_group_pair("free:2").mode == "ordinary"
    assert parse_group_pair("braid:3/pure").mode == "mixed"
    assert parse_group_pair("braid:3/pure-ordinary").mode == "ordinary"
    assert parse_group_pair("braid:3/comm").mode == "mixed"
    assert parse_group_pair("product:free:2,z/left").mode == "mixed"
    with pytest.raises(SpecError, match="unknown pair suffix 'leftt'"):
        parse_group_pair("product:free:2,z/leftt")


def test_parse_group_pair_name_round_trip():
    for spec in [
        "free:2",
        "braid:3/pure",
        "braid:3/pure-ordinary",
        "braid:3/comm",
        "product:free:2,z/left",
    ]:
        pair = parse_group_pair(spec)
        assert parse_group_pair(pair.name).name == pair.name


@pytest.mark.parametrize(
    "bad",
    ["braid:4/pure", "free:2/pure", "free:2/comm", "z/left", "braid:3/unknown"],
)
def test_parse_group_pair_rejects(bad):
    with pytest.raises(SpecError):
        parse_group_pair(bad)


def test_parse_qm_brooks_and_homogenized():
    qm = parse_qm("brooks(w=abAB)")
    assert qm(word("abAB")) == 1
    assert not qm.homogeneous
    h = parse_qm("homog(brooks(w=xyXY))")
    assert h.homogeneous
    assert h.defect_upper == 6
    assert h(word("xyXY")) == 1


def test_parse_qm_zero_and_hom():
    with pytest.raises(SpecError):
        parse_qm("zero")
    z = parse_qm("zero", group=CyclicZ())
    assert z(5) == 0
    idx = parse_qm("hom(indexsum)")
    assert idx.context.n == 3
    assert idx(BraidGroup(3).parse("1,2")) == 2


def test_parse_qm_pullback():
    qm = parse_qm("pullback(homog(brooks(w=xyXY)), pr1)")
    assert qm.homogeneous
    assert qm.defect_upper == 6
    assert "pulled back along pr1" in qm.defect_provenance
    from sclkit.scl import alpha_braid

    assert qm(alpha_braid()) == 1


def test_parse_qm_proj_left_pullback():
    group = parse_group("product:free:2,z")
    qm = parse_qm("pullback(homog(brooks(w=abAB)), proj-left)", group=group)
    assert qm((FreeGroup(2).parse("abAB"), 9)) == 1


def test_parse_qm_derives_every_defect():
    # the bound comes from the construction; nothing can supply another
    cases = [
        ("homog(brooks(w=abAB))", 6, "junction-argument doubled by homogenisation"),
        ("brooks(w=abAB)", 3, "junction-argument"),
        ("brooks(w=a)", 0, "junction-argument"),
    ]
    for spec, defect, provenance in cases:
        qm = parse_qm(spec)
        assert (qm.defect_upper, qm.defect_provenance) == (Fraction(defect), provenance)


def test_parse_qm_error_positions():
    with pytest.raises(SpecError) as exc:
        parse_qm("brooks(w=")
    assert "position" in str(exc.value)
    for bad in ["", "brooks()", "brooks(w=a1)", "homog(zero)", "pullback(zero)", "wibble"]:
        with pytest.raises(SpecError):
            parse_qm(bad, group=CyclicZ())


def test_parse_qm_messages_name_the_broken_part():
    product = parse_group("product:free:2,z")
    for spec, group, message in [
        ("wibble(w=ab)", None, "expected zero, hom"),
        ("hom(indexsum", None, "closed at position 12"),
        ("brooks(w)", None, "w=<word>"),
        ("homog(hom(indexsum))", None, "only wraps brooks"),
        ("pullback(zero proj-left)", product, "a quasimorphism and a map"),
        ("pullback(zero, proj-up)", product, "unknown map 'proj-up'"),
    ]:
        with pytest.raises(SpecError, match=re.escape(message)):
            parse_qm(spec, group=group)


def test_parse_qm_round_trips_with_printed_names():
    product = parse_group("product:free:2,z")
    for qm in [
        parse_qm("brooks(w=abAB)"),
        parse_qm("homog(brooks(w=xyXY))"),
        parse_qm("pullback(homog(brooks(w=xyXY)), pr1)"),
        parse_qm("pullback(homog(brooks(w=abAB)), proj-left)", group=product),
        parse_qm("pullback(zero, proj-right)", group=product),
    ]:
        again = parse_qm(qm.name, group=qm.context)
        assert again.name == qm.name
        assert again.defect_upper == qm.defect_upper


def test_parse_qm_group_mismatch():
    with pytest.raises(SpecError):
        parse_qm("brooks(w=abAB)", group=BraidGroup(3))
    with pytest.raises(SpecError):
        parse_qm("pullback(homog(brooks(w=xyXY)), pr1)", group=CyclicZ())


@pytest.mark.parametrize(
    "spec",
    [
        "free:2", "free:xy", "z", "braid:3", "braid:4", "perm:4",
        "product:free:2,z", "product:braid:3,z", "product:perm:3,z",
        "product:product:free:2,z,z",
    ],
)
def test_element_text_round_trips(spec):
    ctx = parse_group(spec)
    rng = random.Random(900)
    elements = ctx.ball(2) + [ctx.sample(rng, rng.randrange(0, 9)) for _ in range(100)]
    for g in elements:
        assert ctx.eq(ctx.parse(ctx.text(g)), g), ctx.text(g)


def test_product_element_needs_exactly_one_separator():
    ctx = parse_group("product:braid:3,z")
    assert ctx.text(ctx.parse("(1,2,-1,-2;3)")) == "(1,2,-1,-2;3)"
    for bad in ("(1,2,-1,-2,3)", "(1;2;3)", "1,2;3"):
        with pytest.raises(ValueError):
            ctx.parse(bad)


class _QmParser:
    """The cursor-based recursive-descent parser that ``parse_qm`` replaced,
    kept as the reference it must agree with.

    Grammar:
        qm   := "zero" | "hom(" name ")" | "brooks(w=" word ")"
              | "homog(" qm ")" | "pullback(" qm ", " map ")"
        map  := "pr1" | "proj-left" | "proj-right"
    """

    def __init__(self, text, group):
        self.text = text
        self.pos = 0
        self.group = group

    def fail(self, message):
        return SpecError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected a name")
        return self.text[start : self.pos]

    def until(self, stop):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != stop:
            self.pos += 1
        return self.text[start : self.pos]

    def parse(self):
        qm = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.fail("trailing input")
        return qm

    def expr(self):
        name = self.ident()
        if name == "zero":
            if self.group is None:
                raise self.fail("the zero quasimorphism needs a group")
            return zero_qm(self.group)
        if name == "hom":
            return self.hom_expr()
        if name == "brooks":
            return self.brooks_expr(homogenized=False)
        if name == "homog":
            self.expect("(")
            self.skip_ws()
            inner = self.ident()
            if inner != "brooks":
                raise self.fail("exact homogenisation only wraps a counting quasimorphism")
            qm = self.brooks_expr(homogenized=True)
            self.expect(")")
            return qm
        if name == "pullback":
            return self.pullback_expr()
        raise self.fail(f"unknown quasimorphism {name!r}")

    def hom_expr(self):
        self.expect("(")
        name = self.ident()
        self.expect(")")
        if name != "indexsum":
            raise self.fail(f"unknown homomorphism {name!r}; only 'indexsum' is built in")
        ctx = self.group if self.group is not None else BraidGroup(3)
        if not isinstance(ctx, BraidGroup):
            raise SpecError(f"hom(indexsum) lives on braid groups, not {ctx.name}")
        return hom_qm(ctx, index_sum, "indexsum")

    def brooks_expr(self, homogenized):
        self.expect("(")
        self.skip_ws()
        key = self.ident()
        if key != "w":
            raise self.fail("counting quasimorphisms take a single argument w=<word>")
        self.expect("=")
        body = self.until(")").strip()
        self.expect(")")
        ctx = self.group
        if ctx is not None and not isinstance(ctx, FreeGroup):
            raise SpecError(f"counting quasimorphisms live on free groups, not {ctx.name}")
        try:
            pattern = ctx.parse(body) if ctx is not None else word(body)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if not pattern.letters:
            raise SpecError("the counting pattern must be a nonempty word")
        if homogenized:
            return brooks_homogenized(pattern, context=ctx)
        return brooks(pattern, context=ctx)

    def pullback_expr(self):
        self.expect("(")
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                break
            self.pos += 1
        inner_text = self.text[start : self.pos].strip()
        self.expect(",")
        map_name = self.ident()
        self.expect(")")
        hom = self.resolve_map(map_name)
        return pullback(_reference_parse_qm(inner_text, hom.codomain), hom)

    def resolve_map(self, name):
        if name == "pr1":
            if self.group is not None and self.group.name != "braid:3":
                raise SpecError(f"pr1 is the pure-braid projection on braid:3, not {self.group.name}")
            return pr1()
        if name in ("proj-left", "proj-right"):
            if not isinstance(self.group, DirectProduct):
                raise SpecError(f"{name} needs a product group, got "
                                f"{self.group.name if self.group is not None else 'none'}")
            return proj_left(self.group) if name == "proj-left" else proj_right(self.group)
        raise self.fail(f"unknown map {name!r}")


def _reference_parse_qm(text, group):
    return _QmParser(text, group).parse()


def _outcome(parse, spec, group):
    """What a parser makes of a spec: the fields a certificate relies on, or
    the refusal."""
    try:
        qm = parse(spec, group)
    except SpecError:
        return "refused"
    return (qm.name, qm.context.name, qm.defect_upper, qm.defect_provenance,
            qm.homogeneous, qm.invariant)


_SPECS = (
    "zero",
    "hom(indexsum)",
    "brooks(w=abAB)",
    "brooks(w=xyXY)",
    "homog(brooks(w=abAB))",
    "homog(brooks(w=xyXY))",
    "pullback(homog(brooks(w=xyXY)), pr1)",
    "pullback(hom(indexsum), pr1)",
    "pullback(zero, proj-right)",
    "pullback(homog(brooks(w=abAB)), proj-left)",
    "pullback(pullback(brooks(w=ab), proj-left), proj-left)",
    "pullback(pullback(zero, proj-right), proj-left)",
)
_GROUPS = (None, "free:2", "free:xy", "braid:3", "product:free:2,z",
           "product:product:free:2,z,z")
# the grammar's own characters, word text, whitespace and a non-ASCII letter
_ALPHABET = "()=,-_ wabxyABXY^1z\té"


def test_parse_qm_agrees_with_the_cursor_parser_on_grammar_mutants():
    rng = random.Random(18)
    groups = [None if g is None else parse_group(g) for g in _GROUPS]
    cases = [(spec, group) for spec in _SPECS for group in groups]
    for _ in range(6000):
        spec = rng.choice(_SPECS)
        i = rng.randrange(len(spec) + 1)
        op = rng.randrange(3)
        if op == 0:
            spec = spec[:i] + rng.choice(_ALPHABET) + spec[i:]
        elif op == 1:
            spec = spec[:i] + spec[i + 1:]
        else:
            spec = spec[:i] + rng.choice(" \t\n") + spec[i:]
        cases.append((spec, rng.choice(groups)))
    accepted = 0
    for spec, group in cases:
        expected = _outcome(_reference_parse_qm, spec, group)
        assert _outcome(parse_qm, spec, group) == expected, (spec, group and group.name)
        accepted += expected != "refused"
    # both decisions are well represented
    assert 300 < accepted < len(cases) - 300


def test_nested_pullbacks_and_whitespace_round_trip():
    group = parse_group("product:product:free:2,z,z")
    left = "pullback(pullback(homog(brooks(w=abAB)), proj-left), proj-left)"
    right = "pullback(pullback(zero, proj-right), proj-left)"
    for spec, name in (
        (left, left),
        ("  pullback ( pullback(homog ( brooks( w = ab AB ) ) ,proj-left ),\tproj-left )\n", left),
        (right, right),
        ("pullback( pullback( zero ,proj-right) , proj-left)", right),
    ):
        qm = parse_qm(spec, group=group)
        assert (qm.name, qm.context.name) == (name, group.name)
        assert _outcome(parse_qm, qm.name, qm.context) == _outcome(parse_qm, spec, group)
        assert _outcome(parse_qm, spec, group) == _outcome(_reference_parse_qm, spec, group)


def test_deep_pullback_specs_are_refused_without_recursion_errors():
    product = parse_group("product:" * MAX_PRODUCT_DEPTH + "free:2" + ",z" * MAX_PRODUCT_DEPTH)
    deep = 10**4
    for spec, group in (
        ("pullback(" * deep, None),
        ("pullback(" * deep + "zero" + ", pr1)" * deep, None),
        ("pullback(" * deep + "zero" + ", proj-left)" * deep, product),
    ):
        with pytest.raises(SpecError):
            parse_qm(spec, group=group)
