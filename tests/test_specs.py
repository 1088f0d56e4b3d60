"""Text specs for groups, pairs, and quasimorphisms round-trip with names."""

import os
import random
import tempfile
from fractions import Fraction

import pytest

from sclkit.braids import BraidGroup
from sclkit.groups import CyclicZ, DirectProduct, FreeGroup, SymmetricGroup
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


def test_parse_group_table_file():
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    with tempfile.NamedTemporaryFile("w", suffix=".table", delete=False) as f:
        f.write(text)
        path = f.name
    try:
        tg = parse_group(f"table:{path}")
        assert len(list(tg.elements())) == 3
    finally:
        os.unlink(path)


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
    assert parse_group(f"free:{MAX_FREE_RANK}").rank == MAX_FREE_RANK == 26
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
    assert h(word("xyXY", 25)) == 1


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


@pytest.mark.parametrize(
    "text, message",
    [("", "empty"), ("3\n0 1 2\n", "truncated"), ("2\n0 x\n1 0\n", "invalid literal"),
     ("2\n0 1\n1 1\n", "inverse"), ("\xff", "bad multiplication table")],
)
def test_parse_group_turns_bad_table_files_into_spec_errors(tmp_path, text, message):
    path = tmp_path / "bad.tbl"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SpecError, match=message):
        parse_group(f"table:{path}")


def test_a_table_spec_is_never_split_at_a_slash(tmp_path):
    path = tmp_path / "z2.tbl"
    path.write_text("2\n0 1\n1 0\n")
    pair = parse_group_pair(f"table:{path}")
    assert pair.mode == "ordinary" and pair.name == f"table:{path}"
    with pytest.raises(SpecError, match="no multiplication table file"):
        parse_group_pair(f"table:{path}/left")


def test_a_product_with_an_absolute_table_path_is_split_only_at_a_pair_suffix(tmp_path):
    path = tmp_path / "dir" / "z2.tbl"
    path.parent.mkdir()
    path.write_text("2\n0 1\n1 0\n")
    spec = f"product:table:{path},z"
    pair = parse_group_pair(spec)
    assert pair.mode == "ordinary" and pair.name == spec
    assert isinstance(pair.ambient, DirectProduct)
    left = parse_group_pair(f"{spec}/left")
    assert left.mode == "mixed" and left.name == f"{spec}/left"
    with pytest.raises(SpecError, match="unknown pair suffix 'leftt'"):
        parse_group_pair("product:free:2,z/leftt")
