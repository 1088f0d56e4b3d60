"""Certificate serialization and the named verification steps.

Every failure step the verifier can report is exercised by corrupting a
genuine certificate in exactly one place.
"""

import copy
import json
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sclkit import certio
from sclkit.braids import braid, half_twist, pr1
from sclkit.certio import (
    FORMAT,
    KINDS,
    MAX_DOCUMENT_ITEMS,
    WITNESS_TEXT_BUDGET,
    document,
    dumps,
    load_document,
    verify_document,
    verify_file,
    verify_payload,
    write_text_atomic,
)
from sclkit.extension import braid_abelianization_section, extend_via_section
from sclkit.quasimorphisms import brooks_homogenized, pullback
from sclkit.scl import (
    MixedCommutatorDecomposition,
    bavard_lower,
    braid_commutator_pair,
    braid_pure_pair,
    conjugate_flip_decomposition,
    pure_ordinary_pair,
    upper_from_decomposition,
    verify_decomposition,
)
from sclkit.specs import parse_group_pair, parse_qm
from sclkit.suite import alpha_braid
from sclkit.words import TRUSTED, StepFailure, word


@pytest.fixture(scope="module")
def upper_cert():
    pair = braid_pure_pair()
    alpha = alpha_braid()
    return upper_from_decomposition(conjugate_flip_decomposition(pair, alpha, half_twist(3), 2))


@pytest.fixture(scope="module")
def lower_cert():
    qm = pullback(brooks_homogenized(word("xyXY")), pr1())
    return bavard_lower(alpha_braid(), qm, pure_ordinary_pair())


def test_document_envelope(upper_cert, lower_cert):
    doc = document([upper_cert, lower_cert])
    assert doc["format"] == FORMAT == "scl-certificates/1"
    assert len(doc["items"]) == 2
    report = verify_document(doc, source="<memory>")
    assert report.ok
    assert all(c.ok for c in report.checks)


def test_dumps_is_canonical(upper_cert):
    doc = document([upper_cert])
    text = dumps(doc)
    assert text.endswith("\n")
    assert dumps(json.loads(text)) == text
    # key order in the input dict must not matter
    reordered = json.loads(text)
    reordered["items"][0] = dict(reversed(list(reordered["items"][0].items())))
    assert dumps(reordered) == text


def test_write_text_atomic(tmp_path):
    path = tmp_path / "out" / "cert.json"
    os.makedirs(path.parent, exist_ok=True)
    write_text_atomic("hello\n", str(path))
    assert path.read_text() == "hello\n"
    write_text_atomic("replaced\n", str(path))
    assert path.read_text() == "replaced\n"
    leftovers = [p for p in os.listdir(path.parent) if p != "cert.json"]
    assert leftovers == []


def test_write_text_atomic_gives_a_new_file_the_umask_mode_and_keeps_an_old_ones(
    tmp_path, upper_cert
):
    old_umask = os.umask(0o022)
    try:
        path = tmp_path / "certs.json"
        write_text_atomic("hello\n", path)
        assert path.stat().st_mode & 0o777 == 0o644
        os.chmod(path, 0o640)
        write_text_atomic(dumps(document([upper_cert])), path)
        assert path.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(old_umask)
    assert os.listdir(tmp_path) == ["certs.json"]


def test_write_and_verify_file_round_trip(tmp_path, upper_cert, lower_cert):
    path = str(tmp_path / "certs.json")
    write_text_atomic(dumps(document([upper_cert, lower_cert])), path)
    report = verify_file(path)
    assert report.ok
    assert report.source == path
    loaded = load_document(path)
    assert loaded == document([upper_cert, lower_cert])


def test_document_names_the_first_certificate_that_fails(upper_cert, lower_cert):
    document([upper_cert, lower_cert])
    bumped = corrupted(lower_cert, lambda p: p["witness"].update(value="2"))
    broken = corrupted(upper_cert, lambda p: p["witness"]["factors"][0].__setitem__(1, "1"))
    with pytest.raises(StepFailure) as exc:
        document([upper_cert, bumped, broken])
    assert exc.value.step == "self-verification"
    assert exc.value.detail.startswith("FAIL item 1 (scl-lower-bavard) at step qm value: ")


def test_document_refuses_a_forged_bound_before_anything_is_written(tmp_path, upper_cert):
    # a hand-built item claiming scl <= 1/1000 from one factor at power 4
    forged = corrupted(upper_cert, lambda p: p.update(bound="1/1000"))
    path = tmp_path / "forged.json"
    with pytest.raises(StepFailure) as exc:
        write_text_atomic(dumps(document([forged])), path)
    assert exc.value.step == "self-verification"
    assert exc.value.detail.startswith(
        "FAIL item 0 (scl-upper-decomposition) at step bound arithmetic: "
    )
    assert os.listdir(tmp_path) == []


def test_verify_file_reports_schema_on_garbage(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    report = verify_file(str(empty))
    assert not report.ok
    assert report.schema_error is not None
    assert "schema" in report.describe()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    report = verify_file(str(bad))
    assert not report.ok
    assert "not valid JSON" in report.schema_error


def test_load_document_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(StepFailure, match="^schema: not UTF-8"):
        load_document(path)
    assert verify_file(str(path)).schema_error.startswith("schema: not UTF-8")


def test_load_document_reads_a_small_file_without_a_buffer_for_the_cap():
    # read(n) allocates n bytes before it reads, so one read capped at
    # MAX_DOCUMENT_BYTES + 1 would hold 16 MiB for every file
    path = Path(__file__).with_name("certificates") / "flip-alpha-n4.json"
    tracemalloc.start()
    try:
        doc = load_document(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == json.loads(path.read_text())
    assert peak < 0.25 * 2**20, f"loading {path.stat().st_size} bytes peaked at {peak} bytes"


def test_load_document_reads_the_cap_across_chunks_and_refuses_one_byte_more(tmp_path, monkeypatch):
    cap = 200_003  # several reads, the last one short
    monkeypatch.setattr(certio, "MAX_DOCUMENT_BYTES", cap)
    text = json.dumps({"pad": "x" * (cap - 11)})
    assert len(text) == cap
    path = tmp_path / "cap.json"
    path.write_text(text)
    assert load_document(path) == {"pad": "x" * (cap - 11)}
    path.write_text(text + " ")
    with pytest.raises(StepFailure, match=f"^schema: certificate file longer than {cap} bytes$"):
        load_document(path)


def test_load_document_refuses_nesting_past_the_recursion_limit(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(StepFailure, match="^schema: JSON nested too deeply"):
        load_document(path)
    assert verify_file(str(path)).schema_error == "schema: JSON nested too deeply"


def test_load_document_refuses_integers_past_the_digit_limit(tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal of more than 4300 digits
    path = tmp_path / "huge.json"
    path.write_text('{"format": "scl-certificates/1", "items": [' + "9" * 5000 + "]}")
    with pytest.raises(StepFailure, match="^schema: .*4300 digits"):
        load_document(path)
    assert verify_file(str(path)).schema_error.startswith("schema: ")


def test_verify_document_rejects_wrong_envelope(upper_cert):
    doc = document([upper_cert])
    for mutant, expect in [
        ({**doc, "format": "scl-certificates/2"}, "format"),
        ({"items": doc["items"]}, "format"),
        ({**doc, "items": "nope"}, "items"),
    ]:
        report = verify_document(mutant, source="<memory>")
        assert not report.ok
        assert expect in report.schema_error


def test_verify_document_refuses_more_items_than_the_cap():
    at_cap = verify_document({"format": FORMAT, "items": [{}] * MAX_DOCUMENT_ITEMS})
    assert at_cap.schema_error is None and len(at_cap.checks) == MAX_DOCUMENT_ITEMS
    over = verify_document({"format": FORMAT, "items": [{}] * (MAX_DOCUMENT_ITEMS + 1)})
    assert over.checks == ()
    assert over.schema_error == (
        f"schema: {MAX_DOCUMENT_ITEMS + 1} items, over the limit of {MAX_DOCUMENT_ITEMS}"
    )


def corrupted(cert, edit):
    payload = copy.deepcopy(cert)
    edit(payload)
    return payload


UPPER_FAULTS = [
    ("schema", lambda p: p.pop("witness")),
    ("schema", lambda p: p.update(kind="scl-sideways")),
    ("schema", lambda p: p.update(direction="lower")),
    ("schema", lambda p: p.update(verified=False)),
    ("witness", lambda p: p["witness"].update(power="two")),
    ("group pair", lambda p: p.update(group_pair="braid:9/pure")),
    ("target", lambda p: p.update(target="1,oops")),
    ("target membership", lambda p: p.update(target="1")),
    ("witness", lambda p: p["witness"].update(factors=[["1,2"]])),
    ("bound arithmetic", lambda p: p.update(bound="1/3")),
    ("membership of factor 0", lambda p: p["witness"]["factors"][0].__setitem__(1, "1")),
    ("product equality", lambda p: p["witness"]["factors"][0].__setitem__(0, "1,2")),
    # over the work budget, refused before any multiplication; the power
    # case runs in a fresh process in test_cli
    ("witness", lambda p: p["witness"].update(factors=p["witness"]["factors"] * 300)),
    ("witness", lambda p: p["witness"]["factors"][0].__setitem__(0, "1," * 20_000 + "1")),
    # exponent syntax is not element text
    ("witness", lambda p: p["witness"]["factors"][0].__setitem__(0, "s1^10000000")),
]

LOWER_FAULTS = [
    ("schema", lambda p: p.pop("bound")),
    ("target membership", lambda p: p.update(target="1")),
    ("quasimorphism", lambda p: p["witness"].update(qm="brooks(w=")),
    # the half twist flips the sign of the pr1 pullback, so it bounds no
    # mixed length; refused before the (also corrupted) value is recomputed
    (
        "invariance",
        lambda p: (p.update(group_pair="braid:3/pure"), p["witness"].update(value="2")),
    ),
    ("qm value", lambda p: p["witness"].update(value="2")),
    ("defect", lambda p: p["witness"].update(defect_upper="5")),
    (
        "defect provenance",
        lambda p: p["evidence"].update(defect_provenance="junction-argument"),
    ),
    ("bound arithmetic", lambda p: p.update(bound="1/6")),
]


@pytest.mark.parametrize("step,edit", UPPER_FAULTS, ids=[s for s, _ in UPPER_FAULTS])
def test_upper_fault_injection(upper_cert, step, edit):
    ok, failed_step, detail, _ = verify_payload(corrupted(upper_cert, edit))
    assert not ok
    assert failed_step == step, detail


@pytest.mark.parametrize("step,edit", LOWER_FAULTS, ids=[s for s, _ in LOWER_FAULTS])
def test_lower_fault_injection(lower_cert, step, edit):
    ok, failed_step, detail, _ = verify_payload(corrupted(lower_cert, edit))
    assert not ok
    assert failed_step == step, detail


def test_a_forged_bound_fails_before_any_multiplication(upper_cert, monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        verify_decomposition(d)

    monkeypatch.setattr(certio, "verify_decomposition", counted)
    ok, step, detail, _ = verify_payload(corrupted(upper_cert, lambda p: p.update(bound="1/3")))
    assert (ok, step, len(calls)) == (False, "bound arithmetic", 0), detail
    assert detail == "claimed bound 1/3, the witness gives 1/4"
    assert verify_payload(upper_cert) == (
        True, None, "recomputed and confirmed", ("b3-key", "b3-purity"))
    assert len(calls) == 1


def test_a_kind_that_reuses_a_witness_checker_is_one_row(upper_cert, monkeypatch):
    # one factor at power 4, read by a rule of half the upper bound
    _, check_upper, _, rule_keys = certio.KINDS["scl-upper-decomposition"]
    row = ("upper", check_upper, lambda k, p: Fraction(k, 2 * p), rule_keys)
    monkeypatch.setitem(certio.KINDS, "scl-upper-halved", row)
    halved = corrupted(upper_cert, lambda p: p.update(kind="scl-upper-halved", bound="1/8"))
    assert verify_payload(halved) == (
        True, None, "recomputed and confirmed", ("b3-key", "b3-purity"))
    assert verify_document({"format": FORMAT, "items": [halved, upper_cert]}).ok
    for bound in ("1/4", "1/16"):
        ok, step, detail, _ = verify_payload(corrupted(halved, lambda p: p.update(bound=bound)))
        assert (ok, step) == (False, "bound arithmetic"), detail
        assert detail == f"claimed bound {bound}, the witness gives 1/8"
    # the witness checker still runs its costly check after the bound
    broken = corrupted(halved, lambda p: p["witness"]["factors"][0].__setitem__(0, "1,2"))
    assert verify_payload(broken)[:2] == (False, "product equality")


def test_exponent_syntax_is_refused_before_parsing(upper_cert, lower_cert):
    # a separate test, since a second "target" row in UPPER_FAULTS would
    # rename the existing test id
    cases = [
        (upper_cert, "target", lambda p: p.update(target="s1^10000000 s2")),
        (lower_cert, "target", lambda p: p.update(target="s1^10000000 s2")),
        (
            lower_cert,
            "quasimorphism",
            lambda p: p["witness"].update(qm="pullback(homog(brooks(w=x^100000000)), pr1)"),
        ),
    ]
    for cert, step, edit in cases:
        ok, failed_step, detail, _ = verify_payload(corrupted(cert, edit))
        assert not ok
        assert failed_step == step, detail


def test_text_over_the_budget_is_refused_before_parsing(upper_cert, lower_cert):
    over = "1," * (WITNESS_TEXT_BUDGET // 2) + "1"
    # a braid:3/pure target of 0.8 MB was parsed and walked for 3.6 s before
    # it failed at target membership
    huge = "1," * 400_000
    long_qm = "pullback(homog(brooks(w=" + "xy" * (WITNESS_TEXT_BUDGET // 2) + ")), pr1)"
    cases = [
        (upper_cert, "target", lambda p: p.update(target=huge)),
        (lower_cert, "target", lambda p: p.update(target=over)),
        (lower_cert, "quasimorphism", lambda p: p["witness"].update(qm=long_qm)),
    ]
    for cert, step, edit in cases:
        ok, failed_step, detail, _ = verify_payload(corrupted(cert, edit))
        assert not ok
        assert failed_step == step, detail
        assert f"over the budget of {WITNESS_TEXT_BUDGET}" in detail
    # at the budget the target is read: s1^10000 is pure, and its value differs
    at_budget = " " + "1," * (WITNESS_TEXT_BUDGET // 2 - 1) + "1"
    assert len(at_budget) == WITNESS_TEXT_BUDGET
    ok, failed_step, detail, _ = verify_payload(
        corrupted(lower_cert, lambda p: p.update(target=at_budget))
    )
    assert failed_step == "qm value", detail


def test_boolean_power_is_refused_at_witness():
    # true is an int to Python; as power 1 the single commutator
    # [s1^2, s2^2] = alpha would give the claimed bound 1 exactly
    alpha = alpha_braid()
    d = MixedCommutatorDecomposition(
        pure_ordinary_pair(), alpha, 1, ((braid("1,1", 3), braid("2,2", 3)),)
    )
    payload = upper_from_decomposition(d)
    assert verify_payload(payload)[0]
    payload["witness"]["power"] = True
    ok, step, detail, _ = verify_payload(payload)
    assert not ok
    assert step == "witness", detail


# Spellings Fraction accepts but no writer emits (str(Fraction) writes
# -?n or -?n/d in ASCII digits, in lowest terms, with no leading zero, no
# "/1" and no "-0"), listed under a value the verifier recomputes: the
# upper bound 1/4, the lower bound 1/12, the value 1 and the defect 6.
# Most spell that value; "2/4" and "-0" spell another, and are refused for
# their form all the same.
NON_CANONICAL = {
    "1/4": ["0.25", "2.5e-1", " 1/4", "1/4\n", "+1/4", "1_0/40", "\u0661/4", "2/8", "2/4",
            "-0"],
    "1/12": ["1/12 ", "\u06601/12", "1_0/120", "+1/12", "01/12", "2/24", "1/012"],
    "1": ["1.0", "1e0", "1E0", " 1", "\u0661", "2/2", "1/1", "01"],
    "6": ["6.0", "6e0", "6_0/10", "\t6", "06", "12/2", "6/1"],
}


def test_rationals_are_read_only_as_fraction_writes_them(upper_cert, lower_cert):
    fields = [
        (upper_cert, "bound arithmetic", "1/4", lambda p, v: p.update(bound=v)),
        (lower_cert, "bound arithmetic", "1/12", lambda p, v: p.update(bound=v)),
        (lower_cert, "witness", "1", lambda p, v: p["witness"].update(value=v)),
        (lower_cert, "witness", "6", lambda p, v: p["witness"].update(defect_upper=v)),
    ]
    for cert, step, canonical, edit in fields:
        assert verify_payload(corrupted(cert, lambda p: edit(p, canonical)))[0]
        for text in NON_CANONICAL[canonical] + ["1e99999999", "1/0", "9" * 5000, "", "-"]:
            ok, failed_step, detail, _ = verify_payload(corrupted(cert, lambda p: edit(p, text)))
            assert (ok, failed_step) == (False, step), (text, detail)
            assert "is not a rational number" in detail


def test_unmodified_payloads_verify(upper_cert, lower_cert):
    for cert in (upper_cert, lower_cert):
        ok, step, detail, _ = verify_payload(cert)
        assert ok, f"{step}: {detail}"


def test_user_config_defect_fails_at_defect(lower_cert):
    # a file that names its own defect: the verifier rebuilds the bound of
    # 6 and never reads the claimed 1/1000, so "scl >= 500" is refused
    def forge(p):
        p["evidence"]["defect_provenance"] = "user-config; pulled back along pr1"
        p["witness"]["defect_upper"] = "1/1000"
        p["bound"] = "500"

    ok, step, detail, _ = verify_payload(corrupted(lower_cert, forge))
    assert not ok
    assert step == "defect", detail
    assert "6" in detail


def test_parent_format_with_invariance_sample_still_verifies(upper_cert, lower_cert):
    # files written before the sample was dropped carry an evidence key
    # that the verifier never reads; the document holds the fixtures' own
    # dicts, so edit a copy
    doc = copy.deepcopy(document([upper_cert, lower_cert]))
    doc["items"][0]["evidence"]["invariance_sample"] = None
    doc["items"][1]["evidence"]["invariance_sample"] = {"checked": 99, "violations": 0}
    assert verify_document(doc).ok


def test_report_as_dict_has_no_wall_times(tmp_path, upper_cert):
    path = str(tmp_path / "c.json")
    write_text_atomic(dumps(document([upper_cert])), path)
    d = verify_file(path).as_dict()
    flat = json.dumps(d)
    assert "seconds" not in flat and "time" not in flat


def test_load_document_missing_file_raises(tmp_path):
    # a missing file and a directory: each is refused before any byte is read
    for path in ("/nonexistent/certs.json", tmp_path):
        with pytest.raises(StepFailure, match="^schema: cannot read certificate file: ") as exc:
            load_document(path)
        assert exc.value.step == "schema"
        assert verify_file(path).schema_error == str(exc.value)


README = Path(__file__).resolve().parent.parent / "README.md"
CORPUS = Path(__file__).resolve().parent / "certificates"


def test_readme_trust_table_is_the_registry():
    text = README.read_text()
    start = text.index("| key | the result `verify` takes on trust |")
    rows = text[start:text.index("\n\n", start)].splitlines()[2:]
    table = {}
    for row in rows:
        key, citation = re.fullmatch(r"\| `([^`]+)` \| (.+) \|", row).groups()
        table[key] = citation
    assert table == {key: citation for key, (citation, _) in TRUSTED.items()}


def test_every_key_a_rebuilt_object_names_is_in_the_trust_table():
    named = set()
    for _, _, _, rule_keys in KINDS.values():
        for keys in rule_keys.values():
            named |= set(keys)
    for spec in ("free:2", "z", "perm:3", "braid:2", "braid:3", "braid:4", "braid:3/pure",
                 "braid:3/pure-ordinary", "braid:3/comm", "braid:5/comm",
                 "product:braid:3,z/left", "product:braid:4,braid:3"):
        named |= set(parse_group_pair(spec).rests_on)
    qms = [parse_qm(spec, group=parse_group_pair(group).ambient) for group, spec in (
        ("free:2", "zero"), ("braid:3", "hom(indexsum)"), ("free:2", "brooks(w=ab)"),
        ("free:2", "homog(brooks(w=abAB))"), ("braid:3", "pullback(homog(brooks(w=xyXY)), pr1)"),
        ("product:z,free:2", "pullback(homog(brooks(w=ab)), proj-right)"),
    )]
    qms.append(extend_via_section(qms[1], braid_abelianization_section(), 4).phi_prime)
    for qm in qms:
        named |= set(qm.rests_on)
    assert named == set(TRUSTED)
    # a derivation writes provenance; a rule or an equality test does not
    derivations = {key for qm in qms for key in qm.rests_on}
    assert {key for key, (_, provenance) in TRUSTED.items() if provenance} == derivations


def test_the_transport_provenance_is_built_from_the_trust_table():
    # no certificate holds it, so no golden pins its text
    section = braid_abelianization_section()
    phi = extend_via_section(parse_qm("hom(indexsum)"), section, 4).phi_prime
    assert phi.rests_on == ("homomorphism", "transport")
    assert phi.defect_provenance == (f"homomorphism; transported along {section.name}, "
                                     "defect preserved by ambient invariance")


def test_rests_on_names_the_rule_the_pair_and_the_quasimorphism(upper_cert, lower_cert):
    assert verify_payload(lower_cert)[3] == (
        "b3-key", "b3-purity", "duality", "homogenisation", "junction", "pr1")
    assert verify_payload(upper_cert)[3] == ("b3-key", "b3-purity")
    f2 = parse_group_pair("free:2")
    free_upper = upper_from_decomposition(MixedCommutatorDecomposition(
        f2, word("abAB"), 1, ((word("a"), word("b")),)))
    assert verify_payload(free_upper) == (True, None, "recomputed and confirmed", ())
    # mixed mode: the paper's inequality for invariant quasimorphisms
    comm = braid_commutator_pair(4)
    mixed_lower = bavard_lower(braid("1,-2", 4), parse_qm("hom(indexsum)", group=comm.ambient), comm)
    assert verify_payload(mixed_lower)[3] == ("dynnikov", "homomorphism", "mixed-duality")
    # a failed item rests on nothing
    assert verify_payload(corrupted(lower_cert, lambda p: p.update(bound="1")))[3] == ()


def test_an_edit_to_note_or_evidence_keeps_rests_on_or_fails_the_item():
    # the keys are read off what verify rebuilt, so no text outside the
    # statement moves them
    item = json.loads((CORPUS / "pure-ordinary-lower.json").read_text())["items"][1]
    ok, _, _, keys = verify_payload(item)
    assert ok and "pr1" in keys
    edits = [
        lambda p: p.update(note="rests on nothing"),
        lambda p: p.update(note=""),
        lambda p: p["evidence"].update(rests_on=["duality"]),
        lambda p: p["evidence"].update(defect_provenance=None),
        lambda p: p["evidence"].pop("defect_provenance"),
        lambda p: p.update(evidence={}),
        lambda p: p["evidence"].update(defect_provenance="junction-argument"),
        lambda p: p["evidence"].update(
            defect_provenance="junction-argument doubled by homogenisation"),
        lambda p: p["evidence"].update(defect_provenance=["junction"]),
    ]
    outcomes = []
    for edit in edits:
        ok, step, _, got = verify_payload(corrupted(item, edit))
        assert got == (keys if ok else ()), step
        outcomes.append(ok)
    assert outcomes == [True] * 6 + [False] * 3
