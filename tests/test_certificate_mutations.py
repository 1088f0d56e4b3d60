"""A mutation corpus over certificate items, driven by the kind table.

Every field of suite item 11's standalone certificates, one kind of the
table at a time, is deleted, swapped for a value of another type,
perturbed as a rational, relabelled and, for a power, made oversized.
Each mutant must fail at a step the README names, or state the same claim
as the original: kind, pair, target, direction and bound.  A value of the
wrong type must be refused where its type is read (``schema`` for an item
field, ``witness`` inside the witness, ``defect provenance`` for a lower
item's provenance), never by arithmetic further on.
"""

import copy
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sclkit.certio import KINDS, WITNESS_TEXT_BUDGET, verify_payload
from sclkit.suite import standalone_certificates

README = Path(__file__).resolve().parent.parent / "README.md"
CORPUS = Path(__file__).resolve().parent / "certificates"

PAIRS = ("braid:3/pure", "braid:3/pure-ordinary", "braid:3/comm", "braid:3")

# one value of each JSON type; True stands in for an int as well
TYPE_SWAPS = (None, True, 1, 1.5, "1", [], {})

# A relabel that verifies states a claim about another pair, so it must be
# a true one.  The flip factors [delta, alpha^-n] have alpha^-n of index sum
# 0, which makes each one a mixed commutator of (B3, [B3, B3]) as well, and
# each is a commutator of B3.  The pr1 lower bound is no claim about B3:
# pr1 does not extend to B3, and the flip family gives scl_B3(alpha) <= 1/64.
TRUE_RELABELS = {("scl-upper-decomposition", "braid:3/comm"),
                 ("scl-upper-decomposition", "braid:3")}


def _named_steps() -> set[str]:
    text = README.read_text()
    start = text.index("fails naming the first broken step (")
    return set(re.findall(r"`([^`]+)`", text[start:text.index(")", start)]))


def _paths(node, prefix=()):
    """The path of every field and list entry below node."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        path = prefix + (key,)
        yield path
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path)


_DELETE = object()


def _mutated(payload, path, new):
    mutant = copy.deepcopy(payload)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return mutant


def _mutants(payload):
    """(label, the step that refuses it as a type swap or None, mutant) for
    every mutation of every field."""
    for path in _paths(payload):
        value = payload
        for key in path:
            value = value[key]
        field = path[-1]
        replacements = [("deleted", None, _DELETE)]
        replacements += [(f"type {type(new).__name__}", _type_step(path), new)
                         for new in TYPE_SWAPS if type(new) is not type(value)]
        if field in ("bound", "value", "defect_upper"):
            q = Fraction(value)
            for new in (q + 1, q - Fraction(1, 7), -q, 2 * q, q + Fraction(1, 10**30)):
                if new != q:
                    replacements.append((f"rational {new}", None, str(new)))
        if field == "group_pair":
            replacements += [(f"relabel {p}", None, p) for p in PAIRS if p != value]
        if field == "kind":
            replacements += [(f"relabel {k}", None, k) for k in KINDS if k != value]
        if field == "direction":
            directions = sorted({row[0] for row in KINDS.values()})
            replacements += [(f"relabel {d}", None, d) for d in directions if d != value]
        if field == "power":
            replacements += [("oversized", None, WITNESS_TEXT_BUDGET + 1),
                             ("oversized", None, 10**4000)]
        for label, type_step, new in replacements:
            yield f"{path} {label}", type_step, _mutated(payload, path, new)


def _type_step(path):
    """The step that refuses a value of the wrong type at path."""
    if len(path) == 1:
        return "schema"
    return "witness" if path[0] == "witness" else "defect provenance"


def _statement(payload):
    return (payload["kind"], payload["group_pair"], payload["target"],
            payload["direction"], Fraction(payload["bound"]))


@pytest.fixture(scope="module")
def payloads():
    return standalone_certificates()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_mutant_fails_at_a_named_step_or_keeps_its_claim(kind, payloads):
    named = _named_steps()
    originals = [p for p in payloads if p["kind"] == kind]
    assert originals, f"item 11 writes no {kind} certificate to mutate"
    problems, relabels, count = [], set(), 0
    for original in originals:
        ok, _, _, keys = verify_payload(original)
        assert ok
        for label, type_step, mutant in _mutants(original):
            count += 1
            ok, step, detail, mutant_keys = verify_payload(mutant)
            if ok:
                if _statement(mutant) != _statement(original):
                    relabels.add((kind, mutant["group_pair"]))
                    if (kind, mutant["group_pair"]) not in TRUE_RELABELS:
                        problems.append(f"{label}: verifies a changed claim")
                elif mutant_keys != keys:
                    problems.append(f"{label}: the same claim rests on {mutant_keys}")
            elif re.sub(r"\d+$", "i", step) not in named:
                problems.append(f"{label}: failed at unnamed step {step!r}: {detail}")
            elif type_step is not None and step != type_step:
                problems.append(f"{label}: wrong type refused at {step!r}: {detail}")
    assert not problems, problems
    assert relabels == {r for r in TRUE_RELABELS if r[0] == kind}
    assert count > 50


@pytest.mark.parametrize("provenance", [5, ["junction-argument"], {"x": 1}],
                         ids=["number", "list", "object"])
def test_a_lower_provenance_of_another_json_type_fails(provenance):
    # only a string was compared, so these verified; null and absent stay
    # accepted, since upper items write null
    item = json.loads((CORPUS / "pure-ordinary-lower.json").read_text())["items"][1]
    assert verify_payload(item)[0]
    ok, step, detail, keys = verify_payload(
        _mutated(item, ("evidence", "defect_provenance"), provenance))
    assert (ok, step, keys) == (False, "defect provenance", ()), detail
    for accepted in (None, _DELETE, item["evidence"]["defect_provenance"]):
        assert verify_payload(_mutated(item, ("evidence", "defect_provenance"), accepted))[0]
