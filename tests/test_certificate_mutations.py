"""A mutation corpus over certificate items, driven by the kind table.

Every field of suite item 11's standalone certificates, one kind of the
table at a time, is deleted, swapped for a value of another type,
perturbed as a rational, relabelled and, for a power, made oversized.
Each mutant must fail at a step the README names, or state the same claim
as the original: kind, pair, target, direction and bound.  A value of the
wrong type must be refused where types are read (``schema`` for the item,
``witness`` inside the witness), never by arithmetic further on.
"""

import copy
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sclkit.certio import KINDS, WITNESS_TEXT_BUDGET, verify_payload
from sclkit.suite import standalone_certificates

README = Path(__file__).resolve().parent.parent / "README.md"

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
    """(label, is a type swap, mutant) for every mutation of every field."""
    for path in _paths(payload):
        value = payload
        for key in path:
            value = value[key]
        field = path[-1]
        replacements = [("deleted", False, _DELETE)]
        replacements += [(f"type {type(new).__name__}", True, new)
                         for new in TYPE_SWAPS if type(new) is not type(value)]
        if field in ("bound", "value", "defect_upper"):
            q = Fraction(value)
            for new in (q + 1, q - Fraction(1, 7), -q, 2 * q, q + Fraction(1, 10**30)):
                if new != q:
                    replacements.append((f"rational {new}", False, str(new)))
        if field == "group_pair":
            replacements += [(f"relabel {p}", False, p) for p in PAIRS if p != value]
        if field == "kind":
            replacements += [(f"relabel {k}", False, k) for k in KINDS if k != value]
        if field == "direction":
            directions = sorted({row[0] for row in KINDS.values()})
            replacements += [(f"relabel {d}", False, d) for d in directions if d != value]
        if field == "power":
            replacements += [("oversized", False, WITNESS_TEXT_BUDGET + 1),
                             ("oversized", False, 10**4000)]
        for label, swap, new in replacements:
            yield f"{path} {label}", swap, _mutated(payload, path, new)


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
        assert verify_payload(original)[0]
        for label, swap, mutant in _mutants(original):
            count += 1
            ok, step, detail = verify_payload(mutant)
            if ok:
                if _statement(mutant) != _statement(original):
                    relabels.add((kind, mutant["group_pair"]))
                    if (kind, mutant["group_pair"]) not in TRUE_RELABELS:
                        problems.append(f"{label}: verifies a changed claim")
            elif re.sub(r"\d+$", "i", step) not in named:
                problems.append(f"{label}: failed at unnamed step {step!r}: {detail}")
            elif swap and step not in ("schema", "witness"):
                problems.append(f"{label}: wrong type refused at {step!r}: {detail}")
    assert not problems, problems
    assert relabels == {r for r in TRUE_RELABELS if r[0] == kind}
    assert count > 50
