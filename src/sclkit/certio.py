"""Certificate files: deterministic JSON output and untrusting re-verification.

A certificate file is an envelope ``{"format": ..., "items": [...]}`` whose
items are the payloads that ``scl.bavard_lower`` and
``scl.upper_from_decomposition`` return.  The verifier rebuilds every
group, element and quasimorphism from their text forms and recomputes each
claimed fact from scratch; the only thing taken from the file is the
statement being checked.  Any failure names the step that broke.  A kind
is one ``KINDS`` row: its direction, a witness checker and a bound rule
from ``scl``.  The checker returns the facts the rule reads and the costly
checks still to run; ``verify_payload`` compares every claimed bound with
its rule in one place, before those checks.  ``document`` runs the same
check on every item before it builds an envelope, so each document sclkit
writes holds only items that verify.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import specs
from .scl import (
    MixedCommutatorDecomposition,
    bavard_bound,
    decomposition_bound,
    invariance_refusal,
    verify_decomposition,
)
from .words import Frozen, StepFailure

FORMAT = "scl-certificates/1"

_PAYLOAD_FIELDS = {
    "kind": str,
    "target": str,
    "group_pair": str,
    "bound": str,
    "direction": str,
    "witness": dict,
    "evidence": dict,
    "verified": bool,
    "note": str,
}


# Work budget of one item, checked before any parsing or multiplication.
# Sizes are characters of text, and element text is its letters (no syntax
# expands), so every group spends at least a character per letter.  The
# budget holds a group pair, a target, a quasimorphism, an upper item's
# power x target and all of its factor text.  At --n-max 128, scl-bounds on
# alpha writes at most 4864 for power x target and 2567 for all factor text;
# cmd_scl_bounds refuses a target or an --n-max over budget.
WITNESS_TEXT_BUDGET = 20_000
WITNESS_FACTOR_BUDGET = 256

# Most items verify reads from one document, checked before any item.  Flip
# item n has power 2n, so no target fits more than WITNESS_TEXT_BUDGET // 2
# flip items; the longest document scl-bounds writes, perm:2 at target 2,1
# with --n-max 3333 and a lower item, has 3334.
MAX_DOCUMENT_ITEMS = WITNESS_TEXT_BUDGET // 2


# Largest certificate file verify reads, in bytes.  load_document reads at
# most one byte more, so a longer file is refused without reading the rest
# of it.  The largest document scl-bounds writes within its own budgets,
# alpha on braid:3/pure at --n-max 526, is 3,028,355 bytes with 526 items,
# and verify takes 0.94 s on it in a fresh process (2 vCPUs, Python 3.11.7).
MAX_DOCUMENT_BYTES = 16 * 2**20


def dumps(doc: Any) -> str:
    """Canonical serialisation: sorted keys, two-space indent, newline end.
    Equal documents give byte-equal output."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text_atomic(text: str, path: str | Path) -> None:
    """Write via a sibling temp file and an atomic rename."""
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_certificates(items: Sequence[dict], path: str | Path) -> dict:
    """Write ``document(items)``; an item that fails writes nothing."""
    doc = document(items)
    write_text_atomic(dumps(doc), path)
    return doc


def load_document(path: str | Path) -> dict:
    # read(n) allocates all n bytes before it reads, so the file is read in
    # 64 KiB chunks, and at most one byte past the cap
    data = bytearray()
    try:
        with open(path, "rb") as fh:
            while len(data) <= MAX_DOCUMENT_BYTES:
                chunk = fh.read(min(2**16, MAX_DOCUMENT_BYTES + 1 - len(data)))
                if not chunk:
                    break
                data += chunk
    except OSError as exc:
        raise StepFailure("schema", f"cannot read certificate file: {exc}") from exc
    if len(data) > MAX_DOCUMENT_BYTES:
        raise StepFailure("schema", f"certificate file longer than {MAX_DOCUMENT_BYTES} bytes")
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StepFailure("schema", f"not UTF-8 text ({exc})") from exc
    if not raw.strip():
        raise StepFailure("schema", "empty certificate file")
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past the interpreter's
        # limit on digits
        raise StepFailure("schema", f"not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise StepFailure("schema", "JSON nested too deeply") from exc
    return doc


def _within_budget(step: str, label: str, size: int) -> None:
    if size > WITNESS_TEXT_BUDGET:
        raise StepFailure(
            step, f"{label} {size} characters, over the budget of {WITNESS_TEXT_BUDGET}"
        )


# Everything str(Fraction) writes.  Fraction itself also takes exponents,
# which it expands exactly ("1e99999999" runs for minutes), decimals,
# underscores, padding and non-ASCII digits.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction(text: str, step: str, label: str) -> Fraction:
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass  # past the interpreter's limit on digits, or a zero denominator
    raise StepFailure(step, f"{label} {text!r} is not a rational number")


def _checked_payload(payload: Any) -> tuple[Callable, Callable]:
    """Check the envelope fields of one item; return its checker and rule."""
    if not isinstance(payload, dict):
        raise StepFailure("schema", "certificate item is not an object")
    for key, typ in _PAYLOAD_FIELDS.items():
        if key not in payload:
            raise StepFailure("schema", f"missing field {key!r}")
        if not isinstance(payload[key], typ):
            raise StepFailure("schema", f"field {key!r} must be {typ.__name__}")
    if payload["kind"] not in KINDS:
        raise StepFailure("schema", f"unknown certificate kind {payload['kind']!r}")
    direction, check, rule = KINDS[payload["kind"]]
    if payload["direction"] != direction:
        raise StepFailure("schema", f"kind {payload['kind']} must have direction {direction}")
    if payload["verified"] is not True:
        raise StepFailure("schema", "certificate is not marked as verified")
    return check, rule


def _check_upper(payload: dict, pair, target) -> tuple[tuple, list[Callable]]:
    witness = payload["witness"]
    power = witness.get("power")
    # bool is a subclass of int, and true would verify as power 1
    if type(power) is not int or power < 1:
        raise StepFailure("witness", "power must be a positive integer")
    factors_raw = witness.get("factors")
    if not isinstance(factors_raw, list) or any(
        not isinstance(f, list) or len(f) != 2 or not all(isinstance(s, str) for s in f)
        for f in factors_raw
    ):
        raise StepFailure("witness", "factors must be a list of [conjugator, member] text pairs")
    target_size = len(payload["target"])
    if power * target_size > WITNESS_TEXT_BUDGET:
        raise StepFailure(
            "witness",
            f"power {power} times target length {target_size} is over the budget "
            f"of {WITNESS_TEXT_BUDGET}",
        )
    if len(factors_raw) > WITNESS_FACTOR_BUDGET:
        raise StepFailure(
            "witness",
            f"{len(factors_raw)} factors, over the budget of {WITNESS_FACTOR_BUDGET}",
        )
    _within_budget("witness", "the factors have", sum(len(a) + len(b) for a, b in factors_raw))
    ctx = pair.ambient
    factors = []
    for i, (a_text, b_text) in enumerate(factors_raw):
        try:
            factors.append((ctx.parse(a_text), ctx.parse(b_text)))
        except ValueError as exc:
            raise StepFailure("witness", f"factor {i} does not parse: {exc}") from exc
    d = MixedCommutatorDecomposition(pair, target, power, tuple(factors))
    return (len(factors), power), [lambda: verify_decomposition(d)]


def _check_lower(payload: dict, pair, target) -> tuple[tuple, list[Callable]]:
    witness = payload["witness"]
    for key in ("qm", "value", "defect_upper"):
        if not isinstance(witness.get(key), str):
            raise StepFailure("witness", f"witness field {key!r} must be a string")
    _within_budget("quasimorphism", "the quasimorphism has", len(witness["qm"]))
    try:
        qm = specs.parse_qm(witness["qm"], group=pair.ambient)
    except specs.SpecError as exc:
        raise StepFailure("quasimorphism", str(exc)) from exc
    if not qm.homogeneous:
        raise StepFailure("quasimorphism", f"{qm.name} is not homogeneous")
    refusal = invariance_refusal(qm, pair)
    if refusal is not None:
        raise StepFailure("invariance", refusal)
    claimed_value = _fraction(witness["value"], "witness", "value")
    try:
        value = qm(target)
    except ValueError as exc:
        # e.g. a pullback along pr1 at a braid outside P3
        raise StepFailure(
            "qm value", f"{qm.name} is undefined at {payload['target']}: {exc}"
        ) from exc
    if value != claimed_value:
        raise StepFailure(
            "qm value",
            f"recomputed {qm.name}({payload['target']}) = {value}, certificate says {claimed_value}",
        )
    claimed_defect = _fraction(witness["defect_upper"], "witness", "defect_upper")
    if qm.defect_upper != claimed_defect:
        raise StepFailure(
            "defect",
            f"reconstructed defect bound {qm.defect_upper} differs from claimed {claimed_defect}",
        )
    provenance = payload["evidence"].get("defect_provenance")
    if isinstance(provenance, str) and provenance != qm.defect_provenance:
        raise StepFailure(
            "defect provenance",
            f"provenance {provenance!r} does not match reconstruction {qm.defect_provenance!r}",
        )
    return (value, claimed_defect), []


# kind -> (direction, witness checker, bound rule)
KINDS: dict[str, tuple[str, Callable, Callable]] = {
    "scl-upper-decomposition": ("upper", _check_upper, decomposition_bound),
    "scl-lower-bavard": ("lower", _check_lower, bavard_bound),
}


def verify_payload(payload: Any) -> tuple[bool, str | None, str]:
    """Re-check one certificate object: (ok, failed step, detail)."""
    try:
        check, rule = _checked_payload(payload)
        _within_budget("group pair", "the group pair has", len(payload["group_pair"]))
        try:
            pair = specs.parse_group_pair(payload["group_pair"])
        except specs.SpecError as exc:
            raise StepFailure("group pair", str(exc)) from exc
        _within_budget("target", "the target has", len(payload["target"]))
        try:
            target = pair.ambient.parse(payload["target"])
        except ValueError as exc:
            raise StepFailure("target", str(exc)) from exc
        if not pair.is_member(target):
            raise StepFailure(
                "target membership",
                f"target {payload['target']} is outside the subgroup of {pair.name}",
            )
        facts, costly = check(payload, pair, target)
        bound = _fraction(payload["bound"], "bound arithmetic", "bound")
        implied = rule(*facts)
        if bound != implied:
            raise StepFailure(
                "bound arithmetic", f"claimed bound {bound}, the witness gives {implied}"
            )
        for run in costly:
            run()
    except StepFailure as failure:
        return False, failure.step, failure.detail
    return True, None, "recomputed and confirmed"


class CheckResult(Frozen):
    index: int
    kind: str
    ok: bool
    failed_step: str | None
    detail: str


class VerificationReport(Frozen):
    source: str
    checks: tuple[CheckResult, ...]
    schema_error: str | None

    @property
    def ok(self) -> bool:
        return self.schema_error is None and all(c.ok for c in self.checks)

    def describe(self) -> str:
        if self.schema_error is not None:
            return f"FAIL {self.source}: {self.schema_error}"
        lines = []
        for c in self.checks:
            if c.ok:
                lines.append(f"ok   item {c.index} ({c.kind}): {c.detail}")
            else:
                lines.append(f"FAIL item {c.index} ({c.kind}) at step {c.failed_step}: {c.detail}")
        verdict = "all claims verified" if self.ok else "verification FAILED"
        lines.append(f"{self.source}: {len(self.checks)} item(s), {verdict}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "ok": self.ok,
            "schema_error": self.schema_error,
            "items": [
                {
                    "index": c.index,
                    "kind": c.kind,
                    "ok": c.ok,
                    "failed_step": c.failed_step,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _checked_items(doc: Any) -> list:
    """Check the document envelope; return its items."""
    if not isinstance(doc, dict):
        raise StepFailure("schema", "document is not an object")
    if doc.get("format") != FORMAT:
        raise StepFailure("schema", f"expected format {FORMAT!r}, got {doc.get('format')!r}")
    items = doc.get("items")
    if not isinstance(items, list):
        raise StepFailure("schema", "items must be a list")
    if len(items) > MAX_DOCUMENT_ITEMS:
        raise StepFailure("schema", f"{len(items)} items, over the limit of {MAX_DOCUMENT_ITEMS}")
    return items


def verify_document(doc: Any, source: str = "<document>") -> VerificationReport:
    try:
        items = _checked_items(doc)
    except StepFailure as failure:
        return VerificationReport(source, (), str(failure))
    checks = []
    for i, item in enumerate(items):
        kind = item.get("kind", "?") if isinstance(item, dict) else "?"
        ok, step, detail = verify_payload(item)
        checks.append(CheckResult(i, kind, ok, step, detail))
    return VerificationReport(source, tuple(checks), None)


def document(items: Sequence[dict]) -> dict:
    """The envelope around items, checked as ``verify`` checks a file; the
    first item that fails raises StepFailure at "self-verification"."""
    doc = {"format": FORMAT, "items": list(items)}
    report = verify_document(doc)
    if not report.ok:
        failed = next(line for line in report.describe().splitlines() if line.startswith("FAIL"))
        raise StepFailure("self-verification", failed)
    return doc


def verify_file(path: str | Path) -> VerificationReport:
    try:
        doc = load_document(path)
    except StepFailure as failure:
        return VerificationReport(str(path), (), str(failure))
    return verify_document(doc, source=str(path))
