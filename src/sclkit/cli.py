"""Command line front end.

Four subcommands: ``eval`` computes quasimorphism values, ``scl-bounds``
emits certified one-sided bounds as a certificate document, ``verify``
re-checks a certificate file from scratch, and ``verify-paper`` runs the
full acceptance suite.  JSON output is the machine contract and is
byte-stable for a fixed configuration and seed; the human format is lossy.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or parse
problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import certio, specs, suite
from .braids import BraidGroup, index_sum
from .groups import FreeGroup
from .scl import (
    MixedCommutatorDecomposition,
    bavard_lower,
    conjugate_flip_decomposition,
    invariance_refusal,
    mixed_cl_search,
    upper_from_decomposition,
)
from .words import StepFailure

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclkit",
        description="exact certificates for commutator lengths and quasimorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, target: bool) -> None:
        if target:
            p.add_argument("--group", help="group or pair spec, e.g. free:2 or braid:3/pure")
            p.add_argument("--qm", help="quasimorphism spec, e.g. homog(brooks(w=xyXY))")
            p.add_argument("--word", help="free-group element, e.g. xyXY")
            p.add_argument("--braid", help="braid word as signed generator indices, e.g. 1,2,1")
        p.add_argument("--out", help="write output atomically to this path instead of stdout")
        p.add_argument("--format", choices=("json", "human"), default="human")

    p_eval = sub.add_parser("eval", help="evaluate a quasimorphism at one element")
    add_common(p_eval, target=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_bounds = sub.add_parser("scl-bounds", help="emit certified scl bounds for one element")
    add_common(p_bounds, target=True)
    p_bounds.add_argument("--radius", type=int, default=3, help="search radius for ball enumerations")
    p_bounds.add_argument("--cap", type=int, default=3, help="largest number of commutator factors to try")
    p_bounds.add_argument("--n-max", type=int, default=32, dest="n_max", help="largest power in bound families")
    p_bounds.set_defaults(handler=cmd_scl_bounds)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("path", help="certificate file to check")
    add_common(p_verify, target=False)
    p_verify.set_defaults(handler=cmd_verify)

    p_paper = sub.add_parser(
        "verify-paper", help="run the acceptance suite (all eleven items)"
    )
    p_paper.add_argument("--only", help="run a single item, by number or slug")
    add_common(p_paper, target=False)
    p_paper.add_argument("--seed", type=int, default=suite.DEFAULT_SEED, help="seed for all sampled checks")
    p_paper.set_defaults(handler=cmd_verify_paper)
    return parser


def _emit(args, human: str, doc: dict) -> None:
    if args.format == "json":
        text = certio.dumps(doc)
    else:
        text = human if human.endswith("\n") else human + "\n"
    if args.out:
        try:
            certio.write_text_atomic(text, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _target_text(args) -> str:
    if (args.word is None) == (args.braid is None):
        raise ValueError("give exactly one of --word or --braid")
    return args.word if args.word is not None else args.braid


def cmd_eval(args) -> int:
    if not args.qm:
        raise ValueError("eval needs --qm")
    group = specs.parse_group(args.group) if args.group else None
    if group is None and args.braid is not None:
        group = BraidGroup(3)
    qm = specs.parse_qm(args.qm, group=group)
    ctx = qm.context
    g = ctx.parse(_target_text(args))
    value = qm(g)
    doc = {
        "command": "eval",
        "qm": qm.name,
        "group": ctx.name,
        "element": ctx.text(g),
        "value": str(value),
        "defect_upper": str(qm.defect_upper),
        "defect_provenance": qm.defect_provenance,
    }
    _emit(args, str(value), doc)
    return EXIT_PASS


def _flip_search(pair, g, radius: int):
    ctx = pair.ambient
    g_inv = ctx.inv(g)
    for h in ctx.ball(radius):
        if pair.admits_conjugator(h) and ctx.eq(ctx.conjugate(h, g), g_inv):
            return h
    return None


def cmd_scl_bounds(args) -> int:
    if not args.group:
        raise ValueError("scl-bounds needs --group with a group or pair spec")
    for option, value, least in (
        ("--radius", args.radius, 0), ("--cap", args.cap, 0), ("--n-max", args.n_max, 1),
    ):
        if value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    pair = specs.parse_group_pair(args.group)
    ctx = pair.ambient
    text = _target_text(args)
    if len(text) > certio.WITNESS_TEXT_BUDGET:
        raise ValueError(
            f"the target has {len(text)} characters: verify refuses targets over "
            f"{certio.WITNESS_TEXT_BUDGET}"
        )
    g = ctx.parse(text)
    if not pair.is_member(g):
        raise ValueError(f"target {ctx.text(g)} is outside the subgroup of {pair.name}")
    certs: list[dict] = []
    notes: list[str] = []

    if ctx.is_identity(g):
        empty = MixedCommutatorDecomposition(pair, g, 1, ())
        certs.append(upper_from_decomposition(empty, note="the identity needs no factors"))
    else:
        # no nontrivial element of a free group is conjugate to its inverse,
        # nor is a braid of nonzero index sum (conjugation keeps the index sum
        # and inversion negates it), so such a target has no flip family and
        # goes straight to the search
        flipper = None
        if not (isinstance(ctx, FreeGroup) or (isinstance(ctx, BraidGroup) and index_sum(g) != 0)):
            # checked before the flip search, which may walk a large ball
            if 2 * args.n_max * len(ctx.text(g)) > certio.WITNESS_TEXT_BUDGET:
                raise ValueError(
                    f"--n-max {args.n_max} is too large for this target: verify refuses "
                    f"power x target length over {certio.WITNESS_TEXT_BUDGET}"
                )
            flipper = _flip_search(pair, g, args.radius)
        if flipper is not None:
            note = f"flip decomposition: {ctx.text(flipper)} conjugates the target to its inverse"
            for n in range(1, args.n_max + 1):
                d = conjugate_flip_decomposition(pair, g, flipper, n)
                certs.append(upper_from_decomposition(d, note=note))
        else:
            found = mixed_cl_search(pair, g, radius=args.radius, max_factors=args.cap)
            if found.decomposition is not None:
                certs.append(upper_from_decomposition(found.decomposition, note=found.verdict))
            else:
                notes.append(f"no upper bound: {found.verdict}")

    if args.qm:
        qm = specs.parse_qm(args.qm, group=ctx)
        refusal = invariance_refusal(qm, pair)
        if refusal is not None:
            notes.append(f"lower bound refused: {refusal}")
        else:
            certs.append(bavard_lower(g, qm, pair))

    doc = certio.document(certs)
    lowers = [c for c in certs if c["direction"] == "lower"]
    uppers = [c for c in certs if c["direction"] == "upper"]
    lower = max((Fraction(c["bound"]) for c in lowers), default=Fraction(0))
    best = min(uppers, key=lambda c: Fraction(c["bound"]), default=None)
    upper = None if best is None else Fraction(best["bound"])
    if upper is not None and lower > upper:
        raise StepFailure(
            "interval", f"certified interval is empty (lower {lower} > upper {upper}); "
            "refusing to emit",
        )

    doc["command"] = "scl-bounds"
    doc["group_pair"] = pair.name
    doc["mode"] = pair.mode
    doc["target"] = ctx.text(g)
    doc["interval"] = [str(lower), None if upper is None else str(upper)]
    doc["notes"] = notes

    lines = [f"scl bounds for {ctx.text(g) or '(identity)'} in {pair.name} ({pair.mode} mode):"]
    if best is not None:
        power = best["witness"]["power"]
        lines.append(f"  upper {upper}  ({len(uppers)} certificates, best at power {power})")
    for c in lowers:
        witness = c["witness"]
        lines.append(f"  lower {c['bound']}  (defect {witness['defect_upper']} via {witness['qm']})")
    for note in notes:
        lines.append(f"  note: {note}")
    lines.append(f"  interval [{lower}, {upper if upper is not None else 'unbounded'}]")
    lines.append(f"  {len(certs)} certificate(s), self-verified")
    _emit(args, "\n".join(lines), doc)
    return EXIT_PASS


def cmd_verify(args) -> int:
    if not os.path.exists(args.path):
        raise ValueError(f"no certificate file at {args.path}")
    report = certio.verify_file(args.path)
    _emit(args, report.describe(), report.as_dict())
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_verify_paper(args) -> int:
    report = suite.run_suite(seed=args.seed, only=args.only)
    _emit(args, "\n".join(report.lines()), report.as_dict())
    return EXIT_PASS if report.ok else EXIT_FAIL


def _attach_braid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--braid -1,2`` as ``--braid=-1,2``: argparse would read a
    value with a leading negative index as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--braid" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--braid={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = _attach_braid_values(sys.argv[1:] if argv is None else list(argv))
    # argparse exits 2 by itself on a command line it cannot read
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # refused input: a bad option, a missing file or suite item,
        # specs.SpecError and element parse errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
