"""Seeded inputs and per-request checks for the four benchmark workloads.

Every workload is a sequence of blocks.  A block is a balanced unit: the
same mix of request shapes whatever the seed, so that runs with different
seeds measure comparable work.  ``Workload.block(i)`` is a pure function of
the seed and ``i``.  sclkit itself only ever sees the generated argv and,
for ``verify``, the certificate files written during set-up.

Outputs are checked against values known by construction, never against a
stored digest, so a change of witness that keeps the claim does not count
as a failure.

Known CLI defect, left for a later fix in sclkit: ``--braid -1,-1,...`` is
read by argparse as an unknown option and the command exits 2.  Braids are
therefore always passed as ``--braid=<text>``.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# --- letters ------------------------------------------------------------


def free_reduce(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def commutator(a, b) -> tuple[int, ...]:
    return free_reduce(a + b + inverse(a) + inverse(b))


def braid_arg(letters) -> str:
    # the "=" form keeps argparse from reading a leading "-1" as an option
    return "--braid=" + ",".join(str(l) for l in letters)


def free_text(letters) -> str:
    return "".join("ab"[abs(l) - 1] if l > 0 else "AB"[abs(l) - 1] for l in letters)


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``kind`` selects the check; ``expect`` holds the
    values the output must show, known from how the input was built."""

    kind: str
    argv: tuple[str, ...]
    expect: tuple = ()


# --- flip ---------------------------------------------------------------

# sigma_i^(+-2) as (generator, sign)
_SYLLABLES = ((1, 1), (1, -1), (2, 1), (2, -1))


def _tau(letters) -> tuple[int, ...]:
    """The half twist's action: sigma_1 <-> sigma_2."""
    return tuple((3 - abs(l)) * (1 if l > 0 else -1) for l in letters)


def flip_targets() -> dict[str, list[tuple[int, ...]]]:
    """Targets t = [u, tau(u)] for u of one or two syllables sigma_i^(+-2),
    grouped by shape.  Targets that freely reduce to the empty word (such as
    u = sigma_1^2 sigma_2^-2, where tau(u) = u^-1) are dropped."""
    groups: dict[str, list[tuple[int, ...]]] = {"one": [], "power": [], "mixed": []}
    for k in (1, 2):
        for sylls in itertools.product(_SYLLABLES, repeat=k):
            u = free_reduce([g * s for g, s in sylls for _ in range(2)])
            t = commutator(u, _tau(u))
            if not u or not t:
                continue
            shape = "one" if k == 1 else "power" if sylls[0][0] == sylls[1][0] else "mixed"
            groups[shape].append(t)
    return groups


def flip_request(target, n_max: int) -> Request:
    argv = ("scl-bounds", "--group", "braid:3/pure", braid_arg(target),
            "--n-max", str(n_max), "--format", "json")
    return Request("flip", argv, (n_max,))


class FlipWorkload:
    """Per block: each one-syllable target twice, taking N = 24, 26, ..., 38
    once each in seeded order, and the run's two-syllable target once at
    N = TWO_SYLLABLE_N.  The seed draws that target from the mixed shape
    (sigma_i^(+-2) sigma_j^(+-2), i != j).  Targets of one shape have equal
    length, so every block sends the same shapes and sizes whatever the
    seed: the seed moves which target meets which N, and the order."""

    ONE_SYLLABLE_N = tuple(range(24, 40, 2))
    TWO_SYLLABLE_N = 32

    def __init__(self, seed: int):
        self.seed = seed
        targets = flip_targets()
        self.one = targets["one"]
        self.two = random.Random(seed).choice(targets["mixed"])

    def block(self, i: int) -> list[Request]:
        rng = random.Random(self.seed * 1_000_003 + i)
        slots = list(self.ONE_SYLLABLE_N)
        rng.shuffle(slots)
        reqs = [flip_request(t, n) for t, n in zip(self.one * 2, slots)]
        reqs.append(flip_request(self.two, self.TWO_SYLLABLE_N))
        rng.shuffle(reqs)
        return reqs


# --- search -------------------------------------------------------------

SEARCH_QM = "homog(brooks(w=abAB))"
NOT_FOUND_NOTE = "no upper bound: not found within 3 factors at these radii (ball-relative)"


def random_word(rng, max_len: int) -> tuple[int, ...]:
    out: list[int] = []
    for _ in range(rng.randint(1, max_len)):
        out.append(rng.choice([l for l in (1, -1, 2, -2) if not out or l != -out[-1]]))
    return tuple(out)


def _ball2() -> list[tuple[int, ...]]:
    words = [()]
    for a in (1, -1, 2, -2):
        words.append((a,))
        words += [(a, b) for b in (1, -1, 2, -2) if b != -a]
    return words


# the search's moves: commutators of words of length <= 2
MOVES = frozenset(commutator(u, v) for u in _ball2() for v in _ball2())


def early_target(rng, depth: int) -> tuple[int, ...]:
    """A product of ``depth`` commutators of words of length <= 2 that is
    not a product of fewer, so the search finds it at exactly that depth."""
    fewer = {()} if depth == 1 else {()} | MOVES
    while True:
        w: tuple[int, ...] = ()
        for _ in range(depth):
            w = free_reduce(w + commutator(random_word(rng, 2), random_word(rng, 2)))
        if w not in fewer:
            return w


def beyond_target(rng) -> tuple[int, ...]:
    """An element of [F2, F2] longer than 24 letters.  Three commutators of
    words of length <= 2 have at most 24 letters, so no search at radius 2
    with cap 3 can reach it."""
    while True:
        w: tuple[int, ...] = ()
        for _ in range(rng.randint(4, 6)):
            w = free_reduce(w + commutator(random_word(rng, 3), random_word(rng, 3)))
        if 24 < len(w) <= 60:
            return w


def search_argv(target, cap: int = 3, qm: str | None = SEARCH_QM) -> tuple[str, ...]:
    argv = ("scl-bounds", "--group", "free:2", "--word", free_text(target),
            "--radius", "2", "--cap", str(cap))
    return argv + (("--qm", qm) if qm else ()) + ("--format", "json")


def search_request(kind: str, target, count: int) -> Request:
    return Request(kind, search_argv(target), (count,))


class SearchWorkload:
    """Per block: DEPTH_1 targets found at depth 1, DEPTH_2 found at depth
    2, and one target beyond reach, which exhausts the search.  Depth-1
    requests are the cheapest and depth-2 ones next, but their costs
    overlap, so the counts keep the median and the tail (ten samples
    beyond it) eight or more samples inside their class: the median is the
    28th of the 36 depth-1 requests, the tail the 9th of the 18 depth-2 ones."""

    DEPTH_1 = 36
    DEPTH_2 = 18

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, i: int) -> list[Request]:
        rng = random.Random(self.seed * 1_000_003 + i)
        depths = [1] * self.DEPTH_1 + [2] * self.DEPTH_2
        reqs = [search_request("search-early", early_target(rng, d), d) for d in depths]
        rng.shuffle(reqs)
        reqs.insert(rng.randrange(len(reqs) + 1),
                    search_request("search-beyond", beyond_target(rng), 0))
        return reqs


# --- verify -------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """A certificate file written in set-up by ``sclkit scl-bounds``."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Corruption:
    source: str
    index_kind: str        # which certificate kind in the source gets mutated
    field: tuple           # path inside that certificate
    value: str
    step: str              # the step the verifier must name


CORRUPTIONS = (
    Corruption("flip-a", "scl-upper-decomposition", ("bound",), "1/1000", "bound arithmetic"),
    Corruption("flip-b", "scl-upper-decomposition", ("witness", "factors", 0, 1), "1",
               "membership of factor 0"),
    Corruption("flip-a", "scl-upper-decomposition", ("witness", "factors", 0, 0), "1,2",
               "product equality"),
    Corruption("lower", "scl-lower-bavard", ("witness", "value"), "2", "qm value"),
    Corruption("lower", "scl-lower-bavard", ("witness", "defect_upper"), "7", "defect"),
    Corruption("search-2", "scl-upper-decomposition", ("bound",), "1/1000", "bound arithmetic"),
)


def dumps(doc) -> str:
    """The byte layout sclkit itself writes."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class VerifyWorkload:
    """Certificate files: two flip families (N = FLIP_N; verifying one
    costs about N^2.5, so N is fixed, not drawn), one
    braid:3/pure-ordinary lower bound and two free:2 search uppers, plus
    corrupted copies whose failing step is known.  Per block every intact
    file is verified INTACT_REPEAT times and every corrupted copy
    CORRUPT_REPEAT times."""

    FLIP_N = 24
    INTACT_REPEAT = 3
    CORRUPT_REPEAT = 2
    LOWER_QM = "pullback(homog(brooks(w=xyXY)), pr1)"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        one = rng.sample(flip_targets()["one"], 3)
        self.sources = (
            Source("flip-a", flip_request(one[0], self.FLIP_N).argv),
            Source("flip-b", flip_request(one[1], self.FLIP_N).argv),
            Source("lower", ("scl-bounds", "--group", "braid:3/pure-ordinary",
                             "--qm", self.LOWER_QM, braid_arg(one[2]),
                             "--radius", "2", "--cap", "1", "--format", "json")),
            Source("search-1", search_argv(early_target(rng, 1), cap=2, qm=None)),
            Source("search-2", search_argv(early_target(rng, 2), cap=2, qm=None)),
        )
        self.corrupt_rng_seed = rng.randrange(1 << 30)
        self.files: list[tuple[Path, int, tuple]] = []  # (path, items, corruption)

    def setup(self, directory: Path, run_cli: Callable[[tuple[str, ...]], None]) -> None:
        """Write the source files with the CLI, then the corrupted copies."""
        directory.mkdir(parents=True, exist_ok=True)
        docs = {}
        files = []
        for src in self.sources:
            path = directory / f"{src.name}.json"
            run_cli(src.argv + ("--out", str(path)))
            docs[src.name] = json.loads(path.read_text())
            files.append((path, len(docs[src.name]["items"]), ()))
        rng = random.Random(self.corrupt_rng_seed)
        for j, c in enumerate(CORRUPTIONS):
            doc = copy.deepcopy(docs[c.source])
            candidates = [k for k, it in enumerate(doc["items"]) if it["kind"] == c.index_kind]
            index = rng.choice(candidates)
            node = doc["items"][index]
            for key in c.field[:-1]:
                node = node[key]
            node[c.field[-1]] = c.value
            path = directory / f"corrupt-{j}-{c.source}.json"
            path.write_text(dumps(doc))
            files.append((path, len(doc["items"]), (index, c.step)))
        self.files = files

    def block(self, i: int) -> list[Request]:
        rng = random.Random(self.seed * 1_000_003 + i)
        reqs = []
        for path, items, corruption in self.files:
            kind = "verify-corrupt" if corruption else "verify-intact"
            repeat = self.CORRUPT_REPEAT if corruption else self.INTACT_REPEAT
            reqs += [Request(kind, ("verify", str(path), "--format", "json"),
                             (items,) + corruption)] * repeat
        rng.shuffle(reqs)
        return reqs


# --- paper-suite ----------------------------------------------------------

SUITE_ITEMS = tuple(str(k) for k in range(1, 12))


class PaperSuiteWorkload:
    """Per block: each of the eleven items once, each with its own seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, i: int) -> list[Request]:
        rng = random.Random(self.seed * 1_000_003 + i)
        reqs = [Request("paper", ("verify-paper", "--only", key, "--seed",
                                  str(rng.randrange(1, 1_000_000)), "--format", "json"), (key,))
                for key in SUITE_ITEMS]
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {
    "flip": FlipWorkload,
    "search": SearchWorkload,
    "verify": VerifyWorkload,
    "paper-suite": PaperSuiteWorkload,
}


# --- checks -------------------------------------------------------------


def check(req: Request, returncode: int | None, stdout: str) -> str | None:
    """None when the output is right, otherwise why it is wrong."""
    want_code = 1 if req.kind == "verify-corrupt" else 0
    if returncode != want_code:
        return f"exit {returncode}, expected {want_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    try:
        return _CHECKS[req.kind](req, doc)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_flip(req: Request, doc: dict) -> str | None:
    (n_max,) = req.expect
    want = ["0", str(Fraction(1, 2 * n_max))]
    if doc["interval"] != want:
        return f"interval {doc['interval']}, expected {want}"
    if len(doc["items"]) != n_max:
        return f"{len(doc['items'])} certificates, expected {n_max}"
    return None


def _uppers(doc: dict) -> list[Fraction]:
    return [Fraction(it["bound"]) for it in doc["items"] if it["direction"] == "upper"]


def _check_search_early(req: Request, doc: dict) -> str | None:
    (count,) = req.expect
    upper = doc["interval"][1]
    if upper is None or Fraction(upper) > count:
        return f"upper bound {upper}, expected at most {count}"
    if not _uppers(doc) or min(_uppers(doc)) != Fraction(upper):
        return "no upper-bound certificate behind the interval"
    return None


def _check_search_beyond(req: Request, doc: dict) -> str | None:
    if doc["interval"][1] is not None or _uppers(doc):
        return f"upper bound {doc['interval'][1]} for a target beyond reach"
    if NOT_FOUND_NOTE not in doc["notes"]:
        return f"missing the ball-relative note, notes were {doc['notes']}"
    return None


def _check_verify_intact(req: Request, doc: dict) -> str | None:
    (items,) = req.expect
    if doc["ok"] is not True or len(doc["items"]) != items:
        return f"report ok={doc['ok']} with {len(doc['items'])} items, expected ok with {items}"
    return None


def _check_verify_corrupt(req: Request, doc: dict) -> str | None:
    items, index, step = req.expect
    failed = [(it["index"], it["failed_step"]) for it in doc["items"] if not it["ok"]]
    if len(doc["items"]) != items or failed != [(index, step)]:
        return f"failed checks {failed}, expected [({index}, {step!r})]"
    return None


def _check_paper(req: Request, doc: dict) -> str | None:
    (key,) = req.expect
    results = [(it["key"], it["ok"]) for it in doc["items"]]
    if doc["ok"] is not True or results != [(key, True)]:
        return f"items {results}, expected item {key} passing"
    return None


_CHECKS = {
    "flip": _check_flip,
    "search-early": _check_search_early,
    "search-beyond": _check_search_beyond,
    "verify-intact": _check_verify_intact,
    "verify-corrupt": _check_verify_corrupt,
    "paper": _check_paper,
}
