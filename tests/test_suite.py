"""Suite runner plumbing and module doctest examples."""

import doctest
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from garside_helpers import plant_extra_syllable
import sclkit.braids
import sclkit.certio
import sclkit.extension
import sclkit.groups
import sclkit.norms
import sclkit.quasimorphisms
import sclkit.scl
import sclkit.specs
import sclkit.suite
import sclkit.words
from sclkit.braids import X, Y
from sclkit.groups import FreeGroup
from sclkit.scl import SclCertificate
from sclkit.suite import (
    _ALGEBRA_GENS,
    DEFAULT_SEED,
    ITEMS,
    Item,
    _random_raw,
    _splitting_shard,
    _word_algebra_shard,
    find_item,
    reverify,
    run_in_two_shards,
    run_item,
    shard_rngs,
    standalone_certificates,
)
from sclkit.words import (
    StepFailure,
    Word,
    invert_letters,
    multiply_letters,
    random_reduced,
    reduce_letters,
)


def test_item_registry_shape():
    assert [it.key for it in ITEMS] == [str(k) for k in range(1, 12)]
    assert len({it.slug for it in ITEMS}) == 11
    assert all(it.budget > 0 for it in ITEMS)
    assert DEFAULT_SEED == 7


def test_find_item_by_key_and_slug():
    assert find_item("4").slug == "duality-lower"
    assert find_item("duality-lower").key == "4"
    with pytest.raises(ValueError) as exc:
        find_item("nope")
    assert "counting-values" in str(exc.value)


def test_run_item_captures_crashes(monkeypatch):
    def boom(rng):
        raise RuntimeError("injected failure")

    broken = Item(key="99", slug="broken", budget=1.0, fn=boom)
    result = run_item(broken, seed=7)
    assert not result.ok
    assert "crashed" in result.detail
    assert "injected failure" in result.detail
    assert result.line().startswith("FAIL 99 broken")

    def failed_check(rng):
        raise StepFailure("restriction", "planted mismatch")

    failing = Item(key="98", slug="failing", budget=1.0, fn=failed_check)
    result = run_item(failing, seed=7)
    assert not result.ok
    assert result.detail == "restriction: planted mismatch"
    assert result.line().startswith("FAIL 98 failing")

    def passing_check(rng):
        return "planted pass"

    passing = Item(key="97", slug="passing", budget=1.0, fn=passing_check)
    result = run_item(passing, seed=7)
    assert (result.ok, result.detail) == (True, "planted pass")

    # a P3 coordinate extraction that fails its own reassembly is a failed
    # step of item 9, not a crash
    plant_extra_syllable(monkeypatch)
    result = run_item(find_item("9"), seed=7)
    assert not result.ok
    assert result.detail.startswith("p3 coordinates: ")


def test_run_item_line_format():
    result = run_item(find_item("2"), seed=7)
    assert result.ok
    line = result.line()
    assert line.startswith("PASS  2 flip-identity (")
    assert line.endswith(result.detail)


def _with_witness(cert, mutate):
    """``cert`` with ``mutate`` applied to a copy of its witness."""
    witness = json.loads(json.dumps(cert.witness))
    mutate(witness)
    fields = {name: getattr(cert, name) for name in cert._fields}
    return SclCertificate(**{**fields, "witness": witness})


def _break_member(witness):
    witness["factors"][0][1] = "1"


def _bump_value(witness):
    witness["value"] = "2"


def test_reverify_names_the_first_certificate_that_fails():
    certs = standalone_certificates()
    upper, lower = certs[0], certs[-1]
    reverify([upper, lower])
    with pytest.raises(StepFailure) as exc:
        reverify([upper, _with_witness(lower, _bump_value), _with_witness(upper, _break_member)])
    assert exc.value.step == "document verification"
    assert exc.value.detail.startswith("FAIL item 1 (scl-lower-bavard) at step qm value: ")


@pytest.mark.parametrize(
    "key, builder, mutate, step",
    [
        ("3", "upper_from_decomposition", _break_member, "membership of factor 0"),
        ("4", "bavard_lower", _bump_value, "qm value"),
    ],
)
def test_items_3_and_4_reverify_their_certificates(key, builder, mutate, step, monkeypatch):
    real = getattr(sclkit.suite, builder)
    monkeypatch.setattr(
        sclkit.suite, builder, lambda *args, **kw: _with_witness(real(*args, **kw), mutate)
    )
    result = run_item(find_item(key), seed=DEFAULT_SEED)
    assert not result.ok
    assert result.detail.startswith("document verification: FAIL item 0 (")
    assert f" at step {step}: " in result.detail


def test_item_11_counts_the_corruptions_it_ran(monkeypatch):
    uppers = [c for c in standalone_certificates() if c.kind == "scl-upper-decomposition"]
    assert len(uppers) == 3
    monkeypatch.setattr(sclkit.suite, "standalone_certificates", lambda: uppers)
    result = run_item(find_item("11"), seed=DEFAULT_SEED)
    assert result.ok, result.detail
    assert result.detail == "3 certificates re-verified; 3 corruptions + empty file all caught"


def test_item_11_fails_on_a_file_the_command_line_refuses(monkeypatch):
    real = standalone_certificates()
    broken = [_with_witness(real[0], _break_member)] + real[1:]
    monkeypatch.setattr(sclkit.suite, "standalone_certificates", lambda: broken)
    result = run_item(find_item("11"), seed=DEFAULT_SEED)
    assert not result.ok
    assert result.detail == "file verification: a fresh file exits 1 at 'membership of factor 0'"


@pytest.mark.parametrize(
    "row, detail",
    [
        (("scl-upper-decomposition", ("bound",), "1/2", "bound arithmetic"),
         "corruption: a certificate broken at bound arithmetic verifies"),
        (("scl-upper-decomposition", ("bound",), "1/1000", "product equality"),
         "corruption: expected 'product equality', got 'bound arithmetic'"),
    ],
    ids=["verifies", "another-step"],
)
def test_item_11_fails_on_a_corruption_that_is_not_caught_at_its_step(row, detail, monkeypatch):
    # the first certificate is n = 1 of the flip family, of bound 1/2
    assert standalone_certificates()[0].bound == Fraction(1, 2)
    monkeypatch.setattr(sclkit.suite, "CORRUPTIONS", (row,))
    result = run_item(find_item("11"), seed=DEFAULT_SEED)
    assert (result.ok, result.detail) == (False, detail)


def _choice_raw(rng, gens):
    # item 10's draw before its rejection loops were written out: the oracle
    return tuple(rng.choice(gens) for _ in range(rng.randrange(0, 9)))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 42, 2024])
def test_word_algebra_draws_are_bit_for_bit_the_choice_draws(seed):
    gens = [i for i in range(1, 4)] + [-i for i in range(1, 4)]
    assert list(_ALGEBRA_GENS) == gens
    # run_item's generator for item 10; every triple of the default seed
    triples = 100_000 if seed == DEFAULT_SEED else 5_000
    old = random.Random(seed * 1009 + 10)
    new = random.Random(seed * 1009 + 10)
    bits = new.getrandbits
    for _ in range(3 * triples):
        assert _random_raw(bits) == _choice_raw(old, gens)
    assert new.getstate() == old.getstate()


def _word_level_sides(ra, rb, rc):
    # item 10's loop body before it called the letter kernels: the oracle
    u = Word.from_raw(ra)
    v = Word.from_raw(rb)
    t = Word.from_raw(rc)
    once = v.letters
    return ((u * v) * t).letters, (u * (v * t)).letters, (u * ~u).letters, once, reduce_letters(once)


def _kernel_sides(ra, rb, rc):
    u, v, t = reduce_letters(ra), reduce_letters(rb), reduce_letters(rc)
    mul = multiply_letters
    return mul(mul(u, v), t), mul(u, mul(v, t)), mul(u, invert_letters(u)), v, reduce_letters(v)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
def test_word_algebra_kernels_match_the_word_level_loop(seed):
    # the first triples of both of item 10's shards
    for shard in shard_rngs(random.Random(seed * 1009 + 10)):
        bits = shard.getrandbits
        for _ in range(2_500):
            raw = _random_raw(bits), _random_raw(bits), _random_raw(bits)
            assert _kernel_sides(*raw) == _word_level_sides(*raw), raw


def test_suite_samples_draw_what_the_validated_words_drew():
    # items 4, 6 and 9 sample through their free groups
    for ctx, gen_indices in ((FreeGroup.on("xy"), (X, Y)), (FreeGroup(2), (1, 2))):
        old, new = random.Random(17), random.Random(17)
        for _ in range(300):
            expected = Word(random_reduced(old, gen_indices, old.randrange(0, 41)))
            assert ctx.sample(new, new.randrange(0, 41)) == expected
        assert new.getstate() == old.getstate()


def test_word_algebra_still_checks_100000_triples():
    result = run_item(find_item("10"), seed=DEFAULT_SEED)
    assert result.ok
    assert result.detail.startswith("100000 random triples: ")


def _record_forks(monkeypatch):
    """The pid of every child os.fork starts in this process, and the wait
    status os.waitpid reaps for each pid."""
    children, statuses = [], {}
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    def waitpid(pid, options):
        reaped, status = real_waitpid(pid, options)
        statuses[reaped] = status
        return reaped, status

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return children, statuses


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("planted", [False, True], ids=["intact", "planted"])
@pytest.mark.parametrize("key", ["9", "10"])
def test_sharded_items_give_the_same_verdict_forked_and_in_process(key, planted, monkeypatch):
    if planted and key == "10":
        monkeypatch.setattr(sclkit.suite, "invert_letters", lambda u: u)
    elif planted:
        plant_extra_syllable(monkeypatch)
    children, _ = _record_forks(monkeypatch)
    forked = run_item(find_item(key), seed=1)
    assert len(children) == 1
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    in_process = run_item(find_item(key), seed=1)
    assert (forked.ok, forked.detail) == (in_process.ok, in_process.detail)
    assert forked.ok != planted
    _assert_no_child_left()


def _is_shard_1(rng, parent_rng):
    """Whether ``rng`` is still in the state of shard 1 of ``parent_rng``."""
    return rng.getstate() == shard_rngs(parent_rng)[1].getstate()


def test_a_failure_in_the_forked_shard_surfaces_with_its_step_and_detail(monkeypatch):
    # invert_letters is broken while shard 1 runs, in the child and in the rerun
    in_shard_1, real = [False], sclkit.suite.invert_letters
    monkeypatch.setattr(sclkit.suite, "invert_letters", lambda u: u if in_shard_1[0] else real(u))

    def shard(rng):
        in_shard_1[0] = _is_shard_1(rng, random.Random(5))
        _word_algebra_shard(rng)

    # shard 1's first triple whose first word is not the identity
    bits = shard_rngs(random.Random(5))[1].getrandbits
    while True:
        ra, _, _ = _random_raw(bits), _random_raw(bits), _random_raw(bits)
        if reduce_letters(ra):
            break
    children, statuses = _record_forks(monkeypatch)
    with pytest.raises(StepFailure) as exc:
        run_in_two_shards(shard, random.Random(5))
    assert (exc.value.step, exc.value.detail) == ("inverse", f"fails at {ra}")
    assert os.waitstatus_to_exitcode(statuses[children[0]]) == 1
    _assert_no_child_left()


def test_a_crash_in_the_forked_shard_reads_as_a_crash_in_process(monkeypatch):
    def crash_in_shard_1(rng):
        # run_item's generator for item 96 at seed 7
        if _is_shard_1(rng, random.Random(7 * 1009 + 96)):
            raise ZeroDivisionError("planted")

    def sharded(rng):
        run_in_two_shards(crash_in_shard_1, rng)

    children, statuses = _record_forks(monkeypatch)
    # the detail run_item gives a ZeroDivisionError raised in its own process
    result = run_item(Item(key="96", slug="crash", budget=1.0, fn=sharded), seed=7)
    assert (result.ok, result.detail) == (False, "crashed: ZeroDivisionError: planted")
    assert os.waitstatus_to_exitcode(statuses[children[0]]) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("fault, code", [("raise", 1), ("kill", -signal.SIGKILL)])
def test_a_failure_only_the_child_sees_names_its_exit_code(fault, code):
    parent = os.getpid()

    def fails_in_the_child(rng):
        if os.getpid() == parent:
            return
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ZeroDivisionError("planted")

    def sharded(rng):
        run_in_two_shards(fails_in_the_child, rng)

    result = run_item(Item(key="96", slug="child", budget=1.0, fn=sharded), seed=7)
    assert (result.ok, result.detail) == (
        False, f"crashed: RuntimeError: shard 1 ended with exit code {code}"
    )
    _assert_no_child_left()


def test_a_failure_in_the_parents_shard_kills_and_reaps_the_child(monkeypatch):
    children, statuses = _record_forks(monkeypatch)
    parent = os.getpid()

    def planted(u):
        if os.getpid() != parent:
            time.sleep(60)
        return u

    monkeypatch.setattr(sclkit.suite, "invert_letters", planted)
    start = time.monotonic()
    with pytest.raises(StepFailure) as exc:
        run_in_two_shards(_splitting_shard, random.Random(5))
        run_in_two_shards(_word_algebra_shard, random.Random(5))
    assert exc.value.step == "inverse"
    assert time.monotonic() - start < 30
    # item 9's child was reaped after it passed, item 10's killed
    first, second = children
    assert os.WIFEXITED(statuses[first]) and os.WEXITSTATUS(statuses[first]) == 0
    assert os.WIFSIGNALED(statuses[second]) and os.WTERMSIG(statuses[second]) == signal.SIGKILL
    _assert_no_child_left()


def test_the_shards_run_in_process_while_another_thread_runs(monkeypatch):
    def fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        result = run_item(find_item("9"), seed=DEFAULT_SEED)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert result.ok, result.detail


def test_a_forked_shard_flushes_no_inherited_buffer_and_runs_no_atexit_handler():
    # stdout is a pipe, so the first line still sits in the parent's buffer
    # when the child is forked
    code = (
        "import atexit, sys\n"
        "from sclkit.suite import find_item, run_item\n"
        "atexit.register(print, 'at exit')\n"
        "sys.stdout.write('before the item\\n')\n"
        "print(run_item(find_item('9'), 7).ok)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "before the item\nTrue\nat exit\n"


@pytest.mark.parametrize(
    "module",
    [
        sclkit.words,
        sclkit.groups,
        sclkit.braids,
        sclkit.quasimorphisms,
        sclkit.norms,
        sclkit.scl,
        sclkit.extension,
        sclkit.specs,
        sclkit.certio,
        sclkit.suite,
    ],
    ids=lambda m: m.__name__.split(".")[-1],
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
