"""End-to-end CLI contract: exit codes, determinism, fresh-process verify."""

import json
import os
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from garside_helpers import plant_extra_syllable
from sclkit import braids, certio, cli, search, suite
from sclkit.scl import braid_pure_pair
from sclkit.words import StepFailure

ALPHA = "1,1,2,2,-1,-1,-2,-2"


def run_cli(*args, timeout=240, address_space=None, env=None):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "sclkit", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=limit if address_space is not None else None,
        env=None if env is None else {**os.environ, **env},
    )


def test_eval_examples():
    r = run_cli("eval", "--qm", "brooks(w=xyXY)", "--word", "xyXY")
    assert r.returncode == 0
    assert r.stdout.strip() == "1"
    r = run_cli("eval", "--qm", "hom(indexsum)", "--braid", "1,2,1")
    assert r.returncode == 0
    assert r.stdout.strip() == "3"
    r = run_cli("eval", "--qm", "brooks(w=xy)", "--word", "")
    assert r.returncode == 0
    assert r.stdout.strip() == "0"


def test_eval_json_shape():
    r = run_cli("eval", "--qm", "hom(indexsum)", "--braid", "1,2,1", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == "3"
    assert doc["group"] == "braid:3"
    assert doc["defect_upper"] == "0"


def test_eval_usage_errors():
    assert run_cli("eval", "--qm", "zero", "--word", "a").returncode == 2
    assert run_cli("eval", "--qm", "brooks(w=ab)").returncode == 2
    assert (
        run_cli(
            "eval", "--qm", "brooks(w=ab)", "--word", "a", "--braid", "1"
        ).returncode
        == 2
    )
    r = run_cli("eval", "--qm", "brooks(w=", "--word", "a")
    assert r.returncode == 2
    assert "position" in r.stderr


def test_braid_value_may_start_with_a_negative_index():
    r = run_cli("eval", "--qm", "hom(indexsum)", "--braid", "-1,-2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "-2"
    r = run_cli(
        "scl-bounds", "--group", "braid:3/pure", "--braid", "-1,-1,-2,-2,1,1,2,2",
        "--radius", "2", "--cap", "1", "--n-max", "2", "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["target"] == "-1,-1,-2,-2,1,1,2,2"
    assert doc["interval"][1] == "1"
    # an option in the value's place is still a usage error
    assert run_cli("eval", "--qm", "hom(indexsum)", "--braid", "--format", "json").returncode == 2


def test_bad_subcommand_is_usage_error():
    assert run_cli("wibble").returncode == 2


def test_scl_bounds_refuses_target_outside_subgroup():
    # not pure (index sum -2): no product of commutators reaches it
    for extra in ((), ("--qm", "hom(indexsum)", "--radius", "1", "--cap", "1")):
        r = run_cli("scl-bounds", "--group", "braid:3/pure", "--braid", "-1,-2", *extra, timeout=30)
        assert r.returncode == 2, r.stderr
        assert "outside the subgroup of braid:3/pure" in r.stderr


def test_scl_bounds_on_a_product_with_a_braid_factor_self_verifies():
    # braid texts contain commas, so product elements are written (left;right)
    r = run_cli(
        "scl-bounds", "--group", "product:braid:3,z", "--word", "(1,2,-1,-2;0)",
        "--radius", "1", "--cap", "1", "--format", "json", timeout=60,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["target"] == "(1,2,-1,-2;0)"
    assert doc["interval"] == ["0", "1"]


def test_verify_refuses_a_witness_over_the_work_budget(tmp_path):
    item = {
        "kind": "scl-upper-decomposition",
        "target": ALPHA,
        "group_pair": "braid:3/pure",
        "bound": "1/10000000",
        "direction": "upper",
        "witness": {"power": 10_000_000, "factors": [["1,2,1", "2,2"]]},
        "evidence": {"defect_provenance": None, "invariance_sample": None},
        "verified": True,
        "note": "",
    }
    cert = tmp_path / "huge-power.json"
    cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [item]}))
    r = run_cli("verify", str(cert), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["items"][0]["failed_step"] == "witness"
    assert "budget" in report["items"][0]["detail"]


def test_verify_reads_a_periodic_lower_item_at_the_text_budget_in_linear_time(tmp_path):
    # pattern and target both fill the text budget and match at every other
    # letter; a packing rate that rescans every match per period took ~10 s
    qm = "homog(brooks(w=" + "ab" * 9991 + "))"
    assert len(qm) <= certio.WITNESS_TEXT_BUDGET
    item = {
        "kind": "scl-lower-bavard",
        "target": "ab" * 10000,
        "group_pair": "free:2",
        "bound": "2500/29973",
        "direction": "lower",
        "witness": {"qm": qm, "value": "10000/9991", "defect_upper": "6"},
        "evidence": {"defect_provenance": "junction-argument doubled by homogenisation"},
        "verified": True,
        "note": "",
    }
    cert = tmp_path / "periodic-lower.json"
    cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [item]}))
    r = run_cli("verify", str(cert), "--format", "json", timeout=5)
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["items"][0]["ok"]


def test_braid_groups_over_the_strand_cap_are_refused_at_once(tmp_path):
    # braid:500 used to cost minutes per equality check before failing
    item = {
        "kind": "scl-upper-decomposition",
        "target": "1,-2",
        "group_pair": "braid:500/comm",
        "bound": "1",
        "direction": "upper",
        "witness": {"power": 1, "factors": [["499", "1,-499"]]},
        "evidence": {"defect_provenance": None, "invariance_sample": None},
        "verified": True,
        "note": "",
    }
    cert = tmp_path / "many-strands.json"
    cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [item]}))
    r = run_cli("verify", str(cert), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["items"][0]["failed_step"] == "group pair"
    assert "strand count" in report["items"][0]["detail"]
    r = run_cli("scl-bounds", "--group", "braid:500/comm", "--braid=1,-2", timeout=30)
    assert r.returncode == 2, r.stderr
    assert "strand count" in r.stderr
    assert r.stdout == ""


def test_huge_free_ranks_and_permutation_degrees_are_refused_at_once(tmp_path):
    # the address-space limit turns a regression into a MemoryError in the
    # child instead of a machine out of memory
    limit = 600 * 2**20
    for group, target, message in (
        ("perm:100000000", "1", "degree"),
        ("free:100000000", "a", "rank"),
    ):
        r = run_cli("scl-bounds", "--group", group, "--word", target, "--radius", "1",
                    "--cap", "1", timeout=30, address_space=limit)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""
        item = {
            "kind": "scl-upper-decomposition",
            "target": target,
            "group_pair": group,
            "bound": "1",
            "direction": "upper",
            "witness": {"power": 1, "factors": [[target, target]]},
            "evidence": {"defect_provenance": None, "invariance_sample": None},
            "verified": True,
            "note": "",
        }
        cert = tmp_path / "huge.json"
        cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [item]}))
        r = run_cli("verify", str(cert), "--format", "json", timeout=30, address_space=limit)
        assert r.returncode == 1, r.stderr
        report = json.loads(r.stdout)
        assert report["items"][0]["failed_step"] == "group pair"
        assert message in report["items"][0]["detail"]


def test_scl_bounds_refuses_a_flip_family_over_the_verify_budget():
    # alpha's text has 19 characters: 2 x 526 x 19 fits the budget of 20000
    r = run_cli("scl-bounds", "--group", "braid:3/pure", "--braid", ALPHA,
                "--n-max", "527", timeout=30)
    assert r.returncode == 2, r.stderr
    assert "--n-max 527 is too large" in r.stderr
    assert r.stdout == ""


def test_scl_bounds_checks_the_n_max_budget_before_the_flip_search(monkeypatch, capsys):
    def flip_search(*args):
        raise AssertionError("the flip search ran before the --n-max check")

    monkeypatch.setattr(search, "_flip_search", flip_search)
    # 1,-2 has 4 characters: 2 x 3334 x 4 is over the budget of 20000; its
    # index sum is 0, so it may be conjugate to its inverse
    code = cli.main(["scl-bounds", "--group", "braid:3", "--braid", "1,-2", "--n-max", "3334"])
    assert code == 2
    assert "--n-max 3334 is too large" in capsys.readouterr().err


def test_scl_bounds_skips_the_flip_search_and_its_budget_on_free_groups(monkeypatch, capsys):
    # no nontrivial free-group element is conjugate to its inverse, so the
    # default --n-max 32 does not refuse a long free target
    def flip_search(*args):
        raise AssertionError("the flip search ran on a free group")

    monkeypatch.setattr(search, "_flip_search", flip_search)
    target = "abAB" * 80
    code = cli.main(["scl-bounds", "--group", "free:2", "--word", target,
                     "--radius", "1", "--cap", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "note: no upper bound: not found within 1 factors" in captured.out
    assert "(ball-relative)" in captured.out


def test_scl_bounds_skips_the_flip_search_and_its_budget_on_nonzero_index_sums(
    monkeypatch, capsys
):
    # conjugation keeps a braid's index sum and inversion negates it, so the
    # default --n-max 32 does not refuse a long braid target of nonzero sum
    def flip_search(*args):
        raise AssertionError("the flip search ran on a braid of nonzero index sum")

    monkeypatch.setattr(search, "_flip_search", flip_search)
    target = ",".join(["1"] * 160)
    code = cli.main(["scl-bounds", "--group", "braid:3", f"--braid={target}",
                     "--radius", "1", "--cap", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "note: no upper bound: not found within 1 factors" in captured.out
    assert "(ball-relative)" in captured.out


@pytest.mark.parametrize("args", [
    ("--group", "braid:3", "--braid", "1,2", "--radius", "2", "--cap", "1"),
    ("--group", "braid:3", "--braid", "1,1,-2", "--qm", "hom(indexsum)",
     "--radius", "1", "--cap", "1"),
    ("--group", "braid:3/pure", "--braid", "1,1", "--radius", "1", "--cap", "1"),
    ("--group", "braid:4", "--braid", "1,3", "--radius", "1", "--cap", "1"),
], ids=["braid3", "braid3-lower", "pure", "braid4"])
def test_skipping_the_flip_search_leaves_short_targets_byte_identical(args, monkeypatch, capsys):
    # with the index sum read as 0, the flip search runs, finds nothing and
    # leaves the document to the search: the same bytes as with the skip
    argv = ["scl-bounds", *args, "--format", "json"]
    assert cli.main(argv) == 0
    skipped = capsys.readouterr().out
    searched = []
    real_flip_search = search._flip_search

    def flip_search(*flip_args):
        searched.append(real_flip_search(*flip_args))
        return searched[-1]

    monkeypatch.setattr(search, "_flip_search", flip_search)
    monkeypatch.setattr(search, "index_sum", lambda b: 0)
    assert cli.main(argv) == 0
    assert searched == [None]
    assert capsys.readouterr().out == skipped


def test_a_failed_check_inside_a_command_exits_1_at_its_step(monkeypatch, capsys):
    # a failed check is exit 1, not the usage error of a ValueError and not
    # a traceback
    def upper_from_decomposition(*args, **kwargs):
        raise StepFailure("product equality", "planted")

    monkeypatch.setattr(search, "upper_from_decomposition", upper_from_decomposition)
    code = cli.main(["scl-bounds", "--group", "braid:3/pure", "--braid", ALPHA, "--n-max", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: product equality: planted\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _with_bound(cert, bound):
    return {**cert, "bound": str(bound)}


@pytest.mark.parametrize(
    "patched, bound, argv, accept_all, err",
    [
        (
            # a lower bound above the upper one, which only a verifier that
            # accepts a false claim lets through self-verification
            "bavard_lower", Fraction(100),
            ("--word", "abAB", "--qm", "homog(brooks(w=abAB))"), True,
            "error: interval: certified interval is empty (lower 100 > upper ",
        ),
        (
            # an upper bound its own decomposition does not give
            "upper_from_decomposition", Fraction(1, 100),
            ("--word", "abAB"), False,
            "error: self-verification: "
            "FAIL item 0 (scl-upper-decomposition) at step bound arithmetic: ",
        ),
    ],
    ids=["empty-interval", "self-verification"],
)
def test_scl_bounds_fails_its_own_checks_at_a_step_and_writes_nothing(
    patched, bound, argv, accept_all, err, monkeypatch, tmp_path, capsys
):
    real = getattr(search, patched)
    monkeypatch.setattr(search, patched, lambda *a, **kw: _with_bound(real(*a, **kw), bound))
    if accept_all:
        monkeypatch.setattr(certio, "verify_payload", lambda payload: (True, None, "planted", ()))
    out = tmp_path / "bounds.json"
    code = cli.main(["scl-bounds", "--group", "free:2", *argv, "--radius", "1", "--cap", "1",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(err), captured.err
    assert not out.exists()


def test_a_failed_p3_self_certification_in_verify_exits_1_at_its_step(
    monkeypatch, tmp_path, capsys
):
    # the lower bound's pr1 pullback splits the target with p3_coordinates;
    # a peel with one syllable too many fails its reassembly check
    path = tmp_path / "lower.json"
    code = cli.main(["scl-bounds", "--group", "braid:3/pure-ordinary",
                     "--qm", "pullback(homog(brooks(w=xyXY)), pr1)", "--braid", ALPHA,
                     "--radius", "1", "--cap", "1", "--format", "json", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    plant_extra_syllable(monkeypatch)
    assert cli.main(["verify", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    (item,) = json.loads(captured.out)["items"]
    assert (item["ok"], item["failed_step"], item["rests_on"]) == (False, "p3 coordinates", [])
    assert captured.err == ""


def test_exhausted_search_fits_in_256_mb():
    # the search stores layer 1 only and looks the last two up; storing
    # layer 3 of these 97 moves as well takes about 314 MB
    r = run_cli("scl-bounds", "--group", "free:2", "--word",
                "bAbABABaBababABABababAbAABaBaabABBBabbaBAbaBAb", "--radius", "2",
                "--cap", "3", "--format", "json", timeout=60, address_space=256 * 2**20)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["items"] == []
    assert doc["notes"] == [
        "no upper bound: not found within 3 factors at these radii (ball-relative)"
    ]


def test_searches_past_the_stored_layers_fit_in_256_mb():
    # the last two layers are looked up: a cap-3 search stores layer 1 only,
    # where storing layer 2 of these 1489 moves took about 830 MB
    r = run_cli("scl-bounds", "--group", "free:2", "--word", "abABabABabAB", "--radius", "3",
                "--cap", "3", "--format", "json", timeout=60, address_space=256 * 2**20)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["interval"] == ["0", "3"]
    # exhausted at cap 4, layers up to 2 are stored; storing layer 3 of
    # these 97 moves took about 310 MB
    r = run_cli("scl-bounds", "--group", "free:2", "--word",
                "bAbABABaBababABABababAbAABaBaabABBBabbaBAbaBAb", "--radius", "2",
                "--cap", "4", "--format", "json", timeout=60, address_space=256 * 2**20)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["items"] == [] and doc["interval"] == ["0", None]
    assert doc["notes"] == [
        "no upper bound: not found within 4 factors at these radii (ball-relative)"
    ]
    # the defaults, radius 3 and cap 3: a miss among the 1489 moves stores
    # layer 1 only
    r = run_cli("scl-bounds", "--group", "free:2", "--word", "a", "--format", "json",
                timeout=60, address_space=256 * 2**20)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["items"] == [] and doc["interval"] == ["0", None]
    assert doc["notes"] == [
        "no upper bound: not found within 3 factors at these radii (ball-relative)"
    ]


def test_subcommands_refuse_options_they_do_not_read(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text("{}")
    for args in (
        ("verify", str(cert), "--seed", "3"),
        ("eval", "--qm", "hom(indexsum)", "--braid", "1", "--radius", "2"),
        ("scl-bounds", "--group", "free:2", "--word", "abAB", "--seed", "3"),
        ("verify-paper", "--only", "1", "--n-max", "4"),
    ):
        r = run_cli(*args, timeout=30)
        assert r.returncode == 2, args
        assert "unrecognized arguments" in r.stderr, args


def test_scl_bounds_identity_interval():
    r = run_cli("scl-bounds", "--group", "braid:3/pure", "--braid", "", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["interval"] == ["0", "0"]
    assert "the identity needs no factors" in json.dumps(doc)


def test_scl_bounds_mixed_flip_family(tmp_path):
    out = tmp_path / "mixed.json"
    args = (
        "scl-bounds",
        "--group",
        "braid:3/pure",
        "--braid",
        ALPHA,
        "--n-max",
        "32",
        "--format",
        "json",
        "--out",
        str(out),
    )
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["interval"] == ["0", "1/64"]
    uppers = [item for item in doc["items"] if item["direction"] == "upper"]
    assert len(uppers) == 32
    assert "1/64" in {u["bound"] for u in uppers}
    assert all(u["witness"]["power"] == 2 * (k + 1) for k, u in enumerate(uppers))
    # byte-identical on a second run with the same config and seed
    out2 = tmp_path / "mixed2.json"
    r2 = run_cli(*args[:-1], str(out2))
    assert r2.returncode == 0
    assert out.read_bytes() == out2.read_bytes()
    # every emitted certificate re-verifies in a fresh process
    v = run_cli("verify", str(out))
    assert v.returncode == 0
    assert "all claims verified" in v.stdout


def test_a_fresh_process_writes_complete_output(tmp_path, capsys):
    # the process entry ends with os._exit once main has returned;
    # everything main wrote still reaches stdout, block-buffered as a pipe
    # is by default, and the --out file
    args = ["scl-bounds", "--group", "braid:3/pure", "--braid", ALPHA, "--n-max", "8",
            "--format", "json"]
    assert cli.main(args) == 0
    expected = capsys.readouterr().out
    assert expected.endswith("}\n") and len(json.loads(expected)["items"]) == 8
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def fresh(*extra):
        return subprocess.run(
            [sys.executable, "-m", "sclkit", *args, *extra],
            capture_output=True, text=True, timeout=120, env=buffered,
        )

    r = fresh()
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected
    out = tmp_path / "out.json"
    r = fresh("--out", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
    assert out.read_text() == expected


def test_the_process_entry_exits_with_the_command_s_code(tmp_path):
    # the process entry ends with os._exit once main has returned: 0 for a
    # pass, 1 for a failed verification, 2 for refused input
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"format": "scl-certificates/1", "items": [{}]}))
    r = run_cli("verify-paper", "--only", "2")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.startswith("PASS  2 flip-identity") and r.stdout.endswith("(seed 7)\n")
    r = run_cli("verify", str(broken))
    assert (r.returncode, r.stderr) == (1, "")
    assert r.stdout.startswith("FAIL item 0") and r.stdout.endswith("verification FAILED\n")
    r = run_cli("verify-paper", "--only", "12")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: ") and r.stderr.endswith("\n")


def test_scl_bounds_ordinary_lower(tmp_path):
    out = tmp_path / "ordinary.json"
    r = run_cli(
        "scl-bounds",
        "--group",
        "braid:3/pure-ordinary",
        "--qm",
        "pullback(homog(brooks(w=xyXY)), pr1)",
        "--braid",
        ALPHA,
        "--radius",
        "2",
        "--cap",
        "1",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    lowers = [item for item in doc["items"] if item["direction"] == "lower"]
    assert len(lowers) == 1
    assert lowers[0]["bound"] == "1/12"
    assert doc["interval"][0] == "1/12"
    v = run_cli("verify", str(out))
    assert v.returncode == 0


def test_scl_bounds_refuses_non_invariant_lower_in_mixed_mode():
    r = run_cli(
        "scl-bounds",
        "--group",
        "braid:3/pure",
        "--qm",
        "pullback(homog(brooks(w=xyXY)), pr1)",
        "--braid",
        ALPHA,
        "--n-max",
        "4",
        "--format",
        "json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    notes = " ".join(doc["notes"])
    assert "lower bound refused" in notes
    assert doc["interval"][0] == "0"
    assert not any(item["direction"] == "lower" for item in doc["items"])


def _failed_steps(path):
    r = run_cli("verify", str(path), "--format", "json")
    assert "Traceback" not in r.stderr
    doc = json.loads(r.stdout)
    return r.returncode, [it["failed_step"] for it in doc["items"] if not it["ok"]]


def _pure_ordinary_lower(tmp_path):
    """The text of a fresh pure-ordinary certificate file and the index of
    its lower item, whose quasimorphism is a pullback along pr1."""
    source = tmp_path / "lower.json"
    r = run_cli(
        "scl-bounds", "--group", "braid:3/pure-ordinary",
        "--qm", "pullback(homog(brooks(w=xyXY)), pr1)", "--braid", ALPHA,
        "--radius", "2", "--cap", "1", "--format", "json", "--out", str(source),
    )
    assert r.returncode == 0, r.stderr
    text = source.read_text()
    items = json.loads(text)["items"]
    return text, next(i for i, it in enumerate(items) if it["direction"] == "lower")


def test_verify_refuses_both_forged_lower_bounds(tmp_path):
    text, lower = _pure_ordinary_lower(tmp_path)

    # a defect the file configures itself: "scl >= 500" beside an upper 1
    user_config = json.loads(text)
    item = user_config["items"][lower]
    item["evidence"]["defect_provenance"] = "user-config; pulled back along pr1"
    item["witness"]["defect_upper"] = "1/1000"
    item["bound"] = "500"
    forged = tmp_path / "user-config.json"
    forged.write_text(json.dumps(user_config))
    assert _failed_steps(forged) == (1, ["defect"])

    # the same bound relabelled as mixed, where the half twist flips it
    mixed = json.loads(text)
    mixed["items"][lower]["group_pair"] = "braid:3/pure"
    forged = tmp_path / "mixed.json"
    forged.write_text(json.dumps(mixed))
    assert _failed_steps(forged) == (1, ["invariance"])


def test_verify_fails_a_quasimorphism_undefined_at_the_target(tmp_path):
    # pr1 is defined on P3 only; moved to B3 and a non-pure target, the
    # quasimorphism is refused for its domain before it is evaluated
    text, lower = _pure_ordinary_lower(tmp_path)
    doc = json.loads(text)
    doc["items"][lower]["group_pair"] = "braid:3"
    doc["items"][lower]["target"] = "1,2,-1,-2"
    forged = tmp_path / "undefined.json"
    forged.write_text(json.dumps(doc))
    assert _failed_steps(forged) == (1, ["quasimorphism"])
    r = run_cli("verify", str(forged))
    assert r.returncode == 1
    assert "is not defined on the whole subgroup of braid:3" in r.stdout
    assert r.stderr == ""


CORPUS = Path(__file__).with_name("certificates")


def test_verify_fails_a_pr1_lower_bound_relabelled_to_b3(tmp_path):
    # scl_B3(alpha) <= 1/64 by the flip family, so the 1/12 that the pr1
    # pullback gives inside P3 is false in B3: pr1 does not extend to B3
    doc = json.loads((CORPUS / "pure-ordinary-lower.json").read_text())
    lower = next(i for i, it in enumerate(doc["items"]) if it["direction"] == "lower")
    doc["items"][lower]["group_pair"] = "braid:3"
    forged = tmp_path / "relabelled.json"
    forged.write_text(json.dumps(doc))
    assert _failed_steps(forged) == (1, ["quasimorphism"])


def test_verify_names_qm_value_when_an_admitted_quasimorphism_raises(monkeypatch, capsys):
    # lower_refusal admits pr1 pullbacks only where pr1 is defined; should
    # the evaluation raise there all the same, verify still names a step
    def p3_coordinates(b):
        raise ValueError("planted")

    monkeypatch.setattr(braids, "p3_coordinates", p3_coordinates)
    assert cli.main(["verify", str(CORPUS / "pure-ordinary-lower.json"), "--format", "json"]) == 1
    captured = capsys.readouterr()
    failed = [it for it in json.loads(captured.out)["items"] if not it["ok"]]
    assert [(it["kind"], it["failed_step"]) for it in failed] == [("scl-lower-bavard", "qm value")]
    assert failed[0]["detail"].endswith("is undefined at 1,1,2,2,-1,-1,-2,-2: planted")
    assert captured.err == ""


@pytest.mark.parametrize("radius", ["0", "3"])
def test_scl_bounds_refuses_an_ordinary_pr1_lower_bound_outside_p3(radius, capsys):
    # the pr1 pullback would give scl_B3 >= 1/12 at a pure braid whose B3
    # flip family gives 1/64; it is refused, not written
    qm = "pullback(homog(brooks(w=xyXY)), pr1)"
    argv = ["scl-bounds", "--group", "braid:3", "--braid=1,-2,1,-2,1,-2", "--radius", radius,
            "--cap", radius, "--qm", qm, "--format", "json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not any(item["direction"] == "lower" for item in doc["items"])
    assert doc["interval"] == ["0", None if radius == "0" else "1/64"]
    assert doc["notes"][-1] == (f"lower bound refused: {qm} is not defined on the whole "
                                "subgroup of braid:3 by construction")


def test_scl_bounds_refuses_a_quasimorphism_over_the_text_budget_before_searching(
    monkeypatch, capsys
):
    monkeypatch.setattr(search, "bounds", lambda *a: pytest.fail("searched"))
    qm = f"homog(brooks(w={'ab' * (certio.WITNESS_TEXT_BUDGET // 2)}))"
    assert cli.main(["scl-bounds", "--group", "free:2", "--word", "abAB", "--qm", qm]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --qm names a quasimorphism of {len(qm)} characters: verify "
                            f"refuses quasimorphisms over {certio.WITNESS_TEXT_BUDGET}\n")


def test_mixed_lower_bound_on_a_central_extension_certifies(tmp_path):
    # the left-factor pullback is invariant by construction, so mixed mode
    # keeps the 1/12 that ordinary duality gives
    out = tmp_path / "left.json"
    r = run_cli(
        "scl-bounds", "--group", "product:free:2,z/left", "--word", "(abAB;0)",
        "--qm", "pullback(homog(brooks(w=abAB)), proj-left)",
        "--radius", "2", "--cap", "1", "--format", "json", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["mode"] == "mixed"
    assert doc["interval"] == ["1/12", "1"]
    assert doc["notes"] == []
    assert _failed_steps(out) == (0, [])


def test_verify_fails_unreadable_files_at_schema(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"format": "scl-certificates/1", "items": [' + "9" * 5000 + "]}")
    directory = tmp_path / "directory.json"
    directory.mkdir()
    for path in (binary, deep, huge, directory):
        r = run_cli("verify", str(path))
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert f"FAIL {path}: schema:" in r.stdout
    r = run_cli("verify", str(directory), "--format", "json")
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout)["schema_error"].startswith("schema: cannot read certificate file:")


def test_verify_reports_a_kind_it_does_not_know_as_a_question_mark(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8 and a list is no kind: the
    # report shows neither, and the step detail names an unknown kind by repr
    env = {"PYTHONIOENCODING": "utf-8"}
    path, out = tmp_path / "kind.json", tmp_path / "report.json"
    for kind in ("\udc80x", ["a"], "bogus"):
        path.write_text(json.dumps({"format": certio.FORMAT, "items": [{"kind": kind}]}))
        r = run_cli("verify", str(path), env=env)
        assert r.returncode == 1, r.stderr
        assert r.stdout.startswith("FAIL item 0 (?) at step schema: ")
        r = run_cli("verify", str(path), "--format", "json", "--out", str(out), env=env)
        assert (r.returncode, r.stderr) == (1, "")
        item = json.loads(out.read_text())["items"][0]
        assert (item["kind"], item["failed_step"]) == ("?", "schema")
    doc = json.loads((Path(__file__).with_name("certificates") / "flip-alpha-n4.json").read_text())
    doc["items"][0]["kind"] = "\udc80x"
    path.write_text(json.dumps(doc))
    r = run_cli("verify", str(path), env=env)
    assert r.returncode == 1, r.stderr
    assert r.stdout.startswith(
        "FAIL item 0 (?) at step schema: unknown certificate kind '\\udc80x'\n"
    )


def test_verify_names_a_file_whose_name_is_not_utf8_by_escapes(tmp_path):
    # the byte 0xff is no UTF-8; the path carries it as the surrogate
    # '\udcff', which a strict UTF-8 stdout cannot print
    env = {"PYTHONIOENCODING": "utf-8"}
    corpus = Path(__file__).with_name("certificates") / "flip-alpha-n4.json"
    path, empty, out = tmp_path / "\udcff.json", tmp_path / "\udcfe.json", tmp_path / "report"
    try:
        path.write_bytes(corpus.read_bytes())
        empty.write_bytes(b"")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    named, named_empty = str(tmp_path / "\\xff.json"), str(tmp_path / "\\xfe.json")
    r = run_cli("verify", str(path), env=env)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert r.stdout.endswith(f"\n{named}: 4 item(s), all claims verified\n")
    r = run_cli("verify", str(path), "--format", "json", env=env)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert json.loads(r.stdout)["source"] == named
    r = run_cli("verify", str(path), "--out", str(out), env=env)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert out.read_text().endswith(f"\n{named}: 4 item(s), all claims verified\n")
    r = run_cli("verify", str(empty), "--format", "json", env=env)
    assert (r.returncode, r.stderr) == (1, ""), r.stderr
    report = json.loads(r.stdout)
    assert (report["source"], report["schema_error"]) == (named_empty, "schema: empty certificate file")
    r = run_cli("verify", str(empty), env=env)
    assert (r.returncode, r.stderr) == (1, ""), r.stderr
    assert r.stdout == f"FAIL {named_empty}: schema: empty certificate file\n"


def test_verify_refuses_a_fifo_without_waiting_for_a_writer(tmp_path):
    # opening a FIFO for reading blocks until some process opens it for
    # writing; none does here
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    r = run_cli("verify", str(fifo), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["schema_error"] == (
        f"schema: cannot read certificate file: {str(fifo)!r} is not a regular file"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("verify-paper", "--only", "nope"),
            "error: unknown suite item 'nope'; available: 1 (counting-values), "
            "2 (flip-identity), 3 (mixed-upper-family), 4 (duality-lower), "
            "5 (power-commutator), 6 (commutator-packing), 7 (section-extension), "
            "8 (fragmentation-norm), 9 (pure-braid-splitting), 10 (word-algebra), "
            "11 (certificate-integrity)\n",
        ),
        (("verify", "/nonexistent.json"), "error: no certificate file at /nonexistent.json\n"),
    ],
    ids=["unknown-suite-item", "missing-certificate-file"],
)
def test_refused_input_prints_one_error_line_and_exits_2(argv, err):
    r = run_cli(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", err)


def test_verify_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    r = run_cli(
        "scl-bounds",
        "--group",
        "braid:3/pure",
        "--braid",
        ALPHA,
        "--n-max",
        "2",
        "--format",
        "json",
        "--out",
        str(good),
    )
    assert r.returncode == 0

    assert run_cli("verify", str(good)).returncode == 0

    doc = json.loads(good.read_text())
    target = next(i for i in doc["items"] if i["direction"] == "upper")
    target["bound"] = "1/3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", str(bad))
    assert r.returncode == 1
    assert "bound arithmetic" in r.stdout + r.stderr

    empty = tmp_path / "empty.json"
    empty.write_text("")
    r = run_cli("verify", str(empty))
    assert r.returncode == 1
    assert "schema" in (r.stdout + r.stderr).lower()

    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2


def test_verify_json_names_the_keys_each_item_rests_on(capsys):
    # one field per item in the JSON report; the human report is unchanged
    path = Path(__file__).parent / "certificates" / "pure-ordinary-lower.json"
    assert cli.main(["verify", str(path), "--format", "json"]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert [item["rests_on"] for item in items] == [
        ["b3-key", "b3-purity"],
        ["b3-key", "b3-purity", "duality", "homogenisation", "junction", "pr1"],
    ]
    assert cli.main(["verify", str(path)]) == 0
    assert "rests_on" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--qm", "hom(indexsum)", "--braid", "+1,2"),
        ("eval", "--qm", "hom(indexsum)", "--braid", "1,\u0662"),
        ("eval", "--qm", "hom(indexsum)", "--braid", "0_1"),
        ("eval", "--qm", "hom(indexsum)", "--braid", "01"),
        ("eval", "--qm", "zero", "--group", "z", "--word", "+3"),
        ("eval", "--qm", "zero", "--group", "perm:3", "--word", "2,1,03"),
        ("scl-bounds", "--group", "braid:3/pure", "--braid", "+" + ALPHA, "--n-max", "2"),
    ],
    ids=["plus", "arabic-indic", "underscore", "leading-zero", "z", "perm", "scl-bounds"],
)
def test_integers_are_read_only_in_printed_form(args):
    r = run_cli(*args)
    assert (r.returncode, r.stdout) == (2, ""), r.stderr
    assert r.stderr.startswith("error: integer ") and "not in printed form" in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_reads_integers_only_in_printed_form(tmp_path):
    path = tmp_path / "flip.json"
    assert cli.main(["scl-bounds", "--group", "braid:3/pure", "--braid", ALPHA, "--n-max", "2",
                     "--format", "json", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    first, second = doc["items"]
    first["target"] = "+" + first["target"]
    factor = second["witness"]["factors"][0]
    factor[0] = "+" + factor[0]
    path.write_text(json.dumps(doc))
    assert _failed_steps(path) == (1, ["target", "witness"])


def test_verify_paper_subset_and_bad_key():
    r = run_cli("verify-paper", "--only", "flip-identity")
    assert r.returncode == 0
    assert "PASS" in r.stdout
    r = run_cli("verify-paper", "--only", "2")
    assert r.returncode == 0
    assert run_cli("verify-paper", "--only", "nope").returncode == 2


def test_verify_paper_json_deterministic():
    args = ("verify-paper", "--only", "10", "--format", "json", "--seed", "11")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["format"] == "verify-report/1"
    assert doc["seed"] == 11
    assert doc["ok"] is True


ITEM_4_JSON = """{
  "format": "verify-report/1",
  "items": [
    {
      "detail": "bound 1/12 = 1/(2*6); searched defect 2 <= 6 at radius 8 (139969 pairs)",
      "key": "4",
      "ok": true,
      "slug": "duality-lower"
    }
  ],
  "ok": true,
  "seed": 7
}
"""


def test_verify_paper_item_4_output_is_byte_stable():
    # the detail carries the searched defect and the pair count of
    # defect_search, so any change in the word products or the counting
    # quasimorphism's values shows here
    r = run_cli("verify-paper", "--only", "4", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert r.stdout == ITEM_4_JSON


def test_scl_bounds_refuses_a_target_over_the_text_budget():
    text = "1," * (certio.WITNESS_TEXT_BUDGET // 2) + "1"
    r = run_cli(
        "scl-bounds", "--group", "braid:3/pure", "--braid", text, "--qm", "zero", timeout=30
    )
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert f"the target has {len(text)} characters" in r.stderr


def test_verify_reads_the_longest_document_scl_bounds_writes(tmp_path):
    # flip item n has power 2n and the target 2,1 three characters, so
    # --n-max 3333 is the most the budget allows: 3333 flip items and a lower one
    cert = tmp_path / "longest.json"
    r = run_cli(
        "scl-bounds", "--group", "perm:2", "--word", "2,1", "--n-max", "3333", "--qm", "zero",
        "--format", "json", "--out", str(cert), timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert len(json.loads(cert.read_text())["items"]) == 3334 <= certio.MAX_DOCUMENT_ITEMS
    r = run_cli("verify", str(cert), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.endswith(": 3334 item(s), all claims verified\n")


def test_verify_refuses_a_document_over_the_item_cap_before_checking_its_items(tmp_path):
    # 349,512 empty items in 1 MiB: one schema failure each took 7.2 s at
    # 645 MB and printed 50 MB
    cert = tmp_path / "empty-items.json"
    items = ",".join(["{}"] * 349_512)
    cert.write_text('{"format": "scl-certificates/1", "items": [' + items + "]}")
    r = run_cli("verify", str(cert), "--format", "json", timeout=60, address_space=256 * 2**20)
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["schema_error"] == (
        f"schema: 349512 items, over the limit of {certio.MAX_DOCUMENT_ITEMS}"
    )
    assert report["items"] == []
    assert "Traceback" not in r.stderr


def test_csv_format_is_a_usage_error():
    r = run_cli("verify-paper", "--only", "2", "--format", "csv")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "invalid choice: 'csv'" in r.stderr


def test_human_format_scl_bounds_mentions_interval():
    r = run_cli(
        "scl-bounds",
        "--group",
        "braid:3/pure",
        "--braid",
        ALPHA,
        "--n-max",
        "2",
    )
    assert r.returncode == 0
    assert "interval" in r.stdout


def _item_at_0(group_pair):
    return {
        "kind": "scl-upper-decomposition",
        "target": "0",
        "group_pair": group_pair,
        "bound": "1",
        "direction": "upper",
        "witness": {"power": 1, "factors": [["0", "0"]]},
        "evidence": {"defect_provenance": None, "invariance_sample": None},
        "verified": True,
        "note": "",
    }


def test_product_specs_nested_past_the_cap_are_refused_without_a_traceback(tmp_path):
    # 1000 levels used to end in a RecursionError traceback with exit 1
    nested = "product:" * 1000 + "z" + ",z" * 1000
    for args in (("eval", "--group", nested, "--qm", "zero", "--word", "0"),
                 ("scl-bounds", "--group", nested, "--word", "0")):
        r = run_cli(*args, timeout=30)
        assert r.returncode == 2, r.stderr
        assert "nest at most" in r.stderr and "Traceback" not in r.stderr
        assert r.stdout == ""
    cert = tmp_path / "nested.json"
    cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [_item_at_0(nested)]}))
    r = run_cli("verify", str(cert), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["items"][0]["failed_step"] == "group pair"
    assert "nest at most" in report["items"][0]["detail"]


def test_a_group_pair_over_the_text_budget_is_refused_before_it_is_parsed(tmp_path):
    # the product: depth loop slices the spec once per level, so parsing
    # this 2.5 MB chain ran for more than 30 s before reaching the depth cap
    chain = "product:" * 320_000 + "z,z"
    cert = tmp_path / "long-pair.json"
    cert.write_text(json.dumps({"format": "scl-certificates/1", "items": [_item_at_0(chain)]}))
    r = run_cli("verify", str(cert), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["items"][0]["failed_step"] == "group pair"
    assert "budget" in report["items"][0]["detail"]


def test_projections_have_no_underscore_spelling(capsys):
    for name in ("proj_left", "proj_right"):
        code = cli.main(["eval", "--group", "product:free:2,z", "--qm",
                         f"pullback(zero, {name})", "--word", "(a;0)"])
        assert code == 2
        assert "unknown map" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--group", "braid:3/pure", "--qm", "zero", "--braid", "1"],
        ["eval", "--group", "free:2/comm", "--qm", "zero", "--word", "a"],
        ["eval", "--group", "product:free:2,z/left", "--qm", "zero", "--word", "(a;0)"],
        ["scl-bounds", "--group", "braid:3/pure/pure", "--braid", "1"],
    ],
    ids=["eval-pure", "eval-comm", "eval-left", "scl-bounds-two-suffixes"],
)
def test_a_pair_where_a_group_is_read_is_named_as_one(argv, capsys):
    # these read as a bad strand count, a bad rank or an unknown spec 'z/left'
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "holds no '/'" in err and "names a pair" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--group", "braid:3/pure", "--braid", ALPHA, "--n-max", "4"],
        ["--group", "braid:3/pure-ordinary", "--qm", "pullback(homog(brooks(w=xyXY)), pr1)",
         "--braid", ALPHA, "--radius", "2", "--cap", "1"],
        ["--group", "braid:3/comm", "--braid", "1,-2", "--radius", "2", "--cap", "2"],
    ],
    ids=["pure", "pure-ordinary", "comm"],
)
def test_scl_bounds_on_three_strands_computes_no_normal_form(argv, monkeypatch, capsys):
    # equality on 3 strands is b3_key and balls come in discovery order
    computed = []
    normal_form = braids.normal_form
    monkeypatch.setattr(braids, "normal_form", lambda b: computed.append(b) or normal_form(b))
    assert cli.main(["scl-bounds", *argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["items"]
    assert computed == []


# `tests/data/scl-bounds/COMMANDS`: one golden file name and the sclkit
# arguments that write it, per line, as the CI suite-warnings job reads it
GOLDENS = Path(__file__).with_name("data") / "scl-bounds"
GOLDEN_COMMANDS = [
    line.split(None, 1) for line in (GOLDENS / "COMMANDS").read_text().splitlines()
]


@pytest.mark.parametrize(
    "name, command", GOLDEN_COMMANDS, ids=[name for name, _ in GOLDEN_COMMANDS]
)
def test_scl_bounds_output_matches_its_golden_file(name, command, capsys):
    code = cli.main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode() == (GOLDENS / name).read_bytes()


def test_bounds_returns_the_items_scl_bounds_writes():
    # the call a suite item makes, with no command line in between
    certs, notes = search.bounds(braid_pure_pair(), suite.alpha_braid(), 3, 3, 4, None)
    golden = json.loads((GOLDENS / "flip-alpha-n4.json").read_text())
    assert (certs, notes) == (golden["items"], golden["notes"])


@pytest.mark.parametrize(
    "args",
    [
        ("--group", "braid:3/pure-ordinary", "--braid", ALPHA, "--radius", "2", "--cap", "2"),
        ("--group", "perm:4", "--word", "2,3,1,4", "--radius", "2", "--cap", "2",
         "--n-max", "2"),
    ],
    ids=["braid:3/pure-ordinary", "perm:4"],
)
def test_scl_bounds_output_does_not_depend_on_the_hash_seed(args):
    # balls and move lists come in breadth-first discovery order, with no
    # sort and no set iterated, so string hashing cannot reorder a witness
    outputs = []
    for seed in ("0", "12345"):
        r = run_cli("scl-bounds", *args, "--format", "json", env={"PYTHONHASHSEED": seed})
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "option, value",
    [("--radius", "-1"), ("--cap", "-1"), ("--n-max", "-3"), ("--n-max", "0")],
)
def test_scl_bounds_refuses_negative_search_sizes(option, value, capsys):
    code = cli.main(["scl-bounds", "--group", "free:2", "--word", "abAB", option, value])
    assert code == 2
    captured = capsys.readouterr()
    assert f"{option} must be at least" in captured.err
    assert captured.out == ""


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    for argv in (
        ["eval", "--group", "free:2", "--qm", "zero", "--word", "a"],
        ["verify-paper", "--only", "2"],
    ):
        code = cli.main([*argv, "--format", "json", "--out", str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")
    assert not missing.parent.exists()


def test_an_exponent_bound_fails_at_bound_arithmetic_without_expanding(tmp_path):
    # Fraction("1e99999999") expands the power exactly, which kept verify
    # busy for minutes
    doc = certio.document(suite.standalone_certificates())
    doc["items"][0]["bound"] = "1e99999999"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    r = run_cli("verify", str(path), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    steps = [it["failed_step"] for it in json.loads(r.stdout)["items"]]
    assert steps == ["bound arithmetic", None, None, None]


def test_a_certificate_file_over_the_byte_cap_is_refused_unread(tmp_path):
    # read whole, a 1 GiB file ended in a MemoryError traceback
    cert = tmp_path / "huge.json"
    with cert.open("wb") as fh:
        fh.truncate(2**30)  # sparse: no disk blocks
    r = run_cli("verify", str(cert), "--format", "json", timeout=30,
                address_space=256 * 2**20)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["schema_error"] == (
        f"schema: certificate file longer than {certio.MAX_DOCUMENT_BYTES} bytes"
    )


def test_verify_opens_no_file_but_the_certificate(tmp_path):
    # a group spec naming a file once made verify open it for every item
    # and quote its first token back in the report
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("foreign-token\n")
    for spec, message in (("table:foreign.txt", "unknown group spec"),
                          (f"table:{foreign}", "unknown pair suffix 'foreign.txt'")):
        r = run_cli("scl-bounds", "--group", spec, "--word", "0")
        assert r.returncode == 2 and message in r.stderr, r.stderr
    doc = certio.document(suite.standalone_certificates())
    for item in doc["items"]:
        item["group_pair"] = f"table:{foreign}"
    cert = tmp_path / "relabelled.json"
    cert.write_text(json.dumps(doc))
    code = (
        "import json, sys; from sclkit import cli; opened = []; "
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0]))); "
        f"code = cli.main(['verify', {str(cert)!r}, '--format', 'json']); "
        "print(json.dumps(opened), file=sys.stderr); sys.exit(code)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 1, r.stderr
    # the interpreter opens module files as it imports them
    opened = [path for path in json.loads(r.stderr) if not path.endswith((".py", ".pyc"))]
    assert opened == [str(cert)]
    items = json.loads(r.stdout)["items"]
    assert [it["failed_step"] for it in items] == ["group pair"] * 4
    assert "foreign-token" not in r.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--qm", "brooks(w=ab)", "--group", "free:2", "--word", "a^999999999"),
        ("scl-bounds", "--group", "free:2", "--word", "a^99999999", "--radius", "1", "--cap", "1"),
        ("eval", "--qm", "hom(indexsum)", "--group", "braid:3", "--braid", "s1^999999999"),
        ("eval", "--qm", "brooks(w=a^999999999)", "--group", "free:2", "--word", "ab"),
    ],
)
def test_huge_powers_in_element_text_are_refused_before_expanding(args):
    r = run_cli(*args, timeout=30, address_space=256 * 2**20)
    assert r.returncode == 2, r.stderr
    assert "^" in r.stderr
    assert "Traceback" not in r.stderr


def _lower_item(qm):
    return {
        "kind": "scl-lower-bavard",
        "target": ALPHA,
        "group_pair": "braid:3/pure-ordinary",
        "bound": "1/12",
        "direction": "lower",
        "witness": {"qm": qm, "value": "1", "defect_upper": "6"},
        "evidence": {"defect_provenance": "junction-argument doubled by homogenisation; "
                                          "pulled back along pr1"},
        "verified": True,
        "note": "",
    }


def test_malformed_quasimorphism_specs_fail_at_the_quasimorphism_step(tmp_path):
    deep = 10**4
    qms = [
        "pullback(homog(brooks(w=xyXY)), pr1)",  # the well-formed original
        "pullback(" * deep,
        "pullback(" * deep + "homog(brooks(w=xyXY))" + ", pr1)" * deep,
        "pullback(homog(brooks(w=xyXY)), pr1))",
        "pullback(homog(brooks(w=xyXY)) pr1)",
        "pullback(homog(brooks(w=xyXY)), proj_left)",
        "homog(zero)",
        "brooks(w=",
        "",
    ]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"format": "scl-certificates/1",
                                "items": [_lower_item(qm) for qm in qms]}))
    r = run_cli("verify", str(path), "--format", "json", timeout=30)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    steps = [it["failed_step"] for it in json.loads(r.stdout)["items"]]
    assert steps == [None] + ["quasimorphism"] * (len(qms) - 1)
