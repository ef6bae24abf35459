import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qspecht.cli import main
from qspecht.core import format_multipartition
from qspecht.crystal import restricted_multipartitions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_qdim_text(capsys):
    code, out = run(capsys, "qdim", "--lambda", "2", "--charge", "0")
    assert code == 0
    assert out.strip() == "q"


def test_qdim_json(capsys):
    from qspecht.laurent import LaurentPoly
    from qspecht.specht import qdim_specht

    code, out = run(capsys, "qdim", "--lambda", "2,1", "--charge", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["qdim"] == [[-1, 1], [1, 1]]
    assert payload["parity"] == 1
    # the emitted pairs round-trip through the documented parser
    assert LaurentPoly(payload["qdim"]) == qdim_specht(((2, 1),), (0,))


def test_truncate_remark_value(capsys):
    code, out = run(
        capsys,
        "truncate",
        "--lambda", "3,2,2,1",
        "--charge", "0",
        "--residues", "0,1,0,1,0,1,0,1",
    )
    assert code == 0
    assert out.strip() == "q^-1+3q"


def test_tableaux_listing(capsys):
    code, out = run(
        capsys,
        "tableaux",
        "--lambda", "3,2,2,1",
        "--residues", "0,1,0,1,0,1,0,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert sorted(t["degree"] for t in payload["tableaux"]) == [-1, 1, 1, 1]


def test_tableaux_residue_listing_is_the_filtered_full_listing(capsys):
    shape = ["--lambda", "3,2|1", "--charge", "0,1", "--format", "json"]
    _, full = run(capsys, "tableaux", *shape)
    residues = [0, 1, 1, 0, 0, 1]
    code, pruned = run(capsys, "tableaux", *shape, "--residues", "0,1,1,0,0,1")
    assert code == 0
    expected = [t for t in json.loads(full)["tableaux"] if t["residues"] == residues]
    assert expected
    assert json.loads(pruned)["tableaux"] == expected
    assert json.loads(pruned)["count"] == len(expected)


def test_verify_parity(capsys):
    code, out = run(capsys, "verify", "parity", "--d", "6", "--charge", "0")
    assert code == 0
    assert "result: ok" in out


def test_verify_row_degree_json(capsys):
    code, out = run(
        capsys, "verify", "row-degree", "--d", "7", "--charge", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["violations"] == []


def test_verify_hecke(capsys):
    code, out = run(capsys, "verify", "hecke", "--d", "5", "--charge", "0")
    assert code == 0
    assert "result: ok" in out


def test_restricted(capsys):
    code, out = run(capsys, "restricted", "--d", "4", "--charge", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["restricted"]) == ["1,1,1,1", "2,1,1"]


def test_llt_json(capsys):
    code, out = run(capsys, "llt", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["rows"] == ["2", "1,1"]
    assert payload["matrix"]["cols"] == ["1,1"]
    assert payload["matrix"]["entries"] == [[[[1, 1]]], [[[0, 1]]]]
    assert payload["simples"] == {"1,1": [[0, 1]]}
    assert payload["parity_violations"] == []


def test_llt_reports_a_refused_simple_as_a_violation(capsys, monkeypatch):
    # simple_qdims raises for a solved simple that is negative or not
    # bar-symmetric; llt reports it in its own format and exits 1
    from qspecht import fock

    def refusing(matrix, kappa):
        raise fock.InternalConsistencyError(
            "solved graded dimension for ((1, 1, 1),) is not bar-symmetric: 1"
        )

    monkeypatch.setattr(fock, "simple_qdims", refusing)
    code, out = run(capsys, "llt", "--d", "3")
    assert code == 1
    assert out.splitlines()[-1] == (
        "violation: simple qdims: solved graded dimension for ((1, 1, 1),) is not bar-symmetric: 1"
    )
    code, out = run(capsys, "llt", "--d", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["simples"] == {}
    assert payload["parity_violations"] == [
        "simple qdims: solved graded dimension for ((1, 1, 1),) is not bar-symmetric: 1"
    ]


def test_llt_csv(capsys):
    code, out = run(capsys, "llt", "--d", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'lambda,"2,1","1,1,1"'
    assert lines[1] == '"3","0","q"'


# sha256 of the stdout of `llt --d 12 --charge c --format f`, recorded from the
# implementation that computed the parity of both shapes for every cell
FROZEN_LLT_12_SHA256 = {
    ("0", "text"): "a7e67bae90598abce22223479c67aa2cf9983a9f6598e3f83d276a793da5ec4d",
    ("0", "json"): "06162b05aba2005ea0282cb98f73ee51ed2f5b1e5d4df0c25c57618d98a42684",
    ("0", "csv"): "a80396bde59d3546562f480b61ef22233739d342146527c17646690784e810bc",
    ("1", "text"): "a7e67bae90598abce22223479c67aa2cf9983a9f6598e3f83d276a793da5ec4d",
    ("1", "json"): "72fbee460b2b19dab5f09a260f9e1c1aeafa3361bf736e14c5ee4580d157f23a",
    ("1", "csv"): "a80396bde59d3546562f480b61ef22233739d342146527c17646690784e810bc",
}


@pytest.mark.parametrize("charge,fmt", sorted(FROZEN_LLT_12_SHA256))
def test_llt_output_matches_frozen_digest(capsys, charge, fmt):
    code, out = run(capsys, "llt", "--d", "12", "--charge", charge, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FROZEN_LLT_12_SHA256[charge, fmt]


# sha256 of the stdout of `llt --d 16 --charge c --format f`, recorded from the
# implementation that rendered and parity-checked every cell of the dense matrix
FROZEN_LLT_16_SHA256 = {
    ("0", "text"): "c566b90035d95fb6f5952eaef2c1b63c12ef946cae89c52036d3c0647b5dc100",
    ("0", "json"): "a02a26b437114f985179e17b93a49326857fbf00b1f6083c5c41cc44f80b4c35",
    ("0", "csv"): "6b1a49927505fbf1185d7d71408402b79b3ad15572232dc92c4a8670fe5c847b",
    ("1", "text"): "c566b90035d95fb6f5952eaef2c1b63c12ef946cae89c52036d3c0647b5dc100",
    ("1", "json"): "093df15e2f314ee5dd766e5c41b7e2a8e2ca46ec3f0f964b64dea77fff4094f9",
    ("1", "csv"): "6b1a49927505fbf1185d7d71408402b79b3ad15572232dc92c4a8670fe5c847b",
}


@pytest.mark.parametrize("charge,fmt", sorted(FROZEN_LLT_16_SHA256))
def test_llt_16_output_matches_frozen_digest(capsys, charge, fmt):
    code, out = run(capsys, "llt", "--d", "16", "--charge", charge, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FROZEN_LLT_16_SHA256[charge, fmt]


# sha256 of the stdout of the tableau listings and the row-tableau degree
# sweep, recorded from the implementation that scanned addable and removable
# cells separately.  The listings add the signed counts of `core.steps` and
# the sweep reads `core.degree_contribution`, so the digests pin both readings.
FROZEN_DEGREE_PATH_SHA256 = {
    "tableaux --lambda 3,2,1 --charge 0 --format json":
        "1377574f265d219c7b15b747897fd379154e739ebdf7712fd6f156c53bda5b34",
    "tableaux --lambda 3,2,1 --charge 0 --residues 0,1,1,0,0,0 --format json":
        "96a24deefb8ed32a1ebad0a145b54a80944a2ac628d89e606def33ccacf9c095",
    "tableaux --lambda 4,2,1 --charge 1 --format json":
        "c5f43b8c7ac08c3cae570a226e45d7ed13a94a8ba8a73a724ef3f8b5b5439a4e",
    "tableaux --lambda 4,2,1 --charge 1 --residues 1,0,0,1,1,1,0 --format json":
        "325a2e8344a3f98741182ca02c6775de69d03a8e64d239b30930613342fca931",
    "tableaux --lambda 2,1|1,1 --charge 0,1 --format json":
        "623afcb1b489afaa5d3fef31173fe72899ae0b98b96af8980edace95e660d9b7",
    "tableaux --lambda 2,1|1,1 --charge 0,1 --residues 0,1,1,1,0 --format json":
        "2901de34d54c68d0671a0db1a171995572e51dc86e8c06b7238100681acc100a",
    "tableaux --lambda 3,1|2 --charge 1,0 --format json":
        "87b171635187efc87b481ccd678ca176f683ff6a4bbd6526c448362d5eab4c97",
    "tableaux --lambda 3,1|2 --charge 1,0 --residues 1,0,0,0,1,1 --format json":
        "fb65d98d242924433d9f1b392ebba34916a40038f84f455a60e86448a4d0ca6f",
    "tableaux --lambda 2|1|1 --charge 0,0,1 --format json":
        "8190ec69769a50e17d31083946590193ba66be5affb6d1f3d0971aeab8fb08bc",
    "tableaux --lambda 2|1|1 --charge 0,0,1 --residues 0,0,1,1 --format json":
        "ca1117d55681a96d7f5446c1057287475885a1b79ff1652b3e7e50dfc7a6f75a",
    "tableaux --lambda 1,1|2|1 --charge 1,0,1 --format json":
        "7330394d89e229da3cea33a3616ec46b0dcb8fdbd45f616b75b7146e321e1c33",
    "tableaux --lambda 1,1|2|1 --charge 1,0,1 --residues 0,1,1,1,0 --format json":
        "2962b6a9b4020658019395fc02e7dbaaf41de9575af8a2289d9aa91a27670923",
    "verify row-degree --d 12 --charge 0 --format json":
        "6400abeedf225019be60956819848535d6381f32fb75971d1403c2d790e3a8dc",
    "verify row-degree --d 8 --charge 0,1 --format json":
        "efb1bd16c085e7a25c981ed474d2d6ad9007bdb0665184fcebe144b48fa4038c",
    "verify row-degree --d 6 --charge 0,0,1 --format json":
        "7f9299630a38241412f69f213665a73c6411b5436774eb23a3f34d8036c65c91",
}


@pytest.mark.parametrize("command", sorted(FROZEN_DEGREE_PATH_SHA256))
def test_degree_paths_match_frozen_digests(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_DEGREE_PATH_SHA256[command]


# sha256 of the stdout of `restricted --d d --charge c --format f`, recorded from
# the implementation that summarised each component by its lowest surviving
# addable node and printed one line at a time; the d = 36 and d = 26 entries
# from the one that sorted the whole set before listing it
FROZEN_RESTRICTED_SHA256 = {
    ("36", "0,1", "text"): "593a5e3cd7a3b28915cd9d4f0ce755dc6dd0c439f115019f0a82bcb1992a8564",
    ("26", "0,0,1", "text"): "3d1d6afe7c9f4e0becfbb3f17a4fe6bd782562a1d50bd36c3b41537b18eb9d58",
    ("20", "0", "text"): "ab6744d57c031d31a4eddb716fef9c8905637c1b6045798caaba453b0e9e81dd",
    ("20", "0", "json"): "b8623361b635bff913b750e5c875c1125acb397fbd2ca0743f03ead83a8549e3",
    ("24", "0,1", "text"): "1d277814564a51f5435eb87fdeec40d51fb53694745ac1f998ce11f48992e4d1",
    ("24", "0,1", "json"): "c192ea85caf9d4b23f0673f3270954a0c3879d56a3f20c5c6b24e887e1c0b5c9",
    ("24", "1,0", "text"): "1d277814564a51f5435eb87fdeec40d51fb53694745ac1f998ce11f48992e4d1",
    ("24", "1,0", "json"): "56d5f1fdfce6955b77a957af9918ac0d7dbc7709de9bcc6768902740247e06fa",
    ("16", "0,0,1", "text"): "560be07ce2e6243ee9be1d42a145404438a74bc38f3fd5b47ac6f90e551aa20a",
    ("16", "0,0,1", "json"): "39f215a774355b7e27cca29efa318d78a71096f67da52506c281713d0180965b",
    ("16", "0,1,0", "text"): "7802ab2ac26c6c8574fcc3f4ce69c92c95b1027f38e7a551162a8849fcf2bf7c",
    ("16", "0,1,0", "json"): "7f63468754dbb31e7bfc25dc96a76088fa8a700049de87e42d476cfc043be468",
    ("16", "1,0,0", "text"): "7adcd30d6a0c9f492053ecab5330c1b99db71c9dabe18706c17885e8a7401395",
    ("16", "1,0,0", "json"): "d2b28ad570564f0ed9aa161a38afb6ef1a6df3c387d98aa10d5067679989b4a0",
}


@pytest.mark.parametrize("d,charge,fmt", sorted(FROZEN_RESTRICTED_SHA256))
def test_restricted_output_matches_frozen_digest(capsys, d, charge, fmt):
    code, out = run(capsys, "restricted", "--d", d, "--charge", charge, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FROZEN_RESTRICTED_SHA256[d, charge, fmt]


def test_restricted_lists_the_sorted_set(capsys):
    # the listing by prefix against the sorted set, every charge in {0, 1}
    # at levels 1-4 and every d <= 10, the empty multipartition included
    for level in (1, 2, 3, 4):
        for kappa in product((0, 1), repeat=level):
            charge = ",".join(map(str, kappa))
            for d in range(11):
                names = [format_multipartition(lam)
                         for lam in sorted(restricted_multipartitions(d, kappa))]
                code, out = run(capsys, "restricted", "--d", str(d), "--charge", charge)
                assert code == 0
                assert out == "\n".join([f"count: {len(names)}"] + names) + "\n", (d, kappa)
                code, out = run(
                    capsys, "restricted", "--d", str(d), "--charge", charge, "--format", "json"
                )
                assert code == 0
                payload = {"d": d, "charge": list(kappa), "restricted": names}
                assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n", (d, kappa)


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_a_text_output_is_one_write(monkeypatch):
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["restricted", "--d", "10", "--charge", "0,1"]) == 0
    assert out.writes == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == f"count: {len(lines) - 1}"


def test_adjustment_text(capsys):
    code, out = run(capsys, "adjustment")
    assert code == 0
    assert out.count("pinned: q^-1+q") == 3
    assert "undetermined" in out


def test_adjustment_json(capsys):
    code, out = run(capsys, "adjustment", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = payload["entries"]
    assert len(entries) == 4
    assert entries[0]["pinned"] == [[-1, 1], [1, 1]]
    assert entries[3]["pinned"] is None


def test_malformed_shape_is_usage_error(capsys):
    code = main(["qdim", "--lambda", "1,2", "--charge", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_level_mismatch_is_usage_error(capsys):
    code = main(["qdim", "--lambda", "2,1", "--charge", "0,1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "residues, message",
    [
        ("0,1,2", "residues must be 0 or 1"),
        ("0,1", "residue sequence length does not match the shape size"),
        ("0,x", "malformed residue sequence"),
    ],
)
def test_bad_residues_for_tableaux_are_usage_errors(capsys, residues, message):
    code = main(["tableaux", "--lambda", "2,1", "--charge", "0", "--residues", residues])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err


def test_a_value_error_while_listing_tableaux_is_not_a_usage_error(monkeypatch):
    import qspecht.tableaux

    def broken(*args):
        raise ValueError("internal")
        yield

    monkeypatch.setattr(qspecht.tableaux, "standard_tableaux_with_degrees", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["tableaux", "--lambda", "2,1", "--charge", "0", "--residues", "0,1,0"])


def test_a_value_error_while_truncating_is_not_a_usage_error(monkeypatch):
    import qspecht.specht

    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(qspecht.specht, "qdim_truncation", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["truncate", "--lambda", "2,1", "--charge", "0", "--residues", "0,1,0"])


def test_a_shape_deeper_than_the_recursion_limit_runs(capsys):
    # 1,200 entries is deeper than Python's default limit of 1,000 frames
    row = "1200"
    alternating = ",".join(str(r % 2) for r in range(1200))
    assert main(["qdim", "--lambda", row]) == 0
    assert capsys.readouterr() == ("q^600\n", "")
    assert main(["truncate", "--lambda", row, "--residues", alternating]) == 0
    assert capsys.readouterr() == ("q^600\n", "")
    assert main(["tableaux", "--lambda", row]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert out.splitlines() == [
        "count: 1",
        f"{','.join(map(str, range(1, 1201)))}  degree=600  residues={alternating}",
    ]


def test_byte_identical_reruns(capsys):
    first = run(capsys, "llt", "--d", "5", "--format", "json")
    second = run(capsys, "llt", "--d", "5", "--format", "json")
    assert first == second


def assert_unrecognized(capsys, argv, extra):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *extra])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.startswith("usage: ")
    assert f"unrecognized arguments: {' '.join(extra)}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_parallel_flag_is_a_usage_error(capsys):
    # the level is the charge's length, so no flag repeats it
    verify = ["verify", "parity", "--d", "5"]
    for extra in (["--parallel"], ["--level", "1"]):
        assert_unrecognized(capsys, verify, extra)


def test_adjustment_bound_flag_is_a_usage_error(capsys):
    # the adjustment bound is always the one the truncation argument gives
    assert_unrecognized(capsys, ["adjustment"], ["--bound", "-3"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "parity", "--d", "-1"],
        ["verify", "row-degree", "--d", "-1"],
        ["verify", "hecke", "--d", "-2"],
        ["restricted", "--d", "-1"],
        ["llt", "--d", "-1"],
    ],
    ids=["parity", "row-degree", "hecke", "restricted", "llt"],
)
def test_negative_size_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "nonnegative" in captured.err
    assert captured.out == ""


def test_reader_closing_the_pipe_early_is_not_an_error():
    # the listing is larger than a pipe buffer, so the writer is still
    # printing when the reader goes away
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qspecht", "restricted", "--d", "30", "--charge", "0,1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"count: 3056\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in stderr


CHARGES = ["0", "1", "0,1", "1,1,0", "", "2", "-1", "0,,1", "a", " 1 , 0 "]
SHAPES = ["", "-", "2,1", "3,1,1", "1,2", "2|1", "2,1|-", "-|1,1|1", "|", "0", "-1", "a", "2;1"]
RESIDUE_TEXTS = ["", "0", "0,1,1", "0,1,0,1", "1,0,1,0,1", "2", "0,a", ","]
SIZES = [str(d) for d in range(-3, 7)] + ["", "x", "1.5"]


def _flat(parts):
    return [token for part in parts for token in part]


_common = st.lists(
    st.one_of(
        st.tuples(st.just("--charge"), st.sampled_from(CHARGES)),
        st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv", "xml"])),
    ),
    max_size=3,
).map(_flat)
_shape = st.tuples(st.just("--lambda"), st.sampled_from(SHAPES))
_residues = st.tuples(st.just("--residues"), st.sampled_from(RESIDUE_TEXTS))
_size = st.tuples(st.just("--d"), st.sampled_from(SIZES))
_command = st.one_of(
    st.tuples(st.just(("qdim",)), _shape),
    st.tuples(st.just(("truncate",)), _shape, _residues),
    st.tuples(st.just(("tableaux",)), _shape, st.one_of(st.just(()), _residues)),
    st.tuples(st.tuples(st.just("verify"), st.sampled_from(["parity", "row-degree", "hecke", "x"])), _size),
    st.tuples(st.just(("restricted",)), _size),
    st.tuples(st.just(("llt",)), _size),
    st.tuples(st.just(("adjustment",))),
    st.just(()),
).map(_flat)
ARGV = st.tuples(_command, _common).map(lambda drawn: drawn[0] + drawn[1])


@settings(max_examples=100, deadline=None, database=None)
@given(ARGV)
@example(["adjustment", "--charge", "0,1"])  # once a traceback
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
