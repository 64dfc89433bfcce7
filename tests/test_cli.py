"""Exit codes, table shapes, and determinism of the command line."""

import hashlib
import json
import math
import re
from fractions import Fraction
from itertools import product

import pytest

from howe_forge import classical, cli
from howe_forge import weights as W
from howe_forge.errors import ShapeMismatch
from howe_forge.rieffel import induce_compact


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_int_tuple():
    assert cli.parse_int_tuple("2,1") == (2, 1)
    assert cli.parse_int_tuple("") == ()
    assert cli.parse_int_tuple("-3") == (-3,)
    with pytest.raises(ShapeMismatch):
        cli.parse_int_tuple("a,b")


def test_parse_fraction_tuple():
    assert cli.parse_fraction_tuple("9/2,-3/2") == (Fraction(9, 2),
                                                    Fraction(-3, 2))
    assert cli.parse_fraction_tuple("4,-1") == (4, -1)
    with pytest.raises(ShapeMismatch):
        cli.parse_fraction_tuple("1/0")


def test_parse_signed_blocks():
    w = cli.parse_signed_blocks("2,1:1")
    assert (w.m, w.n) == ((2, 1), (1,))
    w = cli.parse_signed_blocks(":1")
    assert (w.m, w.n) == ((), (1,))
    with pytest.raises(ShapeMismatch):
        cli.parse_signed_blocks("2,1")


def test_halved_text():
    assert cli.halved_text([4, -1]) == "2,-1/2"


def test_run_config_validation():
    with pytest.raises(ShapeMismatch):
        cli.RunConfig(tolerance=0.0)
    with pytest.raises(ShapeMismatch):
        cli.RunConfig(kmax=-1)
    with pytest.raises(ShapeMismatch):
        cli.RunConfig(fmt="yaml")
    for cap in ("kmax", "mmax", "nmax", "seeds"):
        with pytest.raises(ShapeMismatch, match="at least 1"):
            cli.RunConfig(**{cap: 0})
    with pytest.raises(ShapeMismatch):
        cli.RunConfig(degree=-1)
    assert cli.RunConfig(degree=0).degree == 0
    with pytest.raises(ShapeMismatch, match="seed must be nonnegative"):
        cli.RunConfig(seed=-1)
    assert cli.RunConfig(seed=0).seed == 0
    for tol in (math.inf, math.nan, -1e-9):
        with pytest.raises(ShapeMismatch, match="finite and positive"):
            cli.RunConfig(tolerance=tol)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nkmax = 2\ntolerance=1e-8\n\nseeds=3 # inline\n")
    assert cli.load_config(str(path)) == {"kmax": 2, "tolerance": 1e-8,
                                          "seeds": 3}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope=1\n")
    with pytest.raises(ShapeMismatch):
        cli.load_config(str(bad))


# ---------------------------------------------------------------------------
# decompose


def test_decompose_one_group_table(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "2", "--m", "2",
                       "--deg", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["degree", "label", "dim_k", "dim_m",
                                    "product", "commutant", "route",
                                    "status"]
    assert lines[-1] == "PASS"
    assert "2,1" in out


def test_decompose_two_group_table_has_shifted_column(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "2", "--m", "1",
                       "--n", "1", "--deg", "3", "--convention", "sq")
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert "mn_weight" in header and "uk_weight" in header
    assert "3,-1" in out  # the shifted (m+k, n) entry at bidegree (1,1)


def test_decompose_help_lists_the_table_columns(capsys, monkeypatch):
    """The epilog of ``decompose --help`` names the header of each table,
    the one-group table and the one with ``--n``, in order."""
    monkeypatch.setenv("COLUMNS", "1000")  # one line, however long
    with pytest.raises(SystemExit):
        cli.main(["decompose", "--help"])
    listed = re.search(r"TSV columns: (\S+) for one group, (\S+) with --n",
                       capsys.readouterr().out)
    for columns, extra in zip(listed.groups(), ([], ["--n", "1"])):
        _, out, _ = run(capsys, "decompose", "--k", "2", "--m", "1",
                        "--deg", "2", "--format", "tsv", *extra)
        assert columns.split("/") == out.splitlines()[0].split("\t")


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "2", "--m", "2",
                       "--deg", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert [d["degree"] for d in rep["degrees"]] == [0, 1, 2]


def test_decompose_rejects_bad_rank(capsys):
    code, _, err = run(capsys, "decompose", "--k", "0", "--m", "1",
                       "--deg", "2")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# induce


def test_induce_compact(capsys):
    code, out, _ = run(capsys, "induce", "--k", "3", "--m-group", "2",
                       "--weight", "2,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 8
    assert rep["highest_weight"] == ["2", "1", "0"]


def test_induce_graded_weight(capsys):
    code, out, _ = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                       "--weight", "4,-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 8
    assert rep["highest_weight"] == ["1", "0", "-1"]


def test_induce_expected_emptiness(capsys):
    code, out, _ = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                       "--halfint", "7/2,-3/2", "--expect", "empty")
    assert code == 0
    rep = json.loads(out)
    assert rep["empty"] is True
    code, _, _ = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                     "--halfint", "7/2,-3/2", "--expect", "nonempty")
    assert code == 1


def test_induce_signed_blocks(capsys):
    code, out, _ = run(capsys, "induce", "--k", "2", "--mn-group", "1,1",
                       "--signed", "1:1")
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"]["weight"] == "(3, -1)"
    assert rep["dimension"] == 3


def test_induce_signed_blocks_drop_trailing_zeros(capsys):
    """A zero row is no row: ``1,0:0`` is the label ``1:``."""
    argv = ("induce", "--k", "2", "--mn-group", "1,1", "--signed")
    code, padded, _ = run(capsys, *argv, "1,0:0")
    assert code == 0
    assert (code, padded) == run(capsys, *argv, "1:")[:2]


def test_induce_usage_errors(capsys):
    code, _, err = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                       "--weight", "x,1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                       "--weight", "4,-1", "--halfint", "4,-1")
    assert code == 2
    code, _, err = run(capsys, "induce", "--k", "3", "--m-group", "2")
    assert code == 2
    # weight length inconsistent with the group
    code, _, err = run(capsys, "induce", "--k", "3", "--mn-group", "1,1",
                       "--weight", "4,-1,0")
    assert code == 2


@pytest.mark.parametrize("argv,named", [
    (("--mn-group", "1,-1", "--weight", "3"), "N >= 1, got -1"),
    (("--mn-group", "1,0", "--weight", "3"), "N >= 1, got 0"),
    (("--mn-group", "0,1", "--weight", "-1"), "M >= 1, got 0"),
], ids=["negative-N", "zero-N", "zero-M"])
def test_induce_graded_names_a_bad_group_or_window(capsys, argv, named):
    code, out, err = run(capsys, "induce", "--k", "2", *argv)
    assert code == 2 and out == ""
    assert named in err


def test_induce_rejects_tsv_format(capsys):
    code, out, err = run(capsys, "induce", "--k", "3", "--m-group", "2",
                         "--weight", "2,1", "--format", "tsv")
    assert code == 2 and out == ""
    assert "--format json" in err
    code, out, _ = run(capsys, "induce", "--k", "3", "--m-group", "2",
                       "--weight", "2,1", "--format", "json")
    assert code == 0 and json.loads(out)["dimension"] == 8


def test_induce_compact_rejects_graded_only_flags(capsys):
    for extra in (("--signed", "1:1"), ("--halfint", "3/2")):
        code, out, err = run(capsys, "induce", "--k", "2", "--m-group", "2",
                             "--weight", "1", *extra)
        assert code == 2 and out == ""
        assert extra[0] in err


def test_induce_window_overflow_is_infeasible(capsys):
    """Bidegree (200, 200) needs 201 x 201 monomials, past BASIS_CAP."""
    code, out, err = run(capsys, "induce", "--k", "2", "--mn-group", "1,1",
                         "--weight", "202,-200")
    assert code == 1 and out == ""
    assert err == "infeasible: bidegree (200, 200) needs 40401 monomials\n"


def test_induce_graded_has_no_degree_window(capsys):
    code, out, _ = run(capsys, "induce", "--k", "2", "--mn-group", "1,1",
                       "--weight", "12,-3")
    assert code == 0
    assert json.loads(out)["dimension"] == 14  # signed_weight_dim((10, -3), 2)
    with pytest.raises(SystemExit):
        cli.main(["induce", "--help"])
    assert "--deg" not in capsys.readouterr().out


@pytest.mark.parametrize("argv,code,line", [
    (("orbit", "--k", "3", "--m", "2,0", "--seeds", "1"), 1,
     "infeasible: level-set norms must be positive, got (2, 0)"),
    (("orbit", "--k", "3", "--m", "1,2", "--seeds", "1"), 2,
     "error: block not weakly decreasing: (1, 2)"),
    (("induce", "--k", "3", "--mn-group", "1,1", "--signed", "2,3:1"), 2,
     "error: block not weakly decreasing: (2, 3)"),
    (("induce", "--k", "3", "--mn-group", "1,1", "--signed", "1,1:"), 2,
     "error: block m has 2 rows, the group only 1"),
    (("induce", "--k", "3", "--mn-group", "1,1", "--signed", ":2,1"), 2,
     "error: block n has 2 rows, the group only 1"),
    (("induce", "--k", "3", "--m-group", "2", "--weight", "1,2"), 2,
     "error: parts not weakly decreasing: (1, 2)"),
    (("induce", "--k", "3", "--mn-group", "2,1", "--weight", "40,10,-30"), 1,
     "infeasible: monomial basis size 1906884 exceeds cap 20000"),
    (("induce", "--k", "2", "--m-group", "4", "--weight", "5,5"), 1,
     "infeasible: tensor power basis k^n = 1048576 exceeds cap 20000"),
], ids=["orbit-bad-weight", "orbit-shape", "induce-signed-shape",
        "induce-signed-m-rows", "induce-signed-n-rows",
        "induce-compact-shape", "induce-piece-cap", "induce-irrep-cap"])
def test_each_error_class_has_one_exit_code(capsys, argv, code, line):
    """``main`` maps ShapeMismatch to a usage error and BadWeight or
    TooLarge to an infeasible request, whichever subcommand raises it.
    The x side of bidegree (44, 30) alone, C(49, 5) monomials in six
    variables, is past BASIS_CAP, and so are the 4^10 words the U(4)
    irrep (5, 5) lives in."""
    got, out, err = run(capsys, *argv)
    assert (got, out, err) == (code, "", line + "\n")


# ---------------------------------------------------------------------------
# orbit


def test_orbit_table(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "5", "--m", "2,1", "--n", "1",
                       "--seeds", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:3] == ["seed", "spectrum", "max_dev"]
    assert len(lines) == 4  # header, two seeds, PASS
    assert lines[-1] == "PASS"


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "--k", "3", "--m", "1",
                       "--seeds", "1", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["cells"][0]["spectrum"] == pytest.approx([1.0, 0.0, 0.0])


def test_orbit_rank_too_small(capsys):
    code, _, err = run(capsys, "orbit", "--k", "1", "--m", "1", "--n", "1")
    assert code == 1
    assert "infeasible" in err


def test_orbit_and_verify_all_share_the_default_tolerance(capsys):
    assert cli.RunConfig().tolerance == classical.DEFAULT_TOL
    argv = ("orbit", "--k", "4", "--m", "2,1", "--n", "1", "--seeds", "3")
    got = run(capsys, *argv)
    assert got[0] == 0 and got == run(capsys, *argv, "--tol", "1e-9")


def test_orbit_tolerance_below_rounding_is_a_fail_verdict(capsys):
    """The stabilizer check's own phase element is unitary only up to
    rounding; a report tolerance of 1e-17 fails the checks, it does not
    reject that element."""
    code, out, err = run(capsys, "orbit", "--k", "3", "--m", "2,1", "--n",
                         "1", "--seeds", "2", "--tol", "1e-17")
    assert code == 1 and not err
    assert out.splitlines()[-1] == "FAIL"


def test_orbit_rejects_bad_tolerance(capsys):
    code, _, _ = run(capsys, "orbit", "--k", "2", "--m", "1", "--tol=-1e-9")
    assert code == 2


def assert_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify-all", "--seed", "-1"),
    ("orbit", "--k", "2", "--m", "1", "--seed", "-1"),
], ids=["verify-all", "orbit"])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    """numpy refuses a negative seed; the command line says so first."""
    assert_usage_error(capsys, argv, "seed")


def test_a_negative_seed_in_a_config_file_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=1\nseed=-1\n")
    assert_usage_error(capsys, ("verify-all", "--config", str(cfg)),
                       "seed must be nonnegative")


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ("orbit", "--k", "2", "--m", "1", "--tol"),
    ("verify-all", "--tolerance"),
], ids=["orbit", "verify-all"])
def test_a_tolerance_that_is_not_finite_is_a_usage_error(capsys, argv, tol):
    """Every comparison with inf holds and every one with nan fails, so
    neither tolerance could fail or pass an orbit check for its reason."""
    assert_usage_error(capsys, (*argv, tol), "finite and positive")


def test_an_infinite_tolerance_in_a_config_file_is_a_usage_error(
        capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=1\ntolerance=inf\n")
    assert_usage_error(capsys, ("verify-all", "--config", str(cfg)),
                       "finite and positive")


# ---------------------------------------------------------------------------
# verify-all


VERIFY_ALL_SMALL = ("verify-all", "--kmax", "1", "--mmax", "1", "--nmax", "1",
                    "--degree", "2", "--seeds", "1")


def test_verify_all_small_grid_passes(capsys):
    code, out, _ = run(capsys, *VERIFY_ALL_SMALL)
    assert code == 0
    assert out.strip().endswith("PASS")
    names = [line.split("\t")[0] for line in out.strip().splitlines()[1:-1]]
    assert names == ["schur-weyl", "howe", "lowest-type", "compact-induction",
                     "emptiness", "orbit", "shift-bookkeeping"]


def test_verify_all_tolerance_below_rounding_is_a_fail_verdict(capsys):
    code, out, err = run(capsys, "verify-all", "--tolerance", "1e-17",
                         "--kmax", "1", "--mmax", "1")
    assert code == 1 and not err
    rows = dict(line.split("\t")[::2] for line in out.splitlines()[1:-1])
    assert rows["orbit"] == "FAIL" and out.splitlines()[-1] == "FAIL"


def test_verify_all_is_deterministic(capsys):
    _, first, _ = run(capsys, *VERIFY_ALL_SMALL, "--seed", "1",
                      "--format", "json")
    _, second, _ = run(capsys, *VERIFY_ALL_SMALL, "--seed", "1",
                       "--format", "json")
    assert first == second
    rep = json.loads(first)
    assert rep["ok"] is True and rep["seed"] == 1


# sha256 of the full verify-all --seed 1 report.  A refactor keeps these
# bytes; a change that alters the report on purpose updates the digest
# and says why.
VERIFY_ALL_SEED_1_SHA256 = {
    "json": "a3c4ee9688fd643510490d4b67a342d0722c46da2a2d6eef5a7f6777ace2a171",
    "tsv": "15b2614681bc957628f2b8de20fe2d47bfd699c1243355d6839b2052cf07004d",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SEED_1_SHA256))
def test_verify_all_seed_1_report_is_frozen(capsys, fmt):
    code, out, _ = run(capsys, "verify-all", "--seed", "1", "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_ALL_SEED_1_SHA256[fmt]


# The same for one grid size up, whose cells include M = 3 and N = 2.
VERIFY_ALL_MID = ("verify-all", "--seed", "1", "--kmax", "3", "--mmax", "3",
                  "--nmax", "2", "--degree", "4")
VERIFY_ALL_MID_SHA256 = {
    "json": "79f5241d7a5d8d4e2b6173b41c28d2c05b88a755ac89375fc91b1187a9d4870b",
    "tsv": "16cf0d99048c87fbc2dbf5b01b8e8ab22048accb770927a1b2366797da36a988",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_MID_SHA256))
def test_verify_all_mid_grid_report_is_frozen(capsys, fmt):
    code, out, _ = run(capsys, *VERIFY_ALL_MID, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_ALL_MID_SHA256[fmt]


# The k = 4 cells at degree 4, whose graded inductions build their weight
# blocks from the column sums alone.
VERIFY_ALL_K4_JSON_SHA256 = \
    "1dfb6563fb5ddcfc399bfb7d269c0c2e4064916c1a9d6a28706971b523a3a601"


def test_verify_all_k4_grid_report_is_frozen(capsys):
    code, out, _ = run(capsys, "verify-all", "--seed", "1", "--kmax", "4",
                       "--mmax", "3", "--nmax", "2", "--degree", "4",
                       "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_ALL_K4_JSON_SHA256


# verify-all shows compact induction only as ok flags, so this pins the
# full reports of acceptance criterion 3's grid: k 1-4, M 1-3, |m| <= 4,
# 100 modules in partitions_of order.
INDUCE_COMPACT_GRID_SHA256 = \
    "3197c9b4bccb2a4ab68300e39ded9e484b790c7ce9aa58b458bddc933c099c51"


def test_induce_compact_grid_reports_are_frozen():
    digest, cells = hashlib.sha256(), 0
    for k, M, tot in product(range(1, 5), range(1, 4), range(5)):
        for m in W.partitions_of(tot, max_rows=M):
            rep = induce_compact(k, M, m).to_json()
            digest.update((json.dumps(rep, sort_keys=True, indent=2)
                           + "\n").encode())
            cells += 1
    assert cells == 100
    assert digest.hexdigest() == INDUCE_COMPACT_GRID_SHA256


def test_verify_all_has_no_thread_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-all", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_verify_all_has_no_thread_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    code, out, err = run(capsys, "verify-all", "--config", str(cfg))
    assert code == 2 and not out
    assert "unknown key 'threads'" in err


def test_verify_all_ignores_the_old_thread_variable(capsys, monkeypatch):
    """The grid is pure-Python exact arithmetic, so it runs its cells in
    order whatever the environment says."""
    _, plain, _ = run(capsys, *VERIFY_ALL_SMALL, "--format", "json")
    monkeypatch.setenv("HOWE_FORGE_THREADS", "4")
    code, out, _ = run(capsys, *VERIFY_ALL_SMALL, "--format", "json")
    assert code == 0 and out == plain


def test_verify_all_config_file_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=1\nmmax=1\nnmax=1\ndegree=2\nseeds=1\n")
    code, out, _ = run(capsys, "verify-all", "--config", str(cfg))
    assert code == 0 and out.strip().endswith("PASS")
    bad = tmp_path / "bad.cfg"
    bad.write_text("what=1\n")
    code, _, err = run(capsys, "verify-all", "--config", str(bad))
    assert code == 2 and "unknown key" in err


@pytest.mark.parametrize("flag", ["--kmax", "--mmax", "--nmax", "--seeds"])
def test_verify_all_refuses_an_empty_grid_flag(capsys, flag):
    """A zero cap would leave sections with no cells, reported as ok."""
    code, out, err = run(capsys, "verify-all", flag, "0")
    assert code == 2 and not out
    assert "must be at least 1" in err


def test_verify_all_refuses_an_empty_grid_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=1\nmmax=1\nnmax=1\ndegree=2\nseeds=0\n")
    code, out, err = run(capsys, "verify-all", "--config", str(cfg))
    assert code == 2 and not out
    assert "must be at least 1" in err


def test_verify_all_config_value_that_does_not_parse(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seeds=1\nkmax=abc\n")
    code, out, err = run(capsys, "verify-all", "--config", str(bad))
    assert code == 2 and not out
    assert f"{bad}:2: cannot read kmax='abc' as int" in err
    assert "Traceback" not in err


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "decompose", "--k", "2", "--m", "2",
                       "--deg", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().strip().endswith("PASS")
