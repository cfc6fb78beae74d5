import ast
import csv
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import BLOWUP_SMALL, FIXTURES, fixture_config, record_call
from hypothesis import given, settings, strategies as st

from stringlab import (DataFamily, EnergyTracker, ExperimentConfig, Grid1D, ParseError,
                       ProfileSpec, ValidationError, init_state, parse_config, run_evolution,
                       serialize_config)
from stringlab import evolve, identities
from stringlab.cli import main
from stringlab.energy import HierarchyFit, TraceCheckStudy, run_verdict, sweep_verdict
from stringlab.evolve import BlowupLevel, BlowupStudy, ConvergenceStudy, Refinement, RunResult
from stringlab.initialdata import CriterionReport, TraceTable

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def test_empty_file_gives_defaults():
    cfg = parse_config("")
    assert cfg.mode == "run" and cfg.gamma == 0.5 and cfg.delta == 0.1 and cfg.N == 4


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ngamma = 0.25   # trailing\n")
    assert cfg.gamma == 0.25


def test_gamma_out_of_range_rejected():
    with pytest.raises(ValidationError, match="gamma"):
        parse_config("gamma = 1.5")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("gamma = 0.5\nbogus = 1\n")


def test_threads_key_is_gone():
    # sweeps batch their deltas in lockstep; there is no thread pool to size
    with pytest.raises(ParseError, match="unknown key 'threads'"):
        parse_config("mode = sweep\nthreads = 2\n")
    assert "threads" not in serialize_config(ExperimentConfig())


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("gamma = 0.5\ngamma = 0.6\n")


def test_bad_value_rejected():
    with pytest.raises(ParseError, match="bad value"):
        parse_config("n = lots")


@pytest.mark.parametrize("line,match", [
    ("cfl = 0.95", "cfl"),
    ("N = 9", "N"),
    ("dx = -0.5", "dx"),
    ("mode = fly", "mode"),
    ("mode = converge", "travelling-wave oracle"),
    ("mode = tracecheck\nN = 1", "N >= 2"),
])
def test_invariant_violations_named(line, match):
    with pytest.raises(ValidationError, match=match):
        parse_config(line)


# each input rule that a library owner checks: a config text that breaks
# it, the owner's call with the same value, and the prefix that the config
# adds to the owner's message
_FAMILY, _GRID = DataFamily(), Grid1D(-20.0, 0.1, 401)
OWNED_RULES = {
    "gamma": ("gamma = 1.5", lambda: DataFamily(gamma=1.5), ""),
    "dx": ("dx = -0.5", lambda: Grid1D(-40.0, -0.5, 1601), ""),
    "n": ("n = 8", lambda: Grid1D(-40.0, 0.05, 8), ""),
    "f_kind": ("f_kind = foo", lambda: ProfileSpec("foo"), "f_"),
    "fb_width": ("fb_width = 0", lambda: ProfileSpec(width=0.0), "fb_"),
    "t_end": ("t_end = -1", lambda: run_evolution(_FAMILY, _GRID, t_end=-1.0), ""),
    "cfl": ("cfl = 0.95", lambda: run_evolution(_FAMILY, _GRID, cfl=0.95), ""),
    "eps_ko": ("eps_ko = -0.5", lambda: run_evolution(_FAMILY, _GRID, eps_ko=-0.5), ""),
    "gmin": ("gmin = 1", lambda: run_evolution(_FAMILY, _GRID, gmin=1.0), ""),
    "N": ("N = 9", lambda: EnergyTracker(0.5, N=9), ""),
    "report_every": ("report_every = 0", lambda: EnergyTracker(0.5, report_every=0), ""),
}


@pytest.mark.parametrize("rule", OWNED_RULES)
def test_config_error_is_the_owners_message(rule):
    # the config calls the owner of each rule rather than restating it
    text, call, prefix = OWNED_RULES[rule]
    with pytest.raises(ValueError) as owned:
        call()
    with pytest.raises(ValidationError) as validated:
        parse_config(text)
    assert str(validated.value) == prefix + str(owned.value)


def test_causal_margin_enforced():
    with pytest.raises(ValidationError, match="causal-margin"):
        parse_config("t_end = 100\n")   # default domain too small for T=100


def test_readme_config_block_is_the_defaults():
    block = README.read_text().split("### Config format", 1)[1].split("```")[1]
    assert parse_config(block) == ExperimentConfig()


def test_roundtrip_idempotent_on_defaults():
    text = serialize_config(ExperimentConfig())
    cfg = parse_config(text)
    assert cfg == ExperimentConfig()
    assert serialize_config(cfg) == text


@pytest.mark.parametrize("name,mode", [("a3_sweep", "sweep"), ("a5_blowup", "blowup"),
                                       ("a7_tracecheck", "tracecheck")])
def test_fixture_files_parse_validate_and_roundtrip(name, mode):
    cfg = fixture_config(name)          # parse_config validates
    assert cfg.mode == mode
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@pytest.mark.parametrize("value", ["0,,1", "1,", ",", ", 1", "0, ,1"])
def test_empty_list_item_rejected_with_line_number(value):
    # used to drop the empty item and run with the others
    with pytest.raises(ParseError, match=r"line 2: empty item in .* for key 'probes_u'"):
        parse_config(f"gamma = 0.5\nprobes_u = {value}\n")


@pytest.mark.parametrize("text", ["probes_u =\n", "probes_u =   # none\n"])
def test_empty_list_value_is_no_items(text):
    cfg = parse_config(text)
    assert cfg.probes_u == ()
    assert "probes_u = \n" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(0.05, 0.95), delta=st.floats(0.0, 0.3),
       cfl=st.floats(0.1, 0.9), n=st.integers(1601, 2400),
       amp=st.floats(0.1, 2.0), seed=st.integers(0, 10_000))
def test_roundtrip_random_valid_configs(gamma, delta, cfl, n, amp, seed):
    cfg = ExperimentConfig(gamma=gamma, delta=delta, cfl=cfl, n=n,
                           fb_amplitude=amp, seed=seed)
    text = serialize_config(cfg)
    back = parse_config(text)
    assert back == cfg
    assert serialize_config(back) == text


# ---------------------------------------------------------------------------
# CLI


def _cfg_file(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


SMALL_RUN = """
t_end = 4
x0 = -20
dx = 0.1
n = 401
report_every = 20
probes_u = 0
probes_ub = 0
"""


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """The session's one `run` call on SMALL_RUN, recorded (conftest
    record_call), which the tests that make that call read."""
    tmp = tmp_path_factory.mktemp("small_run")
    return record_call(["run", "--config", _cfg_file(tmp, SMALL_RUN), "--out", str(tmp / "out")],
                       tmp / "out")


def test_cli_run_exit_zero(small_run):
    assert small_run.code == 0
    assert {"energy.csv", "criterion.csv", "monitor.csv"} <= small_run.csvs.keys()
    assert "criterion: pass" in small_run.stdout and "monitors pass" in small_run.stdout


def test_cli_run_warns_on_truncated_probe(tmp_path, capsys, small_run):
    # the outgoing line u0 = -8 (x = t + 16) leaves the grid before t_end
    text = SMALL_RUN.replace("probes_u = 0", "probes_u = 0, -8")
    rc = main(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "left the grid" in err[0]
    assert err[0].endswith(": u0=-8")
    assert small_run.stderr == ""


def test_cli_energy_csv_schema(small_run):
    assert small_run.code == 0
    header = small_run.csvs["energy.csv"].decode().splitlines()[0]
    assert header == ("t,k,E2,Eb2,F2_u0,Fb2_ub0,min_g,"
                      "sobolev_L_margin,sobolev_Lb_margin")


def test_cli_run_dump_fields(tmp_path):
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN + "dump_fields = 1\n"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    with open(tmp_path / "out" / "fields.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "x", "phi", "w", "p"] and len(rows) == 2 * 401
    grid = Grid1D(-20.0, 0.1, 401)
    st0 = init_state(parse_config(SMALL_RUN).family(), grid)
    first = np.array(rows[:401], dtype=float)
    assert np.array_equal(first, np.column_stack([np.zeros(401), grid.x, st0.phi, st0.w, st0.p]))
    t_last, = {float(r[0]) for r in rows[401:]}
    assert t_last == pytest.approx(4.0, abs=1e-12)


def test_cli_run_deterministic(tmp_path):
    """Two calls of the same config write the same bytes: this test makes
    both calls itself, rather than read the recorded `small_run`."""
    cfgf = _cfg_file(tmp_path, SMALL_RUN)
    main(["run", "--config", cfgf, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfgf, "--out", str(tmp_path / "b")])
    for name in ("energy.csv", "criterion.csv", "monitor.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture(scope="session")
def blowup_run(tmp_path_factory):
    """The session's one `run` call on BLOWUP_SMALL to t = 8 on a 441-point
    grid from x0 = -22, recorded, which the tests that make that call read."""
    tmp = tmp_path_factory.mktemp("blowup_run")
    text = serialize_config(BLOWUP_SMALL.with_(mode="run", t_end=8.0, x0=-22.0, n=441))
    return record_call(["run", "--config", _cfg_file(tmp, text), "--out", str(tmp / "out")],
                       tmp / "out")


def test_cli_run_blowup_exit_two(blowup_run):
    assert blowup_run.code == 2
    assert "blow-up detected" in blowup_run.stdout


def test_cli_run_warns_when_the_criterion_passes_and_the_run_blows_up(tmp_path, capsys,
                                                                     small_run, blowup_run):
    # the A5 packets with fb_amplitude 1.6 pass the criterion (ordering
    # margin 0.039), yet at dx = 1/16 the run loses hyperbolicity at t = 4.575
    cfg = fixture_config("a5_blowup").with_(mode="run", fb_amplitude=1.6, dx=0.0625, n=897)
    rc = main(["run", "--config", _cfg_file(tmp_path, serialize_config(cfg)),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.startswith("criterion: pass (gap 8.197e-01, ordering margin 3.918e-02)")
    assert "blow-up detected at t = 4.575" in captured.out
    assert captured.err.splitlines() == [
        "stringlab: warning: criterion pass (ordering margin 3.918e-02) but blow-up "
        "(min g 4.671e-04): the grid may be under-resolved"]
    # only in that direction: a failing criterion before a blow-up, and the
    # golden run config (the same text as SMALL_RUN), which passes and
    # completes, leave stderr empty
    assert blowup_run.code == 2 and blowup_run.stderr == ""
    assert small_run.code == 0 and small_run.stderr == ""


def test_cli_blowup_small(tmp_path, capsys):
    rc = main(["blowup", "--config", _cfg_file(tmp_path, serialize_config(BLOWUP_SMALL)),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "blowup.csv").read_text().splitlines()
    assert rows[0] == "level,n,dx,t_blowup" and len(rows) == 4
    summary = (tmp_path / "out" / "blowup_summary.csv").read_text().splitlines()
    assert summary[0] == "t_star,criterion_passed,min_separation,initial_separation"
    sep, sep0 = (float(v) for v in summary[1].split(",")[2:])
    assert sep < 0.2 * sep0
    captured = capsys.readouterr()
    # one stderr line per level names its blow-up time and reason
    for level, n in enumerate((361, 721, 1441)):
        assert f"stringlab: blowup level {level}: n = {n}, t_blowup = " in captured.err
    assert captured.err.count("hyperbolicity loss") == 3
    assert "blowup level" not in captured.out


def test_cli_blowup_without_blowup_exit_one(tmp_path, capsys):
    text = serialize_config(BLOWUP_SMALL.with_(t_end=1.0))
    rc = main(["blowup", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no blow-up detected on some level" in capsys.readouterr().out
    assert (tmp_path / "out" / "blowup.csv").exists()
    assert not (tmp_path / "out" / "blowup_summary.csv").exists()


def test_cli_blowup_names_a_level_disagreement(tmp_path, capsys):
    # the A5 packets at fb_amplitude 1.6 pass the criterion; the two coarse
    # levels lose hyperbolicity and the finest runs to t_end
    cfg = fixture_config("a5_blowup").with_(fb_amplitude=1.6, dx=0.0625, n=897, t_end=6.0)
    rc = main(["blowup", "--config", _cfg_file(tmp_path, serialize_config(cfg)),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == (
        "blowup: levels [0, 1] blow up, levels [2] do not: the grid may be under-resolved")
    assert "t_blowup = 4.575," in captured.err and "t_blowup = 4.475," in captured.err
    assert not (tmp_path / "out" / "blowup_summary.csv").exists()


def test_cli_bad_config_exit_one(tmp_path, capsys):
    rc = main(["run", "--config", _cfg_file(tmp_path, "gamma = 1.5"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _assert_named_error(capsys, rc, match):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("stringlab: error: ") and match in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gmin", ["-1e-3", "1", "nan"])
def test_cli_gmin_out_of_range_named(tmp_path, capsys, gmin):
    # a negative gmin let step accept a degenerate state
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN + f"gmin = {gmin}\n"),
               "--out", str(tmp_path / "out")])
    _assert_named_error(capsys, rc, "gmin out of [0, 1)")


@pytest.mark.parametrize("line", ["f_width = 0", "fb_width = -1"])
def test_cli_nonpositive_profile_width_named(tmp_path, capsys, line):
    # used to end in a ValueError traceback from the profile
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN + line + "\n"),
               "--out", str(tmp_path / "out")])
    _assert_named_error(capsys, rc, f"{line.split()[0]} must be positive")


@pytest.mark.parametrize("mode, line, argv, match", [
    ("verify", "seed = -1", [], "seed must be >= 0"),
    ("verify", "", ["--seed", "-3"], "seed must be >= 0"),
    ("run", "report_every = 0", [], "report_every must be >= 1"),
    ("run", "report_every = -5", [], "report_every must be >= 1"),
    ("run", "f_kind = foo", [], "f_kind must be one of"),
    ("run", "mode = fly", [], "mode must be one of"),
], ids=["seed", "seed-flag", "report_every-0", "report_every-negative", "f_kind", "mode"])
def test_cli_config_gap_named(tmp_path, capsys, mode, line, argv, match):
    # used to end in a traceback: a negative seed in np.random.default_rng, a
    # zero report_every in the tracker's child, an unknown kind in family();
    # a negative report_every ran
    text = SMALL_RUN.replace("report_every = 20\n", "") + line + "\n"
    rc = main([mode, "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out"),
               *argv])
    _assert_named_error(capsys, rc, match)


@pytest.mark.parametrize("case, match", [
    ("missing", "cannot read config {cfg}: No such file or directory"),
    ("not-utf-8", "cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff"),
    ("out-is-a-file", "cannot create output directory {out}: File exists"),
], ids=["missing", "not-utf-8", "out-is-a-file"])
def test_cli_unreadable_config_or_unmakeable_out_named(tmp_path, capsys, case, match):
    # each used to end in a traceback: FileNotFoundError, UnicodeDecodeError
    # and FileExistsError from mkdir
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    if case == "not-utf-8":
        cfg.write_bytes(b"gamma = 0.5 # \xff\n")
    elif case == "out-is-a-file":
        cfg.write_text(SMALL_RUN)
        out.write_text("")
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    _assert_named_error(capsys, rc, match.format(cfg=cfg, out=out))


@pytest.mark.parametrize("mode", ["run", "tracecheck"])
def test_cli_out_of_range_data_named(tmp_path, capsys, mode):
    # used to print about 20 numpy overflow warnings, then "blow-up detected
    # at t = 0 (non-finite values)" and exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([mode, "--config", _cfg_file(tmp_path, SMALL_RUN + "f_amplitude = 1e200\n"),
                   "--out", str(tmp_path / "out")])
    _assert_named_error(capsys, rc, "initial data out of range")


@pytest.mark.parametrize("t_end,n_steps", [("0.05", 2), ("0.5", 13)])
def test_cli_run_too_short_for_a_report_named(tmp_path, capsys, t_end, n_steps):
    # 2 steps fill no order-4 tower ring (9 levels), 13 reach no report step
    # (every 25); both used to exit 0 on the t = 0 report alone
    text = SMALL_RUN.replace("t_end = 4", f"t_end = {t_end}").replace(
        "report_every = 20", "report_every = 25")
    rc = main(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    _assert_named_error(capsys, rc, f"a run of {n_steps} steps gives no energy report: "
                                    "an order-4 tower needs 9 levels and reports come "
                                    "every 25 steps")
    # the criterion CSVs too used to be written before the run
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_sweep_too_short_for_a_report_named(tmp_path, capsys):
    # used to print slopes fitted to the t = 0 data alone, with C1 = 0
    text = SMALL_RUN.replace("t_end = 4", "t_end = 0.05") + "deltas = 0.2, 0.1, 0.05\n"
    rc = main(["sweep", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "sw")])
    _assert_named_error(capsys, rc, "a run of 2 steps gives no energy report")
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def test_cli_sweep_member_blowup_named(tmp_path, capsys):
    # delta = 1 blows up at t = 4; the sweep used to exit 0 with slopes
    # fitted across it (slope(E2) = 2.94, slope(Eb2) = 2.06)
    text = serialize_config(BLOWUP_SMALL.with_(mode="sweep", report_every=10,
                                               deltas=(1.0, 0.5, 0.25)))
    rc = main(["sweep", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "sw")])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    line, = err.splitlines()
    assert line.startswith("stringlab: error: blow-up at t=") and line.endswith(" at delta = 1")
    assert not (tmp_path / "sw" / "sweep.csv").exists()
    assert not (tmp_path / "sw" / "hierarchy.csv").exists()


@pytest.mark.parametrize("deltas", ["1e-80, 2e-80, 4e-80", "1e-170, 2e-170, 4e-170"])
def test_cli_sweep_fit_overflow_named(tmp_path, capsys, deltas):
    # M2 is about 1e151 and 1e291 here (sup E2 sits at the grid's floor, far
    # above delta^2); fit_hierarchy used to raise OverflowError at M2 ** 3 and
    # M2 ** 2 with a traceback
    text = SMALL_RUN.replace("t_end = 4", "t_end = 2") + f"deltas = {deltas}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "sw")])
    _assert_named_error(capsys, rc, "which overflow a float")
    assert list((tmp_path / "sw").iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_value_named(tmp_path, capsys, value):
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN + f"fb_amplitude = {value}\n"),
               "--out", str(tmp_path / "out")])
    _assert_named_error(capsys, rc, f"fb_amplitude must be finite: {value}")


@pytest.mark.parametrize("deltas", ["0, 0.1, 0.2", "0.1, 0.1, 0.1", "-0.1, 0.1, 0.2"])
def test_cli_sweep_deltas_positive_and_distinct(tmp_path, capsys, deltas):
    # a zero delta gave a LinAlgError traceback from the log fit; equal ones
    # exited 0 with a slope fitted over a single delta
    rc = main(["sweep", "--config", _cfg_file(tmp_path, SMALL_RUN + f"deltas = {deltas}\n"),
               "--out", str(tmp_path / "sw")])
    _assert_named_error(capsys, rc, "sweep deltas must be positive and distinct")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("lines", ["mode = converge\n", "mode = sweep\ndeltas = 0.1\n"],
                         ids=["converge", "sweep"])
def test_cli_mode_replaces_the_file_mode_before_validation(tmp_path, capsys, lines):
    # the file's mode used to be validated, and failed these runs: converge
    # needs delta = 0, sweep at least 3 deltas
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN + lines),
               "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "monitor.csv").exists()


def test_cli_converge_requires_travelling(tmp_path, capsys):
    rc = main(["converge", "--config", _cfg_file(tmp_path, SMALL_RUN),
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_cli_tracecheck(tmp_path, capsys):
    text = SMALL_RUN + "\nN = 3\n"
    rc = main(["tracecheck", "--config", _cfg_file(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "tracecheck.csv").read_text().splitlines()
    assert lines[0] == "k1,k2,level,dx,dt,discrepancy,order"
    out = capsys.readouterr().out.splitlines()
    assert "induction denominator min 4" in out[0]
    assert out[1] == "tracecheck: order 2.04: pass"


def test_cli_tracecheck_fails_a_wrong_w_equation(tmp_path, capsys, monkeypatch):
    # a 0.1 % defect of the w-equation; the discrepancy grows under refinement
    # (7.3e-4 -> 1.4e-3), which used to exit 0
    stage_rhs = evolve._stage_rhs

    def defective(y, dx, eps_ko):
        k, disc = stage_rhs(y, dx, eps_ko)
        k[:len(y) // 2] *= 1.001
        return k, disc

    monkeypatch.setattr(evolve, "_stage_rhs", defective)
    # the coarse level of acceptance A7
    rc = main(["tracecheck", "--config", str(FIXTURES / "a7_tracecheck.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert "induction denominator min 4" in out[0]
    assert out[1] == "tracecheck: order -0.93: FAIL"
    assert (tmp_path / "out" / "tracecheck.csv").exists()


@pytest.mark.parametrize("target,value,failed", [
    ("deformation_check", (1.0, 0.0), "deformation_closed_vs_direct"),
    ("equivalence_ratios", {("u", "TL"): (0.01, 1.0)}, "equivalence_band_lo"),
    # a NaN in a band after the first fails that band's gate
    ("equivalence_ratios", {("u", "TL"): (0.5, 1.0), ("ub", "TL"): (np.nan, 1.0)},
     "equivalence_band_lo"),
    ("equivalence_ratios", {("u", "TL"): (0.5, 1.0), ("ub", "TL"): (0.5, np.nan)},
     "equivalence_band_hi"),
])
def test_cli_verify_names_a_failed_identity(tmp_path, capsys, monkeypatch, target, value, failed):
    monkeypatch.setattr(identities, target, lambda **kw: value)
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "1"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.endswith(": FAIL")] == [f"verify: {failed}: FAIL"]
    assert out[-1] == f"verify failed: {failed}"


def test_cli_verify_names_a_balance_level_that_blows_up(tmp_path, capsys):
    # the colliding packets of acceptance A5: balance level 0 (n = 385) runs
    # to t_end = 4, levels 1 and 2 lose hyperbolicity at t = 3.95 and 3.94;
    # verify used to pass both balance rows and exit 0
    rc = main(["verify", "--config", _cfg_file(tmp_path, serialize_config(BLOWUP_SMALL)),
               "--out", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("stringlab: error: blow-up at t=3.95: hyperbolicity loss")
    assert line.endswith(" on balance level 1 (n = 769)")
    assert not (tmp_path / "v" / "identities.csv").exists()


def test_cli_verify_balance_runs_read_gmin(tmp_path, capsys):
    # the default data start at min g = 0.900, so a floor of 0.95 stops the
    # first balance run at its first step, as it stops `run` at t = 0;
    # verify used to ignore gmin and exit 0
    rc = main(["verify", "--config", _cfg_file(tmp_path, "gmin = 0.95\n"),
               "--out", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("stringlab: error: blow-up at t=0: timelike violation")
    assert line.endswith(" on balance level 0 (n = 385)")
    assert not (tmp_path / "v" / "identities.csv").exists()


def test_cli_verify_zero_amplitude_balance_orders_are_undefined(tmp_path, capsys):
    # with no data every balance residual is 0, so its orders are undefined:
    # written n/a, both balance rows FAIL.  log2(0) used to write -inf with
    # a divide-by-zero warning
    cfgf = _cfg_file(tmp_path, "f_amplitude = 0\nfb_amplitude = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--config", cfgf, "--out", str(tmp_path / "v")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == \
        "verify failed: energy_balance_minus, energy_balance_plus"
    with open(tmp_path / "v" / "identities.csv", newline="") as fh:
        balance = [row[3:] for row in csv.reader(fh) if row[0].startswith("energy_balance")]
    assert balance == [["0", ""], ["0", "n/a"], ["0", "n/a"]] * 2


def test_cli_verify_seeded(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "1"])
    assert rc == 0
    text = (tmp_path / "v" / "identities.csv").read_text()
    assert text.splitlines()[0] == "identity,level,dx,residual,order"
    for name in ("divergence_TL", "divergence_TLb", "deformation_closed_vs_direct",
                 "trace_identity", "energy_balance_plus", "energy_balance_minus"):
        assert name in text


# the CLI registers stringlab.identities without running its code (cli
# docstring): in either import order, the CLI, the package attribute and
# sys.modules hold one module, so a patch through any of them reaches verify
_ONE_SUITE = """\
import sys
sys.path.insert(0, sys.argv[1])
{imports}
import stringlab
suite = sys.modules["stringlab.identities"]
assert first is suite is stringlab.identities is stringlab.cli.identities
assert stringlab.identities.verify_suite is vars(suite)["verify_suite"]
"""


@pytest.mark.parametrize("imports", ["import stringlab.cli\nimport stringlab.identities as first",
                                     "import stringlab.identities as first\nimport stringlab.cli"],
                         ids=["cli_first", "identities_first"])
def test_cli_and_importers_share_one_identities_module(imports):
    proc = subprocess.run([sys.executable, "-c", _ONE_SUITE.format(imports=imports), str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_sweep_small(tmp_path, capsys):
    text = SMALL_RUN + "\ndeltas = 0.2,0.1,0.05\n"
    rc = main(["sweep", "--config", _cfg_file(tmp_path, text),
               "--out", str(tmp_path / "sw")])
    assert rc == 0
    sweep_lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 4   # header + one row per delta
    fit_line = (tmp_path / "sw" / "hierarchy.csv").read_text().splitlines()
    assert fit_line[0] == "slope_E2,slope_Eb2,eb2_variation,M2,C1_bar,C1"
    out = capsys.readouterr().out
    assert "slope(E2)" in out


def test_cli_sweep_warns_on_truncated_probe(tmp_path, capsys):
    # the line u0 = -8 leaves the grid before t_end, as in `run`'s case; the
    # sweep used to exit 0 silently with sup_F2 from the truncated flux
    text = SMALL_RUN.replace("probes_u = 0", "probes_u = 0, -8") + "deltas = 0.2,0.1,0.05\n"
    rc = main(["sweep", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "sw")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["stringlab: warning: flux probe lines left the grid and stopped "
                   "accumulating: u0=-8"]
    assert (tmp_path / "sw" / "sweep.csv").exists()


CONVERGE_SMALL = """
mode = converge
delta = 0
t_end = 4
x0 = -18
dx = 0.140625
n = 257
"""


def test_cli_converge_dissipation_pairing(tmp_path):
    # observed orders with and without the damping term agree at tested
    # resolutions
    orders = {}
    for eps in ("0", "0.01"):
        cfgf = _cfg_file(tmp_path, CONVERGE_SMALL + f"eps_ko = {eps}\n")
        rc = main(["converge", "--config", cfgf, "--out", str(tmp_path / f"c{eps}")])
        assert rc == 0
        rows = (tmp_path / f"c{eps}" / "converge.csv").read_text().splitlines()[1:]
        orders[eps] = [float(r.split(",")[4]) for r in rows[1:]]
    for a, b in zip(orders["0"], orders["0.01"]):
        assert abs(a - b) <= 0.3


def test_cli_converge_fails_below_its_order_floor(tmp_path, capsys):
    # a 0.3-wide profile on dx = 0.5 is under-resolved: orders 2.13 and 1.67,
    # which used to exit 0; converge.csv is written either way
    text = ("delta = 0\nt_end = 4\nx0 = -18\ndx = 0.5\nn = 73\ncfl = 0.9\n"
            "f_width = 0.3\nfb_width = 0.3\n")
    rc = main(["converge", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "c")])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "converge: errors 1.659e-01, 3.780e-02, 1.191e-02 orders 2.13, 1.67",
        "converge: order 1.67: FAIL"]
    rows = (tmp_path / "c" / "converge.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1][:4] for row in rows] == ["n/a", "2.13", "1.66"]


def test_cli_converge_names_a_level_that_blows_up(tmp_path, capsys, monkeypatch):
    # the field-size cap stops every level at its first step; comparing that
    # state with the wave at t_end would report a meaningless error.  Data
    # over the cap are an input error (DataOutOfRange), so the stepper's cap
    # is lowered below data of size 1.5 instead
    monkeypatch.setattr(evolve, "FIELD_CAP", 1.0)
    text = CONVERGE_SMALL + "f_amplitude = 3\nfb_amplitude = 3\n"
    rc = main(["converge", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("stringlab: error: blow-up at t=0: field size ")
    assert err.rstrip().endswith("exceeds cap on level 0 (n = 257)")
    assert not (tmp_path / "c" / "converge.csv").exists()


# ---------------------------------------------------------------------------
# verdicts: the library builds every exit code and printed line from the
# study values, so these need no run.  Each case asserts the text of the
# CLI test of the same case above


def _criterion(passed, gap_min=0.8197, order_margin=0.03918):
    return CriterionReport(np.zeros(1), np.zeros(1), 0.0, 0.0, gap_min, order_margin, passed)


def _blowup_result(t_blowup=4.575, min_g_seen=4.671e-4):
    return RunResult("blowup", None, 0.025, 183, 1.0, min_g_seen, t_blowup, "hyperbolicity loss")


def test_run_verdict_warns_when_the_criterion_passes_and_the_run_blows_up():
    verdict = run_verdict(ExperimentConfig(), _criterion(True), _blowup_result(), None, [])
    assert verdict.code == 2
    assert verdict.lines[0].startswith("criterion: pass (gap 8.197e-01, ordering margin 3.918e-02)")
    assert verdict.lines[1].startswith("blow-up detected at t = 4.575")
    assert ["stringlab: " + note for note in verdict.notes] == [
        "stringlab: warning: criterion pass (ordering margin 3.918e-02) but blow-up "
        "(min g 4.671e-04): the grid may be under-resolved"]
    # a failing criterion before a blow-up is no disagreement
    failed = run_verdict(ExperimentConfig(), _criterion(False, order_margin=-0.18),
                         _blowup_result(), None, [])
    assert failed.code == 2 and failed.notes == []


@pytest.mark.parametrize("mode", ["run", "sweep"])
def test_run_and_sweep_verdicts_warn_of_truncated_probes(mode):
    truncated = ["u0=-8"]
    if mode == "run":
        verdict = run_verdict(ExperimentConfig(), _criterion(False), _blowup_result(), None,
                              truncated)
    else:
        fit = HierarchyFit(np.ones(3), np.ones(3), np.ones(3), 2.0, 0.0, 0.01, 1.0, 0.1, 0.1)
        verdict = sweep_verdict(fit, truncated)
        assert verdict.code == 0 and verdict.lines[0].startswith("sweep: slope(E2)=2.000")
    assert "stringlab: " + verdict.notes[0] == (
        "stringlab: warning: flux probe lines left the grid and stopped accumulating: u0=-8")


def test_blowup_verdict_names_a_level_disagreement():
    levels = [BlowupLevel(897, 0.0625, 4.575, "hyperbolicity loss"),
              BlowupLevel(1793, 0.03125, 4.475, "hyperbolicity loss"),
              BlowupLevel(3585, 0.015625, float("nan"), None)]
    verdict = BlowupStudy(levels, float("nan"), 0.5).verdict(_criterion(True), 6.0)
    assert verdict.code == 1
    assert verdict.lines == [
        "criterion: pass (ordering margin 3.918e-02)",
        "blowup: levels [0, 1] blow up, levels [2] do not: the grid may be under-resolved"]
    assert verdict.notes == ["blowup level 0: n = 897, t_blowup = 4.575, hyperbolicity loss",
                             "blowup level 1: n = 1793, t_blowup = 4.475, hyperbolicity loss",
                             "blowup level 2: n = 3585, no blow-up up to t_end = 6"]
    none = BlowupStudy([BlowupLevel(361, 0.1, float("nan"), None)] * 3, float("nan"), 0.5)
    assert none.verdict(_criterion(False), 1.0).lines == [
        "criterion: FAIL (blow-up data) (ordering margin 3.918e-02)",
        "blowup: no blow-up detected on some level"]


def _identity(name, ok):
    return Refinement(name, [0.0], [0.0], None), ok


def test_suite_verdict_names_the_failed_identities():
    suite = [_identity("trace_identity", True),
             _identity("deformation_closed_vs_direct", False)]
    verdict = identities.suite_verdict(suite)
    assert verdict.code == 1
    assert [line for line in verdict.lines if line.endswith(": FAIL")] == [
        "verify: deformation_closed_vs_direct: FAIL"]
    assert verdict.lines[-1] == "verify failed: deformation_closed_vs_direct"
    balance = [_identity("energy_balance_plus", False),
               _identity("energy_balance_minus", False)]
    assert identities.suite_verdict(balance).lines[-1] == \
        "verify failed: energy_balance_minus, energy_balance_plus"
    passed = identities.suite_verdict(suite[:1])
    assert passed.code == 0 and passed.lines == ["verify: trace_identity: pass"]


def test_order_verdicts():
    errors = Refinement("converge", [0.5, 0.25, 0.125], [1.659e-01, 3.780e-02, 1.191e-02], 2.5)
    verdict = ConvergenceStudy([], errors).verdict()
    assert verdict.code == 1 and verdict.lines == [
        "converge: errors 1.659e-01, 3.780e-02, 1.191e-02 orders 2.13, 1.67",
        "converge: order 1.67: FAIL"]
    # an undefined order fails its gate
    zero = Refinement("converge", [0.5, 0.25, 0.125], [1.0, 0.0, 0.0], 2.5).verdict()
    assert zero.code == 1 and zero.lines == ["converge: order n/a: FAIL"]
    table = TraceTable(np.zeros(1), 3, np.zeros((4, 4, 2, 1)), 4.0)
    study = TraceCheckStudy({(0, 0): Refinement("trace_0_0", [0.1, 0.05], [7.3e-4, 1.39e-3], 1.5)},
                            table)
    verdict = study.verdict()
    assert verdict.code == 1 and "induction denominator min 4" in verdict.lines[0]
    assert verdict.lines[1] == "tracecheck: order -0.93: FAIL"


def _branch_reads(fn):
    """(line, names) of each if, while and conditional expression in fn,
    with the names that its test reads."""
    return [(node.lineno, {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)})
            for node in ast.walk(fn) if isinstance(node, (ast.If, ast.While, ast.IfExp))]


def _printers():
    """The functions of src/stringlab, by qualified name, that call print."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "print"):
                found.add(".".join(scope))
            visit(child, scope)

    for path in (SRC / "stringlab").glob("*.py"):
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_cli_modes_only_return_library_verdicts():
    # the library decides each exit code and builds each printed line: a
    # cmd_* branches only on cfg or on its verdict, returns no literal exit
    # code and prints nothing; main prints the verdict once
    tree = ast.parse((SRC / "stringlab" / "cli.py").read_text())
    cmds = [fn for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(cmds) == 6
    for fn in cmds:
        assert [(line, names) for line, names in _branch_reads(fn)
                if not names <= {"cfg", "verdict"}] == [], fn.name
        assert not [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Return)
                    and any(isinstance(c, ast.Constant) for c in ast.walk(node.value))], fn.name
    assert _printers() == {"cli.main"}
