import warnings

import pytest
from hypothesis import given, settings, strategies as st

from stringlab import ExperimentConfig, ParseError, ValidationError, parse_config, serialize_config
from stringlab import evolve, identities
from stringlab.cli import main


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


def test_causal_margin_enforced():
    with pytest.raises(ValidationError, match="causal-margin"):
        parse_config("t_end = 100\n")   # default domain too small for T=100


def test_roundtrip_idempotent_on_defaults():
    text = serialize_config(ExperimentConfig())
    cfg = parse_config(text)
    assert cfg == ExperimentConfig()
    assert serialize_config(cfg) == text


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


def test_cli_run_exit_zero(tmp_path, capsys):
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "energy.csv").exists()
    assert (tmp_path / "out" / "criterion.csv").exists()
    assert (tmp_path / "out" / "monitor.csv").exists()
    out = capsys.readouterr().out
    assert "criterion: pass" in out and "monitors pass" in out


def test_cli_run_warns_on_truncated_probe(tmp_path, capsys):
    # the outgoing line u0 = -8 (x = t + 16) leaves the grid before t_end
    text = SMALL_RUN.replace("probes_u = 0", "probes_u = 0, -8")
    rc = main(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "left the grid" in err[0]
    assert err[0].endswith(": u0=-8")
    main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN), "--out", str(tmp_path / "b")])
    assert capsys.readouterr().err == ""


def test_cli_energy_csv_schema(tmp_path):
    rc = main(["run", "--config", _cfg_file(tmp_path, SMALL_RUN),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    header = (tmp_path / "out" / "energy.csv").read_text().splitlines()[0]
    assert header == ("t,k,E2,Eb2,F2_u0,Fb2_ub0,min_g,"
                      "sobolev_L_margin,sobolev_Lb_margin")


def test_cli_run_deterministic(tmp_path):
    cfgf = _cfg_file(tmp_path, SMALL_RUN)
    main(["run", "--config", cfgf, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfgf, "--out", str(tmp_path / "b")])
    for name in ("energy.csv", "criterion.csv", "monitor.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_run_blowup_exit_two(tmp_path, capsys):
    text = """
mode = run
delta = 1
f_amplitude = 2.4
f_center = 4
fb_amplitude = 2.4
fb_center = -4
f_width = 1
fb_width = 1
t_end = 8
x0 = -22
dx = 0.1
n = 441
"""
    rc = main(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "blow-up detected" in capsys.readouterr().out


BLOWUP_SMALL = """
mode = blowup
delta = 1
f_amplitude = 2.4
f_center = 4
fb_amplitude = 2.4
fb_center = -4
f_width = 1
fb_width = 1
t_end = 5
x0 = -18
dx = 0.1
n = 361
"""


def test_cli_blowup_small(tmp_path, capsys):
    rc = main(["blowup", "--config", _cfg_file(tmp_path, BLOWUP_SMALL),
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
    text = BLOWUP_SMALL.replace("t_end = 5", "t_end = 1")
    rc = main(["blowup", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no blow-up detected on some level" in capsys.readouterr().out
    assert (tmp_path / "out" / "blowup.csv").exists()
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
    text = BLOWUP_SMALL.replace("mode = blowup", "mode = sweep")
    text += "report_every = 10\ndeltas = 1, 0.5, 0.25\n"
    rc = main(["sweep", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "sw")])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    line, = err.splitlines()
    assert line.startswith("stringlab: error: blow-up at t=") and line.endswith(" at delta = 1")
    assert not (tmp_path / "sw" / "sweep.csv").exists()
    assert not (tmp_path / "sw" / "hierarchy.csv").exists()


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
    assert "induction denominator min 4" in capsys.readouterr().out


@pytest.mark.parametrize("target,value,failed", [
    ("deformation_check", (1.0, 0.0), "deformation_closed_vs_direct"),
    ("equivalence_ratios", {("u", "TL"): (0.01, 1.0)}, "equivalence_band_lo"),
])
def test_cli_verify_names_a_failed_identity(tmp_path, capsys, monkeypatch, target, value, failed):
    monkeypatch.setattr(identities, target, lambda **kw: value)
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "1"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.endswith(": FAIL")] == [f"verify: {failed}: FAIL"]
    assert out[-1] == f"verify failed: {failed}"


def test_cli_verify_seeded(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "1"])
    assert rc == 0
    text = (tmp_path / "v" / "identities.csv").read_text()
    assert text.splitlines()[0] == "identity,level,dx,residual,order"
    for name in ("divergence_TL", "divergence_TLb", "deformation_closed_vs_direct",
                 "trace_identity", "energy_balance_plus", "energy_balance_minus"):
        assert name in text


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
