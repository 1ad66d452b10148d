"""Command-line interface: outputs, golden files, determinism, exit codes."""

import io
import json
import pathlib

import pytest

from richardson.cli import RunConfig, run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def capture(argv):
    buf = io.StringIO()
    status = run(argv, buf)
    return status, buf.getvalue()


def test_sweep_golden_json():
    status, out = capture(["sweep", "--u", "31542"])
    assert status == 0
    assert out == (GOLDEN / "sweep_31542.json").read_text()
    payload = json.loads(out)
    assert payload["x"][1] == ["z21", "z22", "z23", "z24", "1"]
    assert payload["eta2"][1][0] == "z21 - z11*z22"


def test_sweep_golden_latex():
    status, out = capture(["sweep", "--u", "31542", "--format", "latex"])
    assert status == 0
    assert out == (GOLDEN / "sweep_31542.tex").read_text()
    assert "z_{22}-z_{23}z_{52}-z_{24}z_{42}+z_{24}z_{43}z_{52}" in out


def test_invariants_trivial_point():
    status, out = capture(["invariants", "--v", "12345", "--w", "12345", "--sigma", "12345"])
    assert status == 0
    payload = json.loads(out)
    assert payload["smooth"] is True
    assert payload["mult"] == 1
    assert payload["h_poly"] == [1]


def test_invariants_formats():
    argv = ["invariants", "--v", "1234", "--w", "3412", "--sigma", "1234"]
    _, js = capture(argv)
    payload = json.loads(js)
    assert payload["mult"] == 2 and payload["h_poly"] == [1, 1]
    _, csv = capture(argv + ["--format", "csv"])
    lines = csv.strip().splitlines()
    assert lines[0].startswith("v,w,sigma")
    assert "1;1" in lines[1]
    _, txt = capture(argv + ["--format", "text"])
    assert "mult: 2" in txt


def test_invariants_parabolic_flag():
    status, out = capture(
        ["invariants", "--v", "1234", "--w", "2413", "--sigma", "1234", "--parabolic", "1,3"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3 and payload["mult"] == 2


def test_klpoly():
    status, out = capture(["klpoly", "--v", "1234", "--w", "3412"])
    assert status == 0
    assert json.loads(out)["coefficients"] == [1, 1]
    _, txt = capture(["klpoly", "--v", "1234", "--w", "3412", "--format", "text"])
    assert "1 + q" in txt


def test_verify_exit_status_and_determinism():
    argv = ["verify", "mult", "--n", "3", "--exhaustive"]
    s1, o1 = capture(argv)
    s2, o2 = capture(argv)
    assert s1 == s2 == 0
    assert o1 == o2
    payload = json.loads(o1)
    assert payload["ok"] is True
    assert payload["cases"] > 0


def test_verify_seeded_points_determinism():
    argv = ["verify", "points", "--n", "3", "--samples", "3", "--seed", "11"]
    s1, o1 = capture(argv)
    s2, o2 = capture(argv)
    assert s1 == 0 and o1 == o2


def test_verify_worker_pool_matches_sequential():
    seq = ["verify", "singlocus", "--n", "3", "--exhaustive"]
    par = seq + ["--jobs", "2"]
    s1, o1 = capture(seq)
    s2, o2 = capture(par)
    assert s1 == s2 == 0
    assert o1 == o2


def test_verify_product_iso_sampled():
    status, out = capture(["verify", "product-iso", "--n", "3", "--samples", "5", "--seed", "2"])
    assert status == 0
    assert json.loads(out)["cases"] == 5


def test_verify_smooth_table():
    status, out = capture(["verify", "smooth-table", "--n", "3"])
    assert status == 0
    assert json.loads(out)["cases"] == 6


@pytest.mark.parametrize("check", ["mult", "hpoly", "singlocus"])
def test_fixed_point_checks_at_n_1(check):
    # the chart of S1 has no variables
    status, out = capture(["verify", check, "--n", "1", "--exhaustive"])
    assert status == 0
    report = json.loads(out)
    assert report["ok"] and report["cases"] == 1 and report["failures"] == []


def test_verify_text_format():
    status, out = capture(["verify", "dimension", "--n", "3", "--exhaustive", "--format", "text"])
    assert status == 0
    assert "status: PASS" in out


def test_timeout_records_finding_not_failure():
    # each timed-out case is a finding; a run that checked nothing because
    # every case timed out also fails, with its own exit status
    import richardson.groebner as gr
    import richardson.invariants as rinv

    gr.clear_memos()
    with rinv._FIXED_LOCK:
        rinv._FIXED_MEMO.clear()
    argv = ["verify", "mult", "--n", "4", "--samples", "2", "--seed", "0", "--timeout", "0.005"]
    status, out = capture(argv)
    assert status == 3
    payload = json.loads(out)
    assert any(f["kind"] == "timeout" for f in payload["findings"])
    assert payload["cases"] == 0 and payload["ok"] is False
    assert payload["failures"] == [{"kind": "all-cases-timed-out", "timeouts": 2}]


def test_one_timed_out_case_of_two_still_passes(monkeypatch):
    from richardson import cli

    calls = []

    def first_times_out(fn, timeout):
        calls.append(timeout)
        if len(calls) == 1:
            raise cli._CaseTimeout()
        return fn()

    monkeypatch.setattr(cli, "_run_with_timeout", first_times_out)
    status, out = capture(["verify", "mult", "--n", "3", "--samples", "2", "--seed", "0"])
    assert status == 0 and len(calls) == 2
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failures"] == [] and payload["cases"] > 0
    assert [f["kind"] for f in payload["findings"]] == ["timeout"]


def test_oracle_degree_restored_after_run():
    import richardson.invariants as rinv

    before = rinv.ORACLE_DEGREE_DEFAULT
    argv = ["invariants", "--v", "1234", "--w", "3412", "--sigma", "1234", "--degree-bound", "2"]
    status, _ = capture(argv)
    assert status == 0
    assert rinv.ORACLE_DEGREE_DEFAULT == before


def test_verify_reports_match_golden():
    golden = json.loads((GOLDEN / "verify_reports.json").read_text())
    for argv, expected in golden.items():
        status, out = capture(argv.split())
        assert (status, out) == (expected["status"], expected["stdout"]), argv


def test_bad_flags_exit_2():
    status, _ = capture(["verify", "nonsense", "--n", "3"])
    assert status == 2
    status, _ = capture(["sweep"])
    assert status == 2


def test_runconfig_roundtrip():
    cfg = RunConfig(
        subcommand="verify",
        check="mult",
        n=4,
        seed=7,
        exhaustive=True,
        parabolic=(1, 3),
        output_format="text",
    )
    assert RunConfig.from_json(cfg.to_json()) == cfg


def _usage_error(argv, capsys):
    status, out = capture(argv)
    err = capsys.readouterr().err
    assert status == 2 and out == ""
    assert err.startswith("richardson: error: ") and err.count("\n") == 1
    return err


def test_size_mismatch_exits_2(capsys):
    err = _usage_error(["klpoly", "--v", "123", "--w", "1234"], capsys)
    assert "size mismatch" in err


def test_verify_n_below_one_exits_2(capsys):
    assert "--n" in _usage_error(["verify", "mult", "--n", "0"], capsys)


def test_degree_bound_out_of_range_exits_2(capsys):
    base = ["invariants", "--v", "123", "--w", "321", "--sigma", "213"]
    assert "0..127" in _usage_error(base + ["--degree-bound", "-1"], capsys)
    assert "0..127" in _usage_error(base + ["--degree-bound", "128"], capsys)
    assert "0..127" in _usage_error(
        ["verify", "mult", "--n", "3", "--degree-bound", "200"], capsys
    )


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_nonpositive_samples_exits_2(samples, capsys):
    assert "--samples" in _usage_error(["verify", "mult", "--n", "3", "--samples", samples], capsys)


def test_fixed_point_off_the_variety_exits_2(capsys):
    base = ["invariants", "--v", "1234", "--w", "2134", "--sigma", "4321"]
    assert "not on the Richardson variety" in _usage_error(base, capsys)
    assert "parabolic Richardson" in _usage_error(base + ["--parabolic", "1"], capsys)


def test_smooth_table_past_its_bound_exits_2(capsys):
    from richardson.verify import SMOOTH_TABLE_MAX_N, schubert_smoothness_table

    n = str(SMOOTH_TABLE_MAX_N + 1)
    err = _usage_error(["verify", "smooth-table", "--n", n], capsys)
    assert f"at most {SMOOTH_TABLE_MAX_N}, got {n}" in err
    with pytest.raises(ValueError):
        schubert_smoothness_table(SMOOTH_TABLE_MAX_N + 1)


def test_parabolic_out_of_range_exits_2(capsys):
    base = ["invariants", "--v", "1234", "--w", "4321", "--sigma", "2143"]
    assert "1..3" in _usage_error(base + ["--parabolic", "7"], capsys)
    assert "--parabolic" in _usage_error(base + ["--parabolic", "1,x"], capsys)


def test_malformed_permutation_exits_2(capsys):
    assert "--u" in _usage_error(["sweep", "--u", "2x1"], capsys)
    assert "--v" in _usage_error(["klpoly", "--v", "113", "--w", "123"], capsys)


def test_pool_size_is_capped(monkeypatch):
    from richardson import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(4, 3) == 2
    assert cli._pool_size(4, 1) == 1
    assert cli._pool_size(1, 4) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._pool_size(3, 4) == 3
