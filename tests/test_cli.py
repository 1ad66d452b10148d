"""Command-line interface: outputs, golden files, determinism, exit codes."""

import io
import json
import pathlib

import pytest

from richardson import clear_memos
from richardson.cli import run

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
    # every case timed out also fails, with its own exit status; the budget
    # lies well below the ~3 ms the cheapest case takes with cold memos
    clear_memos()
    argv = ["verify", "mult", "--n", "4", "--samples", "2", "--seed", "0", "--timeout", "0.0005"]
    status, out = capture(argv)
    assert status == 3
    payload = json.loads(out)
    assert any(f["kind"] == "timeout" for f in payload["findings"])
    assert payload["cases"] == 0 and payload["ok"] is False
    assert payload["failures"] == [{"kind": "all-cases-timed-out", "timeouts": 2}]


def test_run_with_nothing_to_check_does_not_pass():
    # every case of points on S1 has no stratum to sample: nothing is checked
    status, out = capture(["verify", "points", "--n", "1"])
    assert status == 3
    payload = json.loads(out)
    assert payload["cases"] == 0 and payload["ok"] is False
    assert payload["failures"] == [{"kind": "no-cases-checked"}]
    assert payload["findings"] and {f["kind"] for f in payload["findings"]} == {"no-strata"}


def test_off_by_one_tangent_space_is_caught(tangent_one_too_high):
    # the error shifts the Richardson record and both factor records alike,
    # so the product law alone still holds; the Bruhat-order check does not
    tangent_one_too_high()
    clear_memos()  # a record that fails its check is never stored
    with pytest.raises(RuntimeError, match="Bruhat order"):
        capture(["verify", "singlocus", "--n", "3", "--exhaustive"])


def _deferred_rows_built(macaulay_counts, systems) -> int:
    """How often macaulay_counts, the memoized groebner._macaulay_counts,
    builds a held row (m, g) because a later row reduces against it, on
    the systems (n, rows, D): the function under the memo is traced, and
    the line that unpacks a held row is counted."""
    import inspect
    import sys

    fn = macaulay_counts.__wrapped__
    lines, first = inspect.getsourcelines(fn)
    target = first + next(k for k, line in enumerate(lines) if "k, ts = prow" in line)
    built = 0

    def count(frame, event, arg):
        nonlocal built
        if event == "line" and frame.f_lineno == target:
            built += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        for n, rows, d in systems:
            fn(n, rows, d)
    finally:
        sys.settrace(previous)
    return built


def test_sampled_s5_run_builds_deferred_macaulay_rows(monkeypatch):
    # every S4 row becomes a pivot unreduced, so no S4 run builds a held
    # row; this seeded S5 run does, so a fault in how one is built meets a
    # verify run
    import richardson.groebner as gr

    systems = {}
    real = gr._macaulay_counts

    def recording(n, rows, d):
        systems.setdefault(gr._macaulay_key(n, rows, d), (n, rows, d))
        return real(n, rows, d)

    monkeypatch.setattr(gr, "_macaulay_counts", recording)
    clear_memos()
    status, out = capture(["verify", "mult", "--n", "5", "--samples", "20", "--seed", "4"])
    assert status == 0 and json.loads(out)["ok"] is True
    assert _deferred_rows_built(real, systems.values()) > 0


def test_python_dash_m_runs_the_command_line(monkeypatch, capsys):
    import runpy

    monkeypatch.setattr("sys.argv", ["richardson", "klpoly", "--v", "1324", "--w", "3412"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("richardson", run_name="__main__")
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == [1, 1]


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


@pytest.mark.parametrize("argv", [
    "invariants --v 1234 --w 3412 --sigma 1234",
    "invariants --v 1234 --w 2413 --sigma 1234 --parabolic 1,3",
    "verify mult --n 3",
    "verify points --n 3",
    "verify kl-vs-h --n 3",
    "verify smooth-table --n 3",
])
def test_degree_bound_reaches_every_oracle_call(argv, monkeypatch):
    # every command checks its records at the one oracle degree
    import richardson.invariants as rinv

    real = rinv.local_hilbert_oracle
    degrees = []

    def recording(I, degree_bound):
        degrees.append(degree_bound)
        return real(I, degree_bound)

    monkeypatch.setattr(rinv, "local_hilbert_oracle", recording)
    clear_memos()
    status, _ = capture(argv.split())
    assert status == 0
    assert degrees and set(degrees) == {rinv.ORACLE_DEGREE}


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
    # the oracle degree is no flag
    status, _ = capture(["verify", "mult", "--n", "3", "--degree-bound", "2"])
    assert status == 2


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


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_nonpositive_samples_exits_2(samples, capsys):
    assert "--samples" in _usage_error(["verify", "mult", "--n", "3", "--samples", samples], capsys)


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-2"), ("--jobs", "0"), ("--jobs", "-3"),
    ("--timeout", "nan"), ("--timeout", "inf"), ("--timeout", "1e300"), ("--timeout", "-1"),
])
def test_verify_bad_numeric_flag_exits_2(flag, value, capsys):
    argv = ["verify", "points", "--n", "3", "--samples", "1", flag, value]
    assert flag in _usage_error(argv, capsys)


def test_timeout_bounds_are_accepted():
    from richardson.cli import TIMEOUT_MAX

    for value in ("0", str(TIMEOUT_MAX)):
        status, _ = capture(["verify", "mult", "--n", "3", "--samples", "1", "--timeout", value])
        assert status == 0


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


def test_product_iso_exhaustive_past_its_bound_exits_2(capsys, monkeypatch):
    from richardson import cli

    def no_pairs(n):
        raise AssertionError("the pairs were counted")

    monkeypatch.setattr(cli, "_BruhatPairs", no_pairs)
    n = str(cli.ISO_EXHAUSTIVE_MAX_N + 1)
    err = _usage_error(["verify", "product-iso", "--n", n, "--exhaustive"], capsys)
    assert f"at most {cli.ISO_EXHAUSTIVE_MAX_N}, got {n}" in err
    at_bound = ["verify", "product-iso", "--n", str(cli.ISO_EXHAUSTIVE_MAX_N), "--exhaustive"]
    cli._check_usage(cli._parser().parse_args(at_bound))  # accepted


@pytest.mark.parametrize("check", ["mult", "hpoly", "singlocus", "points", "dimension"])
def test_pair_check_exhaustive_past_its_bound_exits_2(check, capsys, monkeypatch):
    # S7's 3,550,919 pairs: the usage error comes before any pair is counted,
    # while S6 exhaustive and S7 sampled runs pass the usage check
    from richardson import cli

    def no_pairs(n):
        raise AssertionError("the pairs were counted")

    monkeypatch.setattr(cli, "_BruhatPairs", no_pairs)
    assert cli.CHECKS[check].exhaustive_max_n == cli.PAIRS_EXHAUSTIVE_MAX_N == 6
    err = _usage_error(["verify", check, "--n", "7", "--exhaustive"], capsys)
    assert f"{check} --exhaustive needs --n at most 6, got 7" in err
    for argv in (["--n", "6", "--exhaustive"], ["--n", "7", "--samples", "3"]):
        cli._check_usage(cli._parser().parse_args(["verify", check, *argv]))  # accepted


def test_parabolic_out_of_range_exits_2(capsys):
    base = ["invariants", "--v", "1234", "--w", "4321", "--sigma", "2143"]
    assert "1..3" in _usage_error(base + ["--parabolic", "7"], capsys)
    assert "--parabolic" in _usage_error(base + ["--parabolic", "1,x"], capsys)


def test_malformed_permutation_exits_2(capsys):
    assert "--u" in _usage_error(["sweep", "--u", "2x1"], capsys)
    assert "--v" in _usage_error(["klpoly", "--v", "113", "--w", "123"], capsys)
    # a blank window is no permutation, not the empty one
    assert "--u" in _usage_error(["sweep", "--u", ""], capsys)
    assert "--u" in _usage_error(["sweep", "--u", " "], capsys)
    assert "--v" in _usage_error(["invariants", "--v", "", "--w", "", "--sigma", ""], capsys)
    assert "--v" in _usage_error(["klpoly", "--v", "", "--w", ""], capsys)


def test_pool_size_is_capped(monkeypatch):
    from richardson import cli

    # the CPUs the process may run on, where the platform tells them
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._pool_size(4, 3) == 2
    assert cli._pool_size(4, 1) == 1
    assert cli._pool_size(1, 4) == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._pool_size(8, 100) == 1
    # and all the CPUs where it does not
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(4, 3) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._pool_size(3, 4) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(3, 4) == 1


@pytest.mark.parametrize("check", [
    "product-iso", "mult", "hpoly", "singlocus", "points", "dimension", "kl-vs-h",
])
def test_verify_past_the_largest_n_exits_2(check, capsys):
    # checked before any case is listed: the pair list of S8 alone would
    # run for minutes; smooth-table has its own test above
    from richardson.cli import CHECKS

    max_n = CHECKS[check].max_n
    assert max_n == (9 if check == "kl-vs-h" else 7)
    err = _usage_error(["verify", check, "--n", str(max_n + 1), "--timeout", "1"], capsys)
    assert f"{check} needs --n at most {max_n}, got {max_n + 1}" in err


@pytest.mark.parametrize("check", ["kl-vs-h", "smooth-table"])
def test_samples_for_a_check_without_samples_exits_2(check, capsys):
    # such a check runs every case, so samples would be reported, not used
    assert "--samples" in _usage_error(["verify", check, "--n", "3", "--samples", "4"], capsys)


@pytest.mark.parametrize("check", [
    "product-iso", "mult", "hpoly", "singlocus", "dimension", "kl-vs-h", "smooth-table",
])
def test_trials_for_a_check_other_than_points_exits_2(check, capsys):
    # only points samples points, so trials would be reported, not used
    err = _usage_error(["verify", check, "--n", "3", "--trials", "7"], capsys)
    assert f"{check} takes no trials, got --trials 7" in err
