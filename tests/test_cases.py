"""Verify's case lists against a scan of S_n x S_n, and its alarm handler."""

import json
import random
import signal
import time

import pytest

from oracles import bruhat_pairs_by_scan
from richardson import cli, permutations
from richardson.permutations import Permutation
from test_cli import capture

PAIR_CHECKS = ["mult", "points", "dimension"]


def _by_string(keys):
    # the order of the string keys the cases were once sorted by
    return sorted(keys, key=lambda key: tuple(map(str, key)))


def _expected(check, n, seed, samples):
    """The case list by the old recipe: draw from the scanned pair list, then sort."""
    pairs = bruhat_pairs_by_scan(n)
    if samples is None:
        if check == "product-iso":
            return [(u,) + pair for u in Permutation.all(n) for pair in pairs]
        return list(pairs)
    rng = random.Random(seed)
    if check == "product-iso":
        elems = Permutation.all(n)
        return _by_string(
            (elems[rng.randrange(len(elems))],) + pairs[rng.randrange(len(pairs))]
            for _ in range(samples)
        )
    return _by_string(pairs[rng.randrange(len(pairs))] for _ in range(samples))


def _cases(check, n, seed, samples, monkeypatch):
    """cli's case list, built while every Bruhat test of the package raises."""

    def no_bruhat_test(v, w):
        raise AssertionError("a Bruhat test ran: the pairs were listed")

    argv = ["verify", check, "--n", str(n), "--seed", str(seed)]
    argv += ["--exhaustive"] if samples is None else ["--samples", str(samples)]
    args = cli._parser().parse_args(argv)
    cli._check_usage(args)
    with monkeypatch.context() as patched:
        patched.setattr(permutations, "_leq", no_bruhat_test)
        return cli._verify_cases(args)


@pytest.mark.parametrize("n, total", [(1, 1), (2, 3), (3, 19), (4, 213), (5, 3781), (6, 98407)])
def test_pair_count_matches_the_scan(n, total):
    assert len(cli._BruhatPairs(n)) == len(bruhat_pairs_by_scan(n)) == total


def test_pair_count_of_s7():
    assert len(cli._BruhatPairs(7)) == 3550919


@pytest.mark.parametrize("check", PAIR_CHECKS + ["product-iso"])
@pytest.mark.parametrize("n, samples", [(3, 60), (4, 400), (5, 600), (6, 1500)])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sampled_cases_match_the_scan(check, n, samples, seed, monkeypatch):
    cases = _cases(check, n, seed, samples, monkeypatch)
    assert cases == _expected(check, n, seed, samples)
    if check != "product-iso":  # repeated draws are kept, in place
        assert len(set(cases)) < len(cases)


@pytest.mark.parametrize("check", PAIR_CHECKS + ["product-iso"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_exhaustive_cases_match_the_scan(check, n, monkeypatch):
    assert _cases(check, n, 0, None, monkeypatch) == _expected(check, n, 0, None)


def test_cases_are_permutations():
    args = cli._parser().parse_args(["verify", "kl-vs-h", "--n", "4"])
    keys = cli._verify_cases(args)
    assert keys and all(len(key) == 1 and isinstance(key[0], Permutation) for key in keys)
    assert keys == sorted(keys)


def _sentinel(signum, frame):
    raise AssertionError("the handler in place before the run was called")


@pytest.fixture
def sentinel_alarm():
    previous = signal.signal(signal.SIGALRM, _sentinel)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_restores_the_alarm_handler(jobs, sentinel_alarm, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool for --jobs 2
    status, _ = capture(["verify", "dimension", "--n", "3", "--samples", "4", "--jobs", jobs])
    assert status == 0
    assert signal.getsignal(signal.SIGALRM) is _sentinel


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_expired_alarm_is_a_finding_and_the_next_case_runs(jobs, sentinel_alarm, monkeypatch):
    argv = ["verify", "dimension", "--n", "3", "--samples", "4", "--seed", "0"]
    keys = cli._verify_cases(cli._parser().parse_args(argv))
    real = cli.verify_dimension_law

    def first_case_hangs(v, w):
        if (v, w) == keys[0]:
            time.sleep(20)
        return real(v, w)

    monkeypatch.setattr(cli, "verify_dimension_law", first_case_hangs)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    start = time.perf_counter()
    status, out = capture(argv + ["--timeout", "0.2", "--jobs", jobs])
    assert time.perf_counter() - start < 10
    payload = json.loads(out)
    assert status == 0 and payload["ok"] is True
    hung = keys.count(keys[0])
    assert payload["findings"] == [{"kind": "timeout", "case": [str(p) for p in keys[0]]}] * hung
    assert payload["cases"] == sum(real(v, w).cases for v, w in keys[hung:]) > 0
    assert signal.getsignal(signal.SIGALRM) is _sentinel
