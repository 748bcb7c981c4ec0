"""CLI driver: parsing, reports, exit codes, config files."""

import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from splitmoments import arith, cli
from splitmoments import moments as mo
from splitmoments.errors import InvariantViolation, UsageError


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def assert_usage_error(args, capsys):
    """``args`` exits 2 with no report and a one-line message."""
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err
    return captured.err


def write_config(tmp_path, command, **values):
    path = tmp_path / "run.cfg"
    lines = [f"command = {command}"] + [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestMomentCommand:
    def test_flagship_value(self, capsys):
        code, report = run_cli(["moment", "--sigma", "1/2", "--n", "4", "--sign", "minus"], capsys)
        assert code == 0
        moment = report["results"][0]
        assert moment["exact"] == "31/105"

    def test_report_embeds_config(self, capsys):
        code, report = run_cli(
            ["moment", "--sigma", "3/5", "--n", "2", "--sign", "plus", "--seed", "7"], capsys
        )
        assert code == 0
        assert report["params"]["seed"] == 7
        assert report["params"]["sigma"]["exact"] == "3/5"
        assert report["command"] == "moment"
        assert "timing" in report

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _ = run_cli(
            ["moment", "--sigma", "1/2", "--n", "4", "--json", str(path)], capsys
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["results"][0]["exact"] == "31/105"

    def test_float_sigma_rejected(self, capsys):
        code = cli.main(["moment", "--sigma", "0.5", "--n", "4"])
        assert code == 2


class TestCrosscheck:
    def test_all_pass(self, capsys):
        code, report = run_cli(["crosscheck", "--sigma", "1/2", "--n", "4"], capsys)
        assert code == 0
        assert report["passed"]
        entry = report["results"][0]
        assert entry["exact_paths_equal"]
        assert entry["oracle_within_1e-7"]

    def test_r19_moment_order(self, capsys):
        # n = 20 at sigma = 1/10, the order behind the r = 19 bound: the one
        # valid a is 10, both exact routes agree, and no float oracle runs
        code, report = run_cli(["crosscheck", "--sigma", "1/10", "--n", "20"], capsys)
        assert code == 0
        assert report["passed"]
        (entry,) = report["results"]
        assert entry["a"] == 10
        assert entry["exact_paths_equal"]
        assert not any(key.startswith("oracle") for key in entry)


class TestVanish:
    def test_flagship(self, capsys):
        code, report = run_cli(
            ["vanish", "--r", "5", "--n", "4", "--sigma", "1/2", "--sign", "minus"], capsys
        )
        assert code == 0
        entry = report["results"][0]
        assert entry["bound"]["exact"] == "496/65625"
        assert entry["threshold"]["exact"] == "5/2"
        assert entry["moment"]["exact"] == "31/105"

    def test_plus_sign_assumption_flagged(self, capsys):
        code, report = run_cli(
            ["vanish", "--r", "5", "--n", "4", "--sigma", "1/2", "--sign", "plus"], capsys
        )
        assert code == 0
        assert any("positive-sign" in a for a in report["assumptions"])

    def test_moment_computed_once(self, capsys, monkeypatch):
        calls = []
        real = mo.predicted_centered_moment

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mo, "predicted_centered_moment", counted)
        code, report = run_cli(
            ["vanish", "--r", "5", "--n", "4", "--sigma", "1/2", "--sign", "minus"], capsys
        )
        assert code == 0
        assert report["results"][0]["moment"]["exact"] == "31/105"
        assert len(calls) == 1

    def test_bad_query_is_usage_error(self, capsys):
        code = cli.main(["vanish", "--r", "5", "--n", "3", "--sigma", "1/2"])
        assert code == 2


class TestVerify:
    def test_combinat_small(self, capsys):
        code, report = run_cli(["verify", "combinat", "--n", "5", "--a", "2"], capsys)
        assert code == 0
        assert report["passed"]

    def test_arith_small(self, capsys):
        code, report = run_cli(["verify", "arith", "--qmax", "20"], capsys)
        assert code == 0
        assert report["passed"]
        idents = {r["identity"]: r for r in report["results"] if "identity" in r}
        assert idents["ramanujan three-way"]["failures"] == 0

    def test_arith_rows(self, capsys):
        code, report = run_cli(["verify", "arith", "--qmax", "12", "--kloosterman-sweep"], capsys)
        assert code == 0 and report["passed"]
        sweep = sum(
            sum(x % N != 0 for x in range(1, 21))
            * sum(x % N != 0 for x in range(1, 31))
            * sum(x % N != 0 for x in range(1, 6))
            for N in (3, 5, 7)
        )
        gauss = 51 * sum(arith.euler_phi(q) for q in range(1, 13))
        assert [(r["identity"], r["checked"], r["failures"]) for r in report["results"]] == [
            ("ramanujan three-way", 12 * 12, 0),
            ("gauss bounds (primitive) + principal=Ramanujan", gauss, 0),
            ("kloosterman Weil-type bound", 12 * 21 * 21, 0),
            ("prime-level Kloosterman factorization", sweep, 0),
        ]

    def test_arith_holds_one_modulus_of_characters(self, capsys):
        code, report = run_cli(["verify", "arith", "--qmax", "60"], capsys)
        assert code == 0 and report["passed"]
        gc.collect()
        held = {o.modulus for o in gc.get_objects() if isinstance(o, arith.DirichletCharacter)}
        assert len(held) <= 1, sorted(held)

    def test_arith_retains_little_after_the_full_row(self, capsys):
        # the Ramanujan row walks q up to 200; the unit and root tables it
        # caches must not all stay behind (1.7 MB when each cache kept 256)
        for cache in (arith._roots, arith._units, arith._twist):
            cache.cache_clear()
        tracemalloc.start()
        try:
            code, report = run_cli(["verify", "arith", "--qmax", "200"], capsys)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["passed"]
        assert retained < 500_000, retained

    def test_arith_counts_failures(self, capsys, monkeypatch):
        # one Kloosterman case raises, one factorization case returns False
        kloosterman = arith.kloosterman
        factorization = arith.verify_kloosterman_factorization

        def broken_kloosterman(m, n, q):
            if (m, n, q) == (1, 1, 7):
                raise InvariantViolation("injected")
            return kloosterman(m, n, q)

        def broken_factorization(N, b, Q, m):
            return (N, b, Q, m) != (3, 1, 1, 1) and factorization(N, b, Q, m)

        monkeypatch.setattr(arith, "kloosterman", broken_kloosterman)
        monkeypatch.setattr(arith, "verify_kloosterman_factorization", broken_factorization)
        code, report = run_cli(["verify", "arith", "--qmax", "8", "--kloosterman-sweep"], capsys)
        assert code == 1 and not report["passed"]
        failures = {r["identity"]: r["failures"] for r in report["results"]}
        assert failures == {
            "ramanujan three-way": 0,
            "gauss bounds (primitive) + principal=Ramanujan": 0,
            "kloosterman Weil-type bound": 1,
            "prime-level Kloosterman factorization": 1,
        }

    def test_arith_qmax_over_cap_refused_up_front(self, capsys, monkeypatch):
        # qmax = 100000 is 10^10 Ramanujan cases; the refusal must run none
        def no_case(*args):
            raise AssertionError(f"case {args} ran")

        monkeypatch.setattr(arith, "ramanujan", no_case)
        err = assert_usage_error(["verify", "arith", "--qmax", "100000"], capsys)
        assert "qmax=100000 exceeds cap" in err

    def test_arith_qmax_at_cap_runs(self, capsys, monkeypatch):
        # the checks are stubbed, so only the case count at the cap is run
        for name in ("ramanujan", "gauss_sum", "kloosterman"):
            monkeypatch.setattr(arith, name, lambda *args: True)
        qmax = arith._QMAX_CAP
        code, report = run_cli(["verify", "arith", "--qmax", str(qmax)], capsys)
        assert code == 0 and report["passed"]
        assert report["results"][0]["checked"] == qmax * qmax


class TestRmtCommand:
    def test_small_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "z.csv"
        code, report = run_cli(
            [
                "rmt", "--M", "12", "--parity", "even", "--samples", "200",
                "--sigma", "3/5", "--nmax", "2", "--seed", "5",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code in (0, 1)  # statistical gate at tiny M may fail; report still emitted
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sample_index,Z"
        assert len(lines) == 201
        assert report["results"][0]["n"] == 1

    def test_single_sample_is_usage_error(self, capsys):
        code = cli.main(["rmt", "--M", "4", "--samples", "1", "--sigma", "1/2", "--nmax", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("nmax", [600, 1100])
    def test_overflowing_order_refused(self, nmax, capsys):
        """At the default seed 42 (Z - m)^n overflows a float from n = 528 on: the run
        exits 2 with one line naming the order, with no traceback and no
        Infinity in a report."""
        err = assert_usage_error(["rmt", "--M", "100", "--parity", "even", "--sigma", "3/5",
                                  "--samples", "2000", "--nmax", str(nmax)], capsys)
        assert "n=528 moment" in err

    def test_mean_gated_on_finite_M_mean(self, capsys):
        code, report = run_cli(
            ["rmt", "--M", "100", "--samples", "50", "--sigma", "3/5", "--nmax", "2", "--seed", "3"],
            capsys,
        )
        mean = report["results"][0]
        assert mean["predicted"]["exact"] == "13/6"
        assert mean["finite_M_mean"]["exact"] == "43/20"
        assert mean["passed"] == (abs(mean["empirical"] - 43 / 20) <= mean["gate"])
        assert mean["z_score"] == (mean["empirical"] - 43 / 20) / mean["stderr"]
        assert report["results"][1]["finite_M_mean"] is None

    def test_oversized_run_refused_before_sampling(self, capsys, monkeypatch):
        # 7.5 GiB of Z values alone: the stub fails the test instead of
        # drawing them if the run reaches the sampler
        from splitmoments import rmt

        def no_sampling(spec, K):
            raise AssertionError("an oversized run reached the sampler")

        monkeypatch.setattr(rmt, "sample_verblunsky", no_sampling)
        err = assert_usage_error(
            ["rmt", "--M", "4", "--samples", "1000000000", "--sigma", "1/2"], capsys)
        assert "GiB" in err

    @pytest.mark.parametrize("args, reason", [
        # 1.25e12 multiply-adds of tracing in 80 MB of arrays
        (["--M", "1000000", "--samples", "2", "--sigma", "1/2"], "multiply-adds"),
        (["--M", "100", "--samples", "2000", "--sigma", "3/2"], "sigma <= 1"),
        (["--M", "9", "--parity", "even", "--samples", "5", "--sigma", "1/2"],
         "does not match parity"),
    ], ids=["work", "sigma", "parity"])
    def test_refused_before_sampling(self, capsys, monkeypatch, args, reason):
        from splitmoments import rmt

        def no_sampling(spec, K):
            raise AssertionError("a refused run reached the sampler")

        monkeypatch.setattr(rmt, "sample_verblunsky", no_sampling)
        assert reason in assert_usage_error(["rmt", *args], capsys)

    @pytest.mark.parametrize("M, samples", [(100, 20000), (1000, 300)])
    def test_large_runs_within_budget(self, M, samples):
        from splitmoments import rmt

        spec = rmt.EnsembleSpec(M=M, samples=samples, seed=0)
        rmt.check_resources(spec, M)  # K = M is the largest sigma <= 1 allows

    def test_moments_centred_on_finite_M_mean(self, capsys):
        # centring on the M -> infinity mean 13/6 instead of the exact SO(100)
        # mean 43/20 biases n = 3 by about 3 Var (43/20 - 13/6) = -0.017, which
        # fails this seed: -0.0574 against -0.0304, gate 0.0255
        code, report = run_cli(["rmt", "--M", "100", "--samples", "20000", "--sigma", "3/5",
                                "--nmax", "3", "--seed", "2"], capsys)
        assert code == 0 and report["passed"]
        third = report["results"][2]
        assert third["n"] == 3 and third["passed"]
        assert third["predicted"]["exact"] == "-997/32805"

    def test_reproducible_z_stream(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rmt", "--M", "8", "--parity", "even", "--samples", "50",
                "--sigma", "1/2", "--nmax", "2", "--seed", "9"]
        cli.main(args + ["--csv", str(p1)])
        cli.main(args + ["--csv", str(p2)])
        capsys.readouterr()
        assert p1.read_text() == p2.read_text()


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# demo\ncommand = moment\nsigma = 3/5\nn = 2\nsign = plus\nseed = 11\n"
        )
        cfg = cli.load_config(cfg_file)
        assert cfg.command == "moment"
        assert cfg.params["sigma"] == F(3, 5)
        assert cfg.params["seed"] == 11

    def test_float_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nsigma = 0.6\n")
        with pytest.raises(UsageError, match="exactness"):
            cli.load_config(cfg_file)

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nwibble = 3\n")
        with pytest.raises(UsageError, match="unknown key"):
            cli.load_config(cfg_file)

    def test_duplicate_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nn = 2\nn = 4\n")
        with pytest.raises(UsageError, match="duplicate"):
            cli.load_config(cfg_file)

    def test_cli_flags_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nsigma = 1/2\nn = 2\n")
        code, report = run_cli(
            ["--config", str(cfg_file), "moment", "--sigma", "1/2", "--n", "4"], capsys
        )
        assert code == 0
        assert report["results"][0]["n"] == 4

    def test_file_seed_survives_flags(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nsigma = 1/2\nn = 2\nseed = 7\n")
        args = ["--config", str(cfg_file), "moment", "--n", "4", "--sigma", "1/2"]
        code, report = run_cli(args, capsys)
        assert code == 0
        assert report["params"]["seed"] == 7
        code, report = run_cli(args + ["--seed", "9"], capsys)
        assert report["params"]["seed"] == 9

    def test_missing_required_key(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = moment\nn = 4\n")
        code = cli.main(["--config", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "sigma" in captured.err

    def test_config_only(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("command = vanish\nr = 5\nn = 4\nsigma = 1/2\nsign = minus\n")
        code, report = run_cli(["--config", str(cfg_file)], capsys)
        assert code == 0
        assert report["results"][0]["bound"]["exact"] == "496/65625"


class TestConfigMerge:
    """A flag overrides only the key it sets; files and flags share defaults."""

    def test_file_sign_survives_flags(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "moment", sign="plus")
        code, report = run_cli(
            ["--config", cfg_file, "moment", "--n", "4", "--sigma", "1/2"], capsys
        )
        assert code == 0
        assert report["results"][0]["exact"] == "13/35"

    def test_file_satisfies_required_key(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "moment", n=4)
        code, report = run_cli(["--config", cfg_file, "moment", "--sigma", "1/3"], capsys)
        assert code == 0
        assert report["results"][0]["n"] == 4

    def test_file_samples_and_nmax_survive_flags(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "rmt", samples=50, nmax=2, sigma="1/2")
        code, report = run_cli(["--config", cfg_file, "rmt", "--M", "10"], capsys)
        assert code in (0, 1)  # statistical gate at small M may fail
        assert [r["n"] for r in report["results"]] == [1, 2]
        assert report["results"][0]["samples"] == 50
        assert report["params"]["samples"] == 50

    def test_kloosterman_sweep_from_file(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "verify-arith", qmax=5, kloosterman_sweep=0)
        code, report = run_cli(["--config", cfg_file], capsys)
        assert code == 0
        assert report["params"]["kloosterman_sweep"] is False
        assert len(report["results"]) == 3

    def test_key_the_command_does_not_take(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "moment", sigma="1/2", n=4, M=7)
        err = assert_usage_error(["--config", cfg_file], capsys)
        assert "'M'" in err

    def test_bad_switch_value(self, capsys, tmp_path):
        cfg_file = write_config(tmp_path, "verify-all", quick="maybe")
        assert_usage_error(["--config", cfg_file], capsys)

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_malformed_value_is_one_line(self, source, capsys, tmp_path):
        args = ["moment", "--sigma", "1/2", "--n", "4"]
        if source == "flag":
            args += ["--seed", "x"]
        else:
            args = ["--config", write_config(tmp_path, "moment", seed="x")] + args
        assert "seed" in assert_usage_error(args, capsys)


class TestBadInput:
    """Out-of-range values fail with exit 2 and one line, not a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["crosscheck", "--sigma", "1/2", "--n", "0"],
            ["moment", "--sigma", "1/2", "--n", "0"],
            ["moment", "--sigma", "1/2", "--n", "-3"],
            ["verify", "combinat", "--n", "9"],
            ["verify", "combinat", "--t-max", "0"],
            ["verify", "combinat", "--n", "0"],
            ["verify", "combinat", "--n", "1"],
            ["verify", "combinat", "--n", "2"],
            ["verify", "combinat", "--n", "5", "--a", "1"],
            ["verify", "arith", "--qmax", "0"],
            ["rmt", "--M", "10", "--sigma", "1/2", "--samples", "5", "--seed", "-1"],
            ["rmt", "--M", "10", "--sigma", "1/2", "--samples", "5", "--nmax", "0"],
            ["rmt", "--M", "10", "--sigma", "1/2", "--samples", "5", "--nmax", "-1"],
            ["rmt", "--M", "2", "--sigma", "1/2", "--samples", "5"],
            ["rmt", "--M", "3", "--sigma", "1/3", "--samples", "5"],
            ["rmt", "--M", "5", "--sigma", "1/10", "--samples", "5"],
            ["verify"],
            [],
            ["moment", "--foo", "1"],
            ["moment", "--sigma"],
            ["moment", "--sigma", "-1/2", "--n", "4"],
            ["bogus"],
            ["verify", "bogus"],
        ],
        ids=["crosscheck-n0", "moment-n0", "moment-n-negative", "combinat-n9", "t-max0",
             "combinat-n0", "combinat-n1", "combinat-n2", "combinat-a1", "arith-qmax0", "seed-1", "rmt-nmax0",
             "rmt-nmax-1", "rmt-constant-z-M2", "rmt-constant-z-M3", "rmt-constant-z-M5",
             "verify-no-suite", "no-command", "unknown-flag",
             "flag-without-value", "negative-sigma-as-flag", "unknown-command",
             "unknown-suite"],
    )
    def test_usage_error(self, args, capsys):
        assert_usage_error(args, capsys)

    @pytest.mark.parametrize("command", ["moment", "crosscheck"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_order_below_one_names_n(self, command, n, capsys):
        err = assert_usage_error([command, "--sigma", "1/2", "--n", n], capsys)
        assert "bad value for n: must be >= 1" in err
        assert "S_correction" not in err

    @pytest.mark.parametrize("args, key", [
        (["moment", "--sigma", "0", "--n", "2"], "sigma"),
        (["moment", "--sigma", "-1/2", "--n", "4"], "sigma"),
        (["crosscheck", "--sigma", "0", "--n", "2"], "sigma"),
        (["rmt", "--M", "10", "--sigma", "0"], "sigma"),
        (["rmt", "--M", "10", "--sigma", "-1/2"], "sigma"),
        (["vanish", "--r", "5", "--n", "4", "--sigma", "0"], "sigma"),
        (["rmt", "--M", "1", "--sigma", "1/2"], "M"),
        (["vanish", "--r", "0", "--n", "4", "--sigma", "1/2"], "r"),
    ], ids=["moment-sigma0", "moment-sigma-negative", "crosscheck-sigma0", "rmt-sigma0",
            "rmt-sigma-negative", "vanish-sigma0", "rmt-M1", "vanish-r0"])
    def test_bad_value_names_key(self, args, key, capsys):
        # the message names the flag, not the constructor that would refuse it
        err = assert_usage_error(args, capsys)
        assert f"bad value for {key}: must be" in err
        assert "fejer" not in err and "order threshold" not in err

    @pytest.mark.parametrize("n, a, bound", [("4", "3", 2), ("5", "9", 3)],
                             ids=["combinat-n4-a3", "combinat-n5-a9"])
    def test_combinat_a_above_range_names_bound(self, n, a, bound, capsys):
        err = assert_usage_error(["verify", "combinat", "--n", n, "--a", a], capsys)
        assert err.strip().endswith(f"a={a} outside 1..ceil(n/2)={bound}")

    def test_zero_denominator_named(self, capsys, tmp_path):
        err = assert_usage_error(["moment", "--sigma", "1/0", "--n", "2"], capsys)
        assert err.strip().endswith("bad value for sigma: zero denominator in '1/0'")
        cfg_file = write_config(tmp_path, "moment", sigma="3/0", n=2)
        err = assert_usage_error(["--config", cfg_file], capsys)
        assert err.strip().endswith(":2: bad value for sigma: zero denominator in '3/0'")

    def test_float_sigma_still_needs_exactness(self, capsys):
        err = assert_usage_error(["moment", "--sigma", "0.5", "--n", "2"], capsys)
        assert "bad value for sigma: exactness required" in err

    @pytest.mark.parametrize("args", [
        ["moment", "--sigma", "1/2", "--n", ""],
        ["moment", "--sigma", "1/2", "--n", "4", "--a", "q"],
        ["rmt", "--M", "100", "--sigma", "3/5", "--samples", "1e3"],
        ["vanish", "--r", "5", "--n", "x", "--sigma", "1/2"],
        ["moment", "--sigma", "", "--n", "2"],
        ["moment", "--sigma", "abc", "--n", "2"],
    ], ids=["n-empty", "a-word", "samples-float", "vanish-n-word", "sigma-empty", "sigma-word"])
    def test_malformed_number_names_the_expected_form(self, args, capsys):
        # the message says what to write, not which Python constructor refused it
        err = assert_usage_error(args, capsys)
        assert "expected an integer" in err
        assert not any(word in err for word in ("int()", "literal", "Fraction")), err

    @pytest.mark.parametrize("args", [["-h"], ["moment", "-h"], ["verify", "arith", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_missing_config_file(self, capsys, tmp_path):
        assert_usage_error(["--config", str(tmp_path / "absent.cfg")], capsys)

    def test_config_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"command = moment\nsigma = 1/2\xff\nn = 4\n")
        err = assert_usage_error(["--config", str(path)], capsys)
        assert "UTF-8" in err

    def test_json_path_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "absent" / "r.json"
        err = assert_usage_error(
            ["moment", "--sigma", "1/2", "--n", "4", "--json", str(target)], capsys
        )
        assert "r.json" in err

    @pytest.mark.parametrize("command", [c for c in cli.PARAMS if c != "rmt"])
    def test_csv_only_for_rmt(self, command, capsys, tmp_path):
        target = tmp_path / "z.csv"
        argv = command.split("-") + ["--csv", str(target)]
        assert "--csv" in assert_usage_error(argv, capsys)
        cfg_file = write_config(tmp_path, command, csv=target)
        assert "unknown key 'csv'" in assert_usage_error(["--config", cfg_file], capsys)
        assert not target.exists()

    def test_support_error_names_sigma_not_a(self, capsys):
        # no a was given: the fault is sigma > 2/n, not the derived a
        err = assert_usage_error(["moment", "--sigma", "1", "--n", "4"], capsys)
        assert "sigma=1 vs 2/n=1/2" in err and "ceil(n/2)" not in err

    def test_csv_path_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "absent" / "z.csv"
        err = assert_usage_error(
            ["rmt", "--M", "10", "--sigma", "1/2", "--samples", "5", "--csv", str(target)],
            capsys,
        )
        assert "z.csv" in err


NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from splitmoments import cli, quadrature

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if m.split(".")[0] == "scipy" and mod is not None)

after_import = scipy_loaded()
runs = []
for argv in (["crosscheck", "--sigma", "1/2", "--n", "4"],
             ["crosscheck", "--sigma", "1/4", "--n", "3"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, json.loads(out.getvalue())])
print(json.dumps({"after_import": after_import, "after_runs": scipy_loaded(), "runs": runs}))
"""

NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from splitmoments import cli

runs = []
for argv in (["moment", "--sigma", "1/2", "--n", "4", "--sign", "minus"],
             ["vanish", "--r", "5", "--n", "4", "--sigma", "1/2", "--sign", "minus"],
             ["verify", "combinat"],
             ["crosscheck", "--sigma", "1/10", "--n", "20"],
             ["crosscheck", "--sigma", "1/4", "--n", "3"],
             ["crosscheck", "--sigma", "1/2", "--n", "4"],
             ["verify", "all", "--quick"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, json.loads(out.getvalue())])
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "numpy" and mod is not None)
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def src_env():
    """The environment with src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_script(script, *args):
    """stdout of ``python -c script args`` with src on the path, as JSON."""
    proc = subprocess.run([sys.executable, "-c", script, *args], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


MODULES_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
import splitmoments.cli as cli
on_import = sorted(set(sys.modules) - before)
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps({"on_import": on_import, "code": code,
                  "on_run": sorted(set(sys.modules) - before)}))
"""


class TestDependencyBoundary:
    def test_cli_import_loads_only_the_driver(self):
        got = run_script(MODULES_LOADED, "[]")
        package = {name for name in got["on_import"] if name.split(".")[0] == "splitmoments"}
        assert package == {"splitmoments", "splitmoments.cli", "splitmoments.errors"}
        assert "dataclasses" not in got["on_import"]

    @pytest.mark.parametrize("argv, exact", [
        (["moment", "--sigma", "1/2", "--n", "4"], True),
        (["crosscheck", "--sigma", "1/2", "--n", "4"], True),
        (["vanish", "--r", "5", "--n", "4", "--sigma", "1/2"], True),
        (["verify", "all", "--quick"], True),
        (["rmt", "--M", "10", "--sigma", "1/2", "--samples", "20", "--nmax", "2"], False),
    ], ids=["moment", "crosscheck", "vanish", "verify-all", "rmt"])
    def test_command_loads_no_dataclasses_or_argparse(self, argv, exact):
        """Start-up cost: no command loads dataclasses or argparse, and the
        exact commands do not load inspect (numpy itself loads it for rmt)."""
        got = run_script(MODULES_LOADED, json.dumps(argv))
        assert got["code"] == 0
        unwanted = {"dataclasses", "argparse"} | ({"inspect"} if exact else set())
        assert unwanted & set(got["on_run"]) == set()

    @pytest.mark.parametrize("argv, unused", [
        (["crosscheck", "--sigma", "1/2", "--n", "4"], ("arith", "sop", "linfeas", "vanishing")),
        (["rmt", "--M", "10", "--sigma", "1/2", "--samples", "20", "--nmax", "2"],
         ("arith", "sop", "linfeas", "vanishing", "quadrature")),
        (["verify", "combinat"], ("exactpoly", "testfn", "moments")),
        (["verify", "arith", "--qmax", "5"],
         ("exactpoly", "testfn", "moments", "sop", "linfeas", "quadrature")),
        (["moment", "--sigma", "1/2", "--n", "4"], ("arith", "sop", "linfeas", "quadrature", "rmt")),
        (["vanish", "--r", "5", "--n", "4", "--sigma", "1/2"],
         ("arith", "sop", "linfeas", "quadrature", "rmt")),
    ])
    def test_command_loads_only_its_modules(self, argv, unused):
        got = run_script(MODULES_LOADED, json.dumps(argv))
        assert got["code"] == 0
        assert set(got["on_run"]) & {f"splitmoments.{m}" for m in unused} == set()

    def test_crosscheck_runs_without_scipy(self):
        got = run_script(NO_SCIPY)
        assert got["after_import"] == [] and got["after_runs"] == []
        for code, report in got["runs"]:
            assert code == 0 and report["passed"]
            assert report["results"]
            assert all(entry["oracle_within_1e-7"] for entry in report["results"])

    def test_exact_commands_run_without_numpy(self):
        """The exact commands, the float oracle and the verify suites load no numpy."""
        got = run_script(NO_NUMPY)
        assert got["loaded"] == []
        runs = got["runs"]
        assert [code for code, _ in runs] == [0] * len(runs)
        moment, vanish, combinat, cross, *oracle_runs, verify_all = [rep for _, rep in runs]
        assert moment["passed"] and moment["results"][0]["exact"] == "31/105"
        assert vanish["passed"] and vanish["results"][0]["bound"]["exact"] == "496/65625"
        assert combinat["passed"] and combinat["results"]
        assert cross["passed"] and all(entry["exact_paths_equal"] for entry in cross["results"])
        for report in oracle_runs:
            assert report["passed"] and report["results"]
            assert all(entry["oracle_within_1e-7"] for entry in report["results"])
        assert verify_all["passed"]


class TestOracleCap:
    def test_unbounded_rule_refused_up_front(self):
        # at sigma = 1/10000 the T_k rule needs over 2**17 panels, about 52 s
        # of work; a refusal takes well under a second
        proc = subprocess.run(
            [sys.executable, "-m", "splitmoments.cli", "crosscheck", "--n", "3",
             "--sigma", "1/10000"],
            capture_output=True, env=src_env(), text=True, timeout=20,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "panels" in proc.stderr


class TestClosedStdout:
    def test_report_into_closed_pipe_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "splitmoments.cli", "moment", "--sigma", "1/2", "--n", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env=src_env(), text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


EXAMPLE = {
    "sigma": "1/3", "n": "4", "a": "2", "r": "5", "sign": "plus", "M": "11",
    "parity": "odd", "samples": "30", "nmax": "2", "qmax": "10", "t_max": "2",
    "quick": "1", "kloosterman_sweep": "1", "seed": "7",
    "json": "out.json", "csv": "z.csv",
}
SWITCHES = ("quick", "kloosterman_sweep")


def as_flags(command, keys):
    argv = command.split("-")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        argv += [flag] if key in SWITCHES else [flag, EXAMPLE[key]]
    return argv


def load_bench(name):
    """The module ``bench/<name>.py``, loaded without running its main."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_workloads():
    return load_bench("workloads").WORKLOADS


class TestParamsTable:
    @pytest.mark.parametrize("command", list(cli.PARAMS))
    def test_flags_and_file_agree(self, command, tmp_path):
        table = cli.PARAMS[command]
        required = [k for k, (_, default) in table.items() if default is cli.REQUIRED]
        for keys in (required, list(table)):
            from_flags = cli.parse_argv(as_flags(command, keys))
            cfg_file = write_config(tmp_path, command, **{k: EXAMPLE[k] for k in keys})
            assert cli.parse_argv(["--config", cfg_file]) == from_flags
            half = len(keys) // 2
            cfg_file = write_config(tmp_path, command, **{k: EXAMPLE[k] for k in keys[:half]})
            mixed = cli.parse_argv(["--config", cfg_file] + as_flags(command, keys[half:]))
            assert mixed == from_flags
        defaults = cli.parse_argv(as_flags(command, required)).params
        assert {k: defaults[k] for k in table if k not in required} == {
            k: default for k, (_, default) in table.items() if k not in required
        }

    def test_verify_all_is_full_unless_quick(self, tmp_path):
        assert cli.parse_argv(["verify", "all"]).params["quick"] is False
        cfg_file = write_config(tmp_path, "verify-all")
        assert cli.parse_argv(["--config", cfg_file]).params["quick"] is False

    def test_resolve_is_idempotent(self):
        cfg = cli.parse_argv(as_flags("rmt", list(cli.PARAMS["rmt"])))
        assert cli.resolve(cfg.command, cfg.params) == cfg

    @pytest.mark.parametrize("workload", sorted(load_bench_workloads()))
    def test_benchmark_argv_resolves(self, workload):
        for op in load_bench_workloads()[workload](0):
            argv = op["argv"]
            cfg = cli.parse_argv(argv)
            table = cli.PARAMS[cfg.command]
            for i, token in enumerate(argv):
                if not token.startswith("--"):
                    continue
                key = token[2:].replace("-", "_")
                given = argv[i + 1] if i + 1 < len(argv) else None
                if given is None or given.startswith("--"):
                    assert cfg.params[key] is True
                else:
                    assert cfg.params[key] == table[key][0](given)


class TestBenchmarkOps:
    @pytest.mark.parametrize("workload", sorted(load_bench_workloads()))
    def test_every_op_passes_its_checks(self, workload, capsys):
        """Each benchmark op, run in-process, passes the checks the benchmark applies."""
        workloads = load_bench("workloads")
        for op in workloads.WORKLOADS[workload](1):
            code = cli.main(op["argv"])
            assert workloads.check(op, code, capsys.readouterr().out) is None, op["argv"]


class TestBenchTracer:
    def test_every_layer_resolves(self):
        """Each function the tracer patches still exists under its name."""
        layers = load_bench("trace_child").LAYERS
        missing = [f"{module.__name__}.{name}" for module, names in layers.items()
                   for name in names if not callable(getattr(module, name, None))]
        assert missing == []


class TestFlagParsing:
    def test_equals_form(self):
        assert cli.parse_argv(["moment", "--sigma=1/2", "--n=4"]) == cli.parse_argv(
            ["moment", "--sigma", "1/2", "--n", "4"])

    def test_repeated_flag_keeps_last_value(self):
        cfg = cli.parse_argv(["moment", "--sigma", "1/3", "--n", "4", "--sigma=1/2"])
        assert cfg.params["sigma"] == F(1, 2)

    def test_switch_takes_no_value(self):
        assert cli.parse_argv(["verify", "all", "--quick"]).params["quick"] is True
        with pytest.raises(UsageError, match="unknown command"):
            cli.parse_argv(["verify", "all", "--quick", "0"])
        with pytest.raises(UsageError, match="takes no value"):
            cli.parse_argv(["verify", "arith", "--kloosterman-sweep=0"])

    def test_abbreviated_flag_is_unknown(self, capsys):
        err = assert_usage_error(["moment", "--sig", "1/2", "--n", "4"], capsys)
        assert "unknown flag --sig" in err

    def test_negative_value_follows_its_flag(self, capsys):
        err = assert_usage_error(["moment", "--sigma", "-1/2", "--n", "4"], capsys)
        assert "bad value for sigma: must be > 0" in err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command, runner in cli._RUNNERS.items():
            assert f"{command.replace('-', ' ')} " in out and runner.__doc__ in out

    @pytest.mark.parametrize("command", list(cli.PARAMS))
    def test_help_names_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(command.split("-") + ["-h"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        assert {"--" + key.replace("_", "-") for key in cli.PARAMS[command]} <= set(words)


class TestParseRational:
    def test_fraction(self):
        assert cli.parse_rational("3/5") == F(3, 5)

    def test_integer(self):
        assert cli.parse_rational("2") == 2

    def test_negative(self):
        assert cli.parse_rational("-7/3") == F(-7, 3)

    def test_float_rejected(self):
        with pytest.raises(UsageError):
            cli.parse_rational("0.6")
        with pytest.raises(UsageError):
            cli.parse_rational("1e-3")

    def test_garbage_rejected(self):
        with pytest.raises(UsageError, match="malformed"):
            cli.parse_rational("three")
