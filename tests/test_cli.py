"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.scheme == "nssa"
        assert args.mc == 100

    def test_table_requires_which(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table"])

    def test_cache_off_by_default(self):
        args = build_parser().parse_args(["characterize"])
        assert args.cache is False

    def test_cache_action_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "evict"])

    def test_estimator_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.estimator == "fit"
        assert args.tail_samples == 2000
        assert args.tail_bootstrap == 400
        # The tail command exists to sample the tail: IS by default.
        args = build_parser().parse_args(["tail"])
        assert args.estimator == "is"
        assert args.failure_rate == 1e-9

    def test_estimator_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--estimator",
                                       "bogus"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8972
        assert args.service_dir is None
        assert args.pool_workers == 1
        assert args.max_batch == 8
        assert args.max_attempts == 3
        assert args.retry_base == 0.5
        assert args.snapshot_every == 256

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--pool-workers", "0",
             "--service-dir", "/tmp/svc", "--max-batch", "4"])
        assert args.port == 0
        assert args.pool_workers == 0
        assert args.service_dir == "/tmp/svc"
        assert args.max_batch == 4

    @pytest.mark.parametrize("dt", ["1e-9", "5e-12"])
    def test_coarse_time_step_is_a_usage_error(self, dt, capsys):
        """A step too coarse for the enable rise exits 2 with the rule,
        before anything is simulated."""
        with pytest.raises(SystemExit) as exit_info:
            main(["characterize", "--mc", "8", "--dt", dt, "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --dt" in err
        assert "steps across the 5e-12 s enable rise" in err

    @pytest.mark.parametrize("argv, rule", [
        (["fleet", "--devices", "0"], "n_devices must be a positive"),
        (["fleet", "--years", "1,x"], "could not convert string to float"),
        (["fleet", "--temp", "-300"], "must be above -273.15"),
        (["fleet", "--chunk-size", "0"], "chunk size must be positive"),
        (["fleet", "--policies", "nssa,bogus"], "unknown scheme 'bogus'"),
        (["array", "--rows", "0"], "rows must be a positive integer"),
        (["array", "--rows", "x"], "bad rows list: 'x'"),
        (["array", "--schemes", "nssa,foo"], "unknown scheme 'foo'"),
    ], ids=lambda value: "-".join(value) if isinstance(value, list)
        else None)
    def test_invalid_engine_spec_is_a_usage_error(self, argv, rule,
                                                  capsys):
        """A spec, policy or engine the library refuses exits 2 with the
        subcommand's usage and the rule, not a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err
        assert rule in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, rule", [
        (["characterize", "--mc", "0"], "Monte-Carlo size must be at least"),
        (["characterize", "--workload", "bogus"],
         "unrecognised workload name 'bogus'"),
        (["characterize", "--temp", "-300"], "below absolute zero"),
        (["characterize", "--vdd", "-1"], "vdd must be positive"),
        (["characterize", "--time", "-5"], "stress time must be non-neg"),
        (["characterize", "--chunk-size", "0"],
         "chunk_size must be a positive integer"),
        (["characterize", "--seed", "-1"], "seed must be an integer >= 0"),
        (["table", "--which", "2", "--mc", "0"],
         "Monte-Carlo size must be at least"),
        (["table", "--which", "2", "--chunk-size", "-1"],
         "chunk_size must be a positive integer"),
        (["fig7", "--mc", "1"], "Monte-Carlo size must be at least"),
        (["tail", "--mc", "0"], "Monte-Carlo size must be at least"),
        (["tail", "--estimator", "is", "--tail-samples", "0"],
         "estimator needs at least"),
        (["perf", "--mc", "0"], "Monte-Carlo size must be at least"),
        (["perf", "--array", "8x2", "--mc", "0"], "mc must be an integer"),
    ], ids=lambda value: "-".join(value) if isinstance(value, list)
        else None)
    def test_invalid_cell_argument_is_a_usage_error(self, argv, rule,
                                                    capsys):
        """The cell commands check their settings, corner, workload,
        timing and chunk size before the run, as fleet and array do."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err
        assert rule in err
        assert "Traceback" not in err


class TestCacheCommand:
    def test_stats_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out

    def test_characterize_populates_then_clear(self, tmp_path, capsys):
        code = main(["characterize", "--scheme", "nssa", "--mc", "6",
                     "--dt", "1e-12", "--cache",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        first = capsys.readouterr().out
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "entries:   1" in capsys.readouterr().out
        # The cached replay prints the identical characterisation.
        code = main(["characterize", "--scheme", "nssa", "--mc", "6",
                     "--dt", "1e-12", "--cache",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == first
        assert main(["cache", "clear",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestFastCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "80r0r1" in out and "20r1" in out

    def test_balance(self, capsys):
        assert main(["balance", "--workload", "80r0", "--reads",
                     "2048", "--bits", "6"]) == 0
        out = capsys.readouterr().out
        assert "external imbalance: +1.0000" in out
        assert "swap every 32 reads" in out

    def test_overheads(self, capsys):
        assert main(["overheads", "--columns", "64"]) == 0
        out = capsys.readouterr().out
        assert "area overhead" in out


class TestSimulationCommands:
    def test_characterize_small(self, capsys):
        code = main(["characterize", "--scheme", "nssa", "--mc", "8",
                     "--dt", "1e-12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spec_mV" in out and "delay_ps" in out

    def test_sensitivity(self, capsys):
        code = main(["sensitivity", "--scheme", "nssa",
                     "--dt", "1e-12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mdown" in out and "d(offset)/dVth" in out


class TestTailCommand:
    SMALL = ["tail", "--scheme", "nssa", "--mc", "24",
             "--tail-samples", "40", "--tail-bootstrap", "30",
             "--dt", "2e-12"]

    def test_importance_sampling_run(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "normal fit" in out and "fit spec" in out
        assert "is " in out and "ESS=" in out

    def test_fit_estimator_reports_no_tail(self, capsys):
        assert main(self.SMALL + ["--estimator", "fit"]) == 0
        out = capsys.readouterr().out
        assert "no tail estimate" in out

    def test_json_payload(self, tmp_path, capsys):
        import json
        path = tmp_path / "tail.json"
        assert main(self.SMALL + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["estimator"] == "is"
        assert payload["failure_rate"] == 1e-9
        assert payload["tail"]["n_simulated"] == 40
        spec = payload["tail"]["spec"]
        assert len(spec) == 3 and spec[0] > 0.0

