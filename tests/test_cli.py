import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted, poison_feedback, run_within
import ddpp
from ddpp import cli, data, engine


def run_cli(*argv):
    return cli.main(list(argv))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


GEN_ARGS = ["--n", "60", "--m", "8", "--clusters", "4", "--sources", "3",
            "--seed", "7", "--ni", "20"]

RUN_ARGS = ["--strategies", "ddpp,greedi", "--seeds", "2", "--N", "2",
            "--kT", "4", "--tT", "2", "--m", "8", "--ni", "12",
            "--clusters", "4", "--R", "4"]


class TestGen:
    def test_writes_reloadable_files(self, tmp_path):
        out = tmp_path / "gen"
        assert run_cli("gen", "--out", str(out), *GEN_ARGS) == 0
        Z, labels = data.load_features(out / "features.ddpm", fmt="ddpm")
        assert Z.shape == (60, 8) and labels is not None
        with open(out / "partition.json") as fh:
            part = data.SourcePartition.from_json(fh.read()).validate(60)
        assert part.n_sources == 3
        assert (out / "manifest.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "--out", str(a), *GEN_ARGS)
        run_cli("gen", "--out", str(b), *GEN_ARGS)
        assert (a / "features.ddpm").read_bytes() == (b / "features.ddpm").read_bytes()

    @pytest.mark.parametrize("extra", [
        [], ["--partition-policy", "uniform_random", "--spread", "0.2",
             "--mean-sparsity", "1", "--norm-tail", "0"]])
    def test_writes_the_global_order_generators_data(self, tmp_path, extra):
        argv = ["gen", "--out", str(tmp_path / "gen"), *GEN_ARGS, *extra]
        assert run_cli(*argv) == 0
        args = cli.build_parser().parse_args(argv)
        Z, labels = data.synth_gaussian_mixture(
            args.seed, args.n, args.m, args.clusters, spread=args.spread,
            scale=args.scale, radius_jitter=args.radius_jitter,
            norm_tail=args.norm_tail, mean_sparsity=args.mean_sparsity)
        data.save_ddpm(tmp_path / "want.ddpm", Z, labels)
        assert ((tmp_path / "gen" / "features.ddpm").read_bytes()
                == (tmp_path / "want.ddpm").read_bytes())
        part = data.partition(args.n, args.sources, policy=args.partition_policy,
                              seed=args.seed, cluster_labels=labels,
                              skew=args.skew)
        assert (tmp_path / "gen" / "partition.json").read_text() == part.to_json()

    def test_divisibility_error_exit_code(self, tmp_path):
        code = run_cli("gen", "--out", str(tmp_path / "x"), "--n", "50",
                       "--sources", "7", "--m", "4", "--clusters", "2")
        assert code == 2

    def test_zero_clusters_exit_code(self, tmp_path, capsys):
        code = run_cli("gen", "--out", str(tmp_path / "x"), *GEN_ARGS,
                       "--clusters", "0")
        assert code == 2
        assert "cluster count 0" in capsys.readouterr().err

    def test_an_overflowing_draw_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("gen", "--out", str(out), "--sources", "2",
                           "--ni", "12", "--m", "8", "--clusters", "3",
                           "--norm-tail", "1000")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: the generator settings (")
        assert "norm_tail=1000" in err[0] and "non-finite" in err[0]
        assert caught == []
        assert not out.exists()  # drawn and checked before --out is made

    def test_a_data_file_whose_probe_gram_overflows_names_it(self, tmp_path,
                                                             capsys):
        gen = tmp_path / "g"
        assert run_cli("gen", "--out", str(gen), "--sources", "2", "--ni",
                       "12", "--m", "8", "--clusters", "3", "--scale",
                       "1e200") == 0  # finite features, about 1e200
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("run", "--out", str(tmp_path / "o"), "--data",
                           str(gen / "features.ddpm"), "--kT", "4", "--N",
                           "2", "--seed-list", "0")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert "Gram of a probe subset overflows" in err[0]
        assert "singular" not in err[0]
        assert caught == []


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    calls = counted(monkeypatch, "build_parser", cli)
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_cli("gen", "--out", str(tmp_path / "x"), "--sources", "0") == 2
    assert len(calls) == 1


class TestRun:
    def test_line_count_matches_campaign_grid(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), *RUN_ARGS) == 0
        lines = read_jsonl(out / "results.jsonl")
        assert len(lines) == 2 * 2  # strategies x seeds
        assert {ln["strategy"] for ln in lines} == {"ddpp", "greedi"}
        for ln in lines:
            assert {"strategy", "seed", "rde", "diversity", "uplink_elements",
                    "downlink_elements", "k_T", "N", "R"} <= set(ln)
        assert (out / "manifest.json").exists()
        assert (out / "gt_cache.json").exists()

    def test_ledger_bytes_and_probes_are_exported(self, tmp_path):
        out = tmp_path / "run"
        args = [a if a != "ddpp,greedi" else "ddpp,maxdiv" for a in RUN_ARGS]
        assert run_cli("run", "--out", str(out), *args, "--transport", "tcp") == 0
        for ln in read_jsonl(out / "results.jsonl"):
            # f64 payload plus each frame's header
            assert ln["uplink_bytes"] > 8 * ln["uplink_elements"]
            if ln["strategy"] == "ddpp":
                assert ln["downlink_bytes"] > 8 * ln["downlink_elements"] > 0
                assert ln["probe_elements"] == 0
            else:
                assert ln["downlink_bytes"] == 0
                assert ln["probe_elements"] == 2  # one per source

    def test_reruns_are_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--out", str(a), *RUN_ARGS)
        run_cli("run", "--out", str(b), *RUN_ARGS)
        assert read_jsonl(a / "results.jsonl") == read_jsonl(b / "results.jsonl")

    @pytest.mark.parametrize("R", [2, 8])
    def test_svd_is_a_proposed_run_with_no_block(self, tmp_path, R):
        # H has rank 7 at interval 2 and 6 at interval 3 (one and two
        # foreign rows at m = 8): R = 2 stays below it, R = 8 passes it
        args = ["--strategies", "ddpp", "--seeds", "3", "--N", "2",
                "--kT", "6", "--tT", "3", "--m", "8", "--ni", "12",
                "--clusters", "4", "--R", str(R)]
        svd, empty = tmp_path / "svd", tmp_path / "empty"
        assert run_cli("run", "--out", str(svd), *args,
                       "--compression", "svd") == 0
        assert run_cli("run", "--out", str(empty), *args,
                       "--block-fraction", "0") == 0
        text = (svd / "results.jsonl").read_text()
        assert text.count('"compression": "svd"') == 3
        assert text.replace('"compression": "svd"', '"compression": "proposed"') \
            == (empty / "results.jsonl").read_text()
        per_source = sum(min(R, 8 - q) * 8 for q in (1, 2))
        assert {ln["downlink_elements"] for ln in read_jsonl(
            svd / "results.jsonl")} == {2 * per_source}

    def test_single_interval_ddpp_equals_greedi(self, tmp_path):
        out = tmp_path / "deg"
        run_cli("run", "--out", str(out), "--strategies", "ddpp,greedi",
                "--seeds", "2", "--N", "2", "--kT", "4", "--tT", "1",
                "--m", "8", "--ni", "12", "--clusters", "4", "--R", "4")
        lines = read_jsonl(out / "results.jsonl")
        by_key = {}
        for ln in lines:
            by_key.setdefault(ln["seed"], {})[ln["strategy"]] = ln
        for seed, pair in by_key.items():
            assert set(pair["ddpp"]["selected_indices"]) == \
                set(pair["greedi"]["selected_indices"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kT=4\ntT=2\nm=8\nni=12\nclusters=4\nseeds=2\n"
                       "N=2\nstrategies=greedi\nR=4\n")
        out = tmp_path / "cfgrun"
        assert run_cli("run", "--out", str(out), "--config", str(cfg),
                       "--seeds", "1") == 0  # flag wins over file
        lines = read_jsonl(out / "results.jsonl")
        assert len(lines) == 1
        assert lines[0]["strategy"] == "greedi"

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("warp_speed=9\n")
        assert run_cli("run", "--out", str(tmp_path / "x"),
                       "--config", str(cfg)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:1: no config key 'warp_speed'"]

    def test_config_file_loses_to_a_flag_at_its_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tT=4\n")
        out = tmp_path / "cfgrun"
        # RUN_ARGS passes --tT 2, the flag's default, and it still wins
        assert run_cli("run", "--out", str(out), "--config", str(cfg),
                       *RUN_ARGS) == 0
        assert {ln["t_T"] for ln in read_jsonl(out / "results.jsonl")} == {2}

    @pytest.mark.parametrize("key, flag, value", [
        ("kT", "--kT", "abc"), ("compression", "--compression", "bogus")])
    def test_config_file_values_are_checked_as_flags(self, tmp_path, capsys,
                                                     key, flag, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = str(tmp_path / "x")
        assert run_cli("run", "--out", out, flag, value) == 2
        from_flag = capsys.readouterr().err.splitlines()
        assert run_cli("run", "--out", out, "--config", str(cfg)) == 2
        assert capsys.readouterr().err.splitlines() == from_flag
        assert len(from_flag) == 1 and f"error: argument {flag}: " in from_flag[0]

    @pytest.mark.parametrize("line, message", [
        ("no_momentum=ture", "switch no_momentum is not 1/true/yes/on or "
                             "0/false/no/off: 'ture'"),
        ("label-column=2", "switch label-column is not 1/true/yes/on or "
                           "0/false/no/off: '2'"),
        ("config=other.cfg", "no config key 'config'"),
    ], ids=["no-momentum", "label-column", "config"])
    def test_a_bad_config_line_exits_2_naming_its_file_and_line(
            self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# a comment\n{line}\n")
        out = tmp_path / "x"
        assert run_cli("run", "--out", str(out), "--config", str(cfg),
                       *RUN_ARGS) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("lines, flags, on", [
        ("no_momentum=YES\n", [], True), ("no_momentum=off\n", [], False),
        ("no-momentum=0\n", ["--no-momentum"], True), ("", [], False)])
    def test_a_config_switch_value_sets_it_as_the_flag_does(self, tmp_path, lines,
                                                           flags, on):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(lines)
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), "--config", str(cfg),
                       *RUN_ARGS, *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["no_momentum"] is on

    def test_malformed_partition_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        for text in ("not json", '{"parts": []}', '{"assignments": [["a"]]}'):
            part = tmp_path / "p.json"
            part.write_text(text)
            assert run_cli("run", "--out", str(tmp_path / "x"),
                           "--data", str(path), "--partition-file", str(part),
                           *RUN_ARGS[:-4], "--R", "4") == 1
            assert "partition" in capsys.readouterr().err

    def test_greedymax_runs_with_an_all_zero_source(self, tmp_path,
                                                    monkeypatch):
        # Source 0's 30 rows are zero, so its greedy picks nothing.  The
        # positivity probe is stubbed: a probe meeting a zero row is singular.
        Z = np.random.default_rng(9).normal(size=(240, 16))
        Z[:30] = 0.0
        path, part = tmp_path / "d.csv", tmp_path / "p.json"
        np.savetxt(path, Z, delimiter=",")
        part.write_text(json.dumps({"assignments": [
            list(range(a, a + 30)) for a in range(0, 240, 30)]}))
        monkeypatch.setattr(data, "positivity_scale", lambda dataset, k: 1.0)
        out = tmp_path / "x"
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--partition-file", str(part), "--N", "8", "--kT", "8",
                       "--tT", "2", "--strategies", "greedymax") == 0
        lines = (out / "results.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line)["strategy"] == "greedymax"
                             for line in lines)

    def test_budget_violation_exit_code(self, tmp_path):
        # uncompressed feedback cannot fit in R*m elements
        code = run_cli("run", "--out", str(tmp_path / "x"),
                       "--strategies", "ddpp", "--seeds", "1", "--N", "2",
                       "--kT", "4", "--tT", "2", "--m", "8", "--ni", "12",
                       "--clusters", "4", "--R", "2", "--compression", "none")
        assert code == 3

    def test_zero_feedback_budget_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--out", str(tmp_path / "x"), *RUN_ARGS[:-2],
                       "--R", "0")
        assert code == 2
        assert "below one element" in capsys.readouterr().err

    def test_block_fraction_exit_code(self, tmp_path, capsys):
        # a configuration error, found before any data is made, not in
        # the first feedback interval
        out = tmp_path / "x"
        code = run_cli("run", "--out", str(out), *RUN_ARGS,
                       "--block-fraction", "1.5")
        assert code == 2
        assert "block_fraction must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_source_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                      transport):
        poison_feedback(monkeypatch, 2, target=1)
        out = run_within(20, run_cli, "run", "--out", str(tmp_path / "x"),
                         *RUN_ARGS, "--transport", transport)
        assert out.result == 3 and out.seconds < 5
        assert "below -1e-06" in capsys.readouterr().err

    def test_selection_larger_than_dims_exit_code(self, tmp_path, capsys):
        # k_T = 24 > m = 16: a configuration error, found before any data
        # is generated (or read data rescaled), not a failed rescale
        out = tmp_path / "x"
        code = run_cli("run", "--out", str(out), "--compression", "none",
                       "--kT", "24", "--m", "16", "--N", "4", "--tT", "3")
        assert code == 2
        assert "exceeds dims 16" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(3).normal(size=(24, 6)),
                   delimiter=",")
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--strategies", "greedi", "--seeds", "1", "--N", "2",
                       "--kT", "8", "--tT", "2") == 2
        assert "exceeds dims 6" in capsys.readouterr().err

    def test_manifest_records_the_parsed_argv(self, tmp_path):
        out = tmp_path / "run"
        argv = ["run", "--out", str(out), *RUN_ARGS]
        assert cli.main(argv) == 0
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == argv
        assert "argv" not in manifest["resolved"]

    def test_unlabeled_data_defaults_to_uniform_partition(self, tmp_path):
        rng = np.random.default_rng(6)
        plain, labeled = tmp_path / "plain.csv", tmp_path / "labeled.csv"
        Z = rng.normal(size=(24, 6))
        np.savetxt(plain, Z, delimiter=",")
        np.savetxt(labeled, np.column_stack([Z, np.arange(24) % 3]),
                   delimiter=",")
        args = ["--strategies", "ddpp,greedi", "--seeds", "1", "--N", "2",
                "--kT", "4", "--tT", "2", "--R", "4"]

        def selections(name, *extra):
            out = tmp_path / name
            assert run_cli("run", "--out", str(out), *args, *extra) == 0
            return [ln["selected_indices"] for ln in read_jsonl(out / "results.jsonl")]

        plain_default = selections("plain", "--data", str(plain))
        assert plain_default == selections(
            "plain_uniform", "--data", str(plain),
            "--partition-policy", "uniform_random")
        labeled_default = selections("labeled", "--data", str(labeled),
                                     "--label-column")
        assert labeled_default == selections(
            "labeled_skewed", "--data", str(labeled), "--label-column",
            "--partition-policy", "cluster_skewed")
        assert labeled_default != plain_default  # the two policies differ here

    def test_gt_cache_keyed_by_data_file_dimension(self, tmp_path):
        gen = tmp_path / "gen"
        assert run_cli("gen", "--out", str(gen), "--n", "24", "--m", "6",
                       "--clusters", "3", "--sources", "2", "--seed", "5") == 0
        out = tmp_path / "run"
        # --m stays at its default (64); the file's rows are 6-dimensional
        assert run_cli("run", "--out", str(out),
                       "--data", str(gen / "features.ddpm"),
                       "--partition-file", str(gen / "partition.json"),
                       "--strategies", "greedi", "--seeds", "1", "--N", "2",
                       "--kT", "4", "--tT", "2", "--R", "4") == 0
        with open(out / "gt_cache.json") as fh:
            assert list(json.load(fh)) == ["seed=0,N=2,m=6,kT=4"]
        assert read_jsonl(out / "results.jsonl")[0]["m"] == 6

    def test_thread_pool_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DDPP_THREADS", "2")
        out = tmp_path / "pooled"
        assert run_cli("run", "--out", str(out), *RUN_ARGS) == 0
        assert len(read_jsonl(out / "results.jsonl")) == 4


# Every run row of cli.SETTINGS but --out and --config, at a valid value
# other than its default (True: the switch is on); DATA and PART are files.
ROUND_TRIP = {
    "--data": "DATA", "--label-column": True, "--partition-file": "PART",
    "--partition-seed": "3", "--strategies": "ddpp,maxdiv", "--seeds": "1",
    "--seed-list": "3,4", "--N": "2", "--R": "3,5", "--kT": "6", "--tT": "3",
    "--epsilon": "1e-5", "--block-fraction": "0.25", "--compression": "svd",
    "--no-momentum": True, "--transport": "tcp", "--ni": "12", "--m": "8",
    "--clusters": "3", "--spread": "0.1", "--scale": "5.0",
    "--radius-jitter": "0.1", "--norm-tail": "0.3", "--mean-sparsity": "0.5",
    "--partition-policy": "uniform_random", "--skew": "0.2",
}


def as_flags(settings):
    """``settings``, {flag: value, or True for a switch that is on}, as argv."""
    return [a for f, v in settings.items() for a in ([f] if v is True else [f, v])]


class TestConfigRoundTrip:
    def test_every_run_row_is_set_off_its_default(self):
        rows = {row.flag for row in cli.SETTINGS if "run" in row.defaults}
        assert set(ROUND_TRIP) == rows - {"--out", "--config"}
        parse = cli.build_parser().parse_args
        default = parse(["run", "--out", "x"])
        given = parse(["run", "--out", "x", *as_flags(ROUND_TRIP)])
        for flag in ROUND_TRIP:
            dest = flag[2:].replace("-", "_")
            assert getattr(given, dest) != getattr(default, dest), flag

    # the synthetic run leaves out the two files, --partition-file needing --data
    @pytest.mark.parametrize("leave_out", [(), ("--data", "--partition-file")],
                             ids=["data", "synthetic"])
    def test_a_config_file_runs_as_its_flags_do(self, tmp_path, leave_out):
        path, part = tmp_path / "d.csv", tmp_path / "p.json"
        np.savetxt(path, np.column_stack([
            np.random.default_rng(4).normal(size=(24, 8)), np.arange(24) % 3]),
            delimiter=",")
        part.write_text(data.partition(24, 2, seed=9).to_json())
        files = {"DATA": str(path), "PART": str(part)}
        settings = {f: files.get(v, v) for f, v in ROUND_TRIP.items()
                    if f not in leave_out}
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{f[2:].replace('-', '_')}={'yes' if v is True else v}\n"
                               for f, v in settings.items()))
        out = tmp_path / "run"
        outputs = []
        for argv in (as_flags(settings), ["--config", str(cfg)]):
            shutil.rmtree(out, ignore_errors=True)
            assert run_cli("run", "--out", str(out), *argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["command"], manifest["resolved"]["config"]  # how it ran
            outputs.append([manifest] + [(out / name).read_bytes() for name in
                                         ("results.jsonl", "gt_cache.json")])
        assert outputs[0] == outputs[1]
        rep = tmp_path / "rep"
        assert run_cli("report", "--results", str(out / "results.jsonl"),
                       "--out", str(rep), "--pca-seed", "3") == 0
        rows = (rep / "pca_seed3.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 24
        flagged = [i for i, r in enumerate(rows) if r.endswith(",1")]
        selected = read_jsonl(out / "results.jsonl")[0]["selected_indices"]
        assert flagged == sorted(selected) and len(flagged) == 6


class TestRunDefaults:
    def test_run_defaults_are_the_config_defaults(self):
        # perfbench's paper workloads build configs from the dataclass
        # defaults, its deep-feedback workload from the flags
        args = cli.build_parser().parse_args(
            ["run", "--out", "x", "--strategies", "ddpp", "--R", "4", "--kT", "8"])
        [cfg] = cli._unit_configs(args, 0, 2, 8)
        assert cfg == engine.ExperimentConfig(n_sources=2, dims=8, total_select=8,
                                              sparsity=4.0)
        assert (cfg.epsilon, cfg.block_fraction, cfg.intervals, cfg.compression,
                cfg.momentum) == (1e-6, 0.5, 2, "proposed", True)


class TestOneSource:
    @pytest.mark.parametrize("m, ni, kT", [(24, 20, 4), (48, 40, 8), (16, 12, 6)])
    def test_greedi_and_greedymax_lines_match_in_either_order(
            self, tmp_path, monkeypatch, m, ni, kT):
        # at N = 1 greedi's quota is k_T: the first of the two to run fills
        # the memo entry both read, by the rows' greedy or, at n_i < m, the
        # greedy on the source's Gram; the lines must not depend on which
        grams = counted(monkeypatch, "greedy_map", ddpp.dpp)
        lines = {}
        for order in ("greedi,greedymax", "greedymax,greedi"):
            out = tmp_path / order
            assert run_cli("run", "--out", str(out), "--strategies", order,
                           "--N", "1", "--m", str(m), "--ni", str(ni),
                           "--kT", str(kT), "--clusters", "4",
                           "--seed-list", ",".join(map(str, range(60)))) == 0
            lines[order] = sorted((out / "results.jsonl").read_text().splitlines())
            assert len(lines[order]) == 120
            assert len(grams) == (0 if order.startswith("greedi,") else 60)
        assert lines["greedi,greedymax"] == lines["greedymax,greedi"]


class TestProbeMemo:
    def test_an_r_sweep_probes_each_source_once_per_unit(self, tmp_path,
                                                         monkeypatch):
        # maxdiv's probe does not depend on R: N probes a unit, not 3N
        probes = counted(monkeypatch, "rd_diversity", ddpp.engine)
        assert run_cli("run", "--out", str(tmp_path / "o"), "--R", "10,20,30",
                       "--strategies", "maxdiv", "--seed-list", "0,1",
                       "--N", "2,3", "--kT", "6", "--tT", "2", "--m", "8",
                       "--ni", "12", "--clusters", "4") == 0
        assert len(probes) == 2 * (2 + 3)
        assert len(read_jsonl(tmp_path / "o" / "results.jsonl")) == 2 * 2 * 3


class TestReproducibility:
    def test_results_identical_under_one_and_two_blas_threads(self, tmp_path):
        # The center's feedback is canonical, so no step may depend on how
        # the BLAS splits its work; each run is a fresh process because the
        # thread count is fixed when numpy loads.
        src = os.path.dirname(os.path.dirname(ddpp.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       DDPP_THREADS="1")
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from ddpp import cli; sys.exit(cli.main(sys.argv[1:]))",
                 "run", "--out", str(out), "--strategies", "ddpp",
                 "--seed-list", "3,4", "--N", "3", "--m", "256", "--ni", "200",
                 "--kT", "60", "--tT", "2"],
                env=env, check=True, timeout=300, capture_output=True)
            outputs.append((out / "results.jsonl").read_bytes())
        assert len(outputs[0].splitlines()) == 2
        assert outputs[0] == outputs[1]


class TestBlasThreads:
    BLAS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    @pytest.mark.parametrize("env, expected", [
        ({"DDPP_THREADS": "2"}, ["1", "1", "1"]),
        ({}, [None, None, None]),
        ({"DDPP_THREADS": "1"}, [None, None, None]),
        ({"DDPP_THREADS": "two"}, [None, None, None]),  # cli reports it
        ({"DDPP_THREADS": "2", "OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
    ])
    def test_a_pool_of_two_or_more_gets_one_blas_thread(self, env, expected):
        # a fresh process: the variables only matter before numpy loads
        src = os.path.dirname(os.path.dirname(ddpp.__file__))
        base = {k: v for k, v in os.environ.items()
                if k not in self.BLAS + ["DDPP_THREADS"]}
        code = ("import json, os, ddpp; "
                f"print(json.dumps([os.environ.get(v) for v in {self.BLAS!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**base, **env, "PYTHONPATH": src},
                              check=True, timeout=60, capture_output=True,
                              text=True)
        assert json.loads(proc.stdout) == expected


class TestReport:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--out", str(out), "--strategies",
                "ddpp,greedi,random", "--seeds", "3", "--N", "2",
                "--kT", "4", "--tT", "2", "--m", "8", "--ni", "12",
                "--clusters", "4", "--R", "4")
        return out

    def test_summary_and_ttest_tables(self, results_dir, tmp_path):
        rep = tmp_path / "rep"
        assert run_cli("report", "--results", str(results_dir / "results.jsonl"),
                       "--out", str(rep), "--pairs", "ddpp:greedi,ddpp:random") == 0
        summary = (rep / "summary.csv").read_text().strip().splitlines()
        assert summary[0].startswith("strategy,N,R,m,mean_rde")
        assert len(summary) == 1 + 3  # one row per strategy cell
        ttest = (rep / "ttest.csv").read_text().strip().splitlines()
        assert len(ttest) == 1 + 2

    def test_pca_scatter(self, results_dir, tmp_path):
        rep = tmp_path / "rep2"
        assert run_cli("report", "--results", str(results_dir / "results.jsonl"),
                       "--out", str(rep), "--pca-seed", "0",
                       "--pca-strategy", "ddpp") == 0
        rows = (rep / "pca_seed0.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,label,selected"
        assert len(rows) == 1 + 24  # N * ni samples
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 4

    def test_pca_scatter_of_a_data_file(self, tmp_path):
        # 30 file rows, where N * ni would be 24: the scatter is of the file
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(5).normal(size=(30, 6)),
                   delimiter=",")
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--partition-policy", "uniform_random",
                       "--strategies", "ddpp", "--seeds", "1", "--N", "2",
                       "--kT", "4", "--tT", "2", "--R", "4", "--ni", "12") == 0
        rep = tmp_path / "rep"
        assert run_cli("report", "--results", str(out / "results.jsonl"),
                       "--out", str(rep), "--pca-seed", "0",
                       "--pca-strategy", "ddpp") == 0
        rows = (rep / "pca_seed0.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 30
        flagged = [i for i, r in enumerate(rows) if r.endswith(",1")]
        selected = read_jsonl(out / "results.jsonl")[0]["selected_indices"]
        assert flagged == sorted(selected) and len(flagged) == 4

    def test_pca_scatter_of_a_config_file_run(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m=8\nni=12\nclusters=4\nspread=0.1\nskew=0.2\n"
                       "partition-seed=3\nkT=4\n")
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), "--config", str(cfg),
                       "--strategies", "ddpp", "--seeds", "1", "--N", "2",
                       "--tT", "2", "--R", "4") == 0
        rep = tmp_path / "rep"
        assert run_cli("report", "--results", str(out / "results.jsonl"),
                       "--out", str(rep), "--pca-seed", "0") == 0
        rows = (rep / "pca_seed0.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 24
        flagged = [i for i, r in enumerate(rows) if r.endswith(",1")]
        selected = read_jsonl(out / "results.jsonl")[0]["selected_indices"]
        assert flagged == sorted(selected)

    def test_empty_results_fail(self, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert run_cli("report", "--results", str(empty),
                       "--out", str(tmp_path / "rep")) == 2


class TestOracleAndTtest:
    def test_oracle_on_small_csv(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("3,0\n0,2\n1,1\n")
        assert run_cli("oracle", "--data", str(path), "--k", "2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["indices"] == [0, 1]

    @pytest.mark.parametrize("command", ["oracle", "run"])
    def test_a_csv_of_labels_alone_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "labels.csv"
        path.write_text("0\n1\n0\n")
        args = ["--k", "2"] if command == "oracle" else [
            "--out", str(tmp_path / "out"), "--N", "1", "--kT", "1", "--tT", "1"]
        assert run_cli(command, "--data", str(path), "--label-column", *args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no feature columns" in captured.err

    def test_oracle_refuses_k_above_the_width(self, tmp_path, capsys):
        # every 3-subset of 2-wide rows is singular: no optimum to report
        path = tmp_path / "d.csv"
        path.write_text("3,0\n0,2\n1,1\n2,1\n1,3\n0,1\n")
        assert run_cli("oracle", "--data", str(path), "--k", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds dims 2" in captured.err

    @pytest.mark.parametrize("k, message", [
        ("0", "argument --k: must be at least 1, got 0"),
        ("-1", "argument --k: must be at least 1, got -1"),
        ("3", "k must be in 1..2, got 3")], ids=["0", "-1", "3"])
    def test_oracle_refuses_k_outside_one_to_the_row_count(self, tmp_path,
                                                           capsys, k, message):
        path = tmp_path / "d.csv"
        path.write_text("3,0,1\n0,2,1\n")  # 2 rows, 3 wide
        assert run_cli("oracle", "--data", str(path), f"--k={k}") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_oracle_refuses_k_past_the_subset_guard(self, tmp_path, capsys,
                                                     monkeypatch):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(10).normal(size=(3000, 2)),
                   delimiter=",")
        dets = counted(monkeypatch, "det", np.linalg)
        assert run_cli("oracle", "--data", str(path), "--k", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and dets == []  # no subset scored
        assert captured.err.splitlines() == [
            "error: C(3000,2) exceeds 1000000 subsets"]

    def test_oracle_forms_no_n_by_n_kernel(self, tmp_path, capsys):
        # each subset's kernel comes from its own k rows: the 3 000 x 3 000
        # Gram alone would take 72 MB
        n = 3000
        Z = np.random.default_rng(9).normal(size=(n, 2))
        path = tmp_path / "d.csv"
        np.savetxt(path, Z, delimiter=",")
        tracemalloc.start()
        try:
            assert run_cli("oracle", "--data", str(path), "--k", "1") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 20
        out = json.loads(capsys.readouterr().out)
        assert out["indices"] == [int(np.argmax(np.einsum("ij,ij->i", Z, Z)))]

    def test_ttest_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--out", str(out), "--strategies", "ddpp,random",
                "--seeds", "3", "--N", "2", "--kT", "4", "--tT", "2",
                "--m", "8", "--ni", "12", "--clusters", "4", "--R", "4")
        assert run_cli("ttest", "--results", str(out / "results.jsonl"),
                       "--a", "ddpp", "--b", "random") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["n_a"] == 3 and payload["n_b"] == 3
        assert 0.0 <= payload["p"] <= 1.0


# Each names the missing file MISSING; DATA is a readable csv and RESULTS a
# results file with no manifest beside it.
MISSING_INPUTS = {
    "run --config": (["run", "--out", "OUT", "--config", "MISSING"], 2),
    "run --data": (["run", "--out", "OUT", "--data", "MISSING"], 1),
    "run --partition-file": (["run", "--out", "OUT", "--data", "DATA",
                              "--partition-file", "MISSING",
                              *RUN_ARGS[:-4], "--R", "4"], 1),
    "partition --data": (["partition", "--data", "MISSING", "--sources", "2",
                          "--out", "OUT"], 1),
    "oracle --data": (["oracle", "--data", "MISSING", "--k", "2"], 1),
    "report --results": (["report", "--results", "MISSING", "--out", "OUT"], 2),
    "report manifest": (["report", "--results", "RESULTS", "--out", "OUT",
                         "--pca-seed", "0"], 2),
    "ttest --results": (["ttest", "--results", "MISSING", "--a", "ddpp",
                         "--b", "greedi"], 2),
}

SWEEPS = {"--R": "4", "--N": "2", "--seed-list": "0"}

GOOD_RESULT = {"strategy": "ddpp", "seed": 0, "N": 2, "R": 4.0, "m": 6,
               "rde": 0.1}

# Each is line 2 of a results file whose line 1 is GOOD_RESULT.
BAD_RESULT_LINES = {
    "not JSON": b"not json",
    "not UTF-8": b'\xff{"strategy": "ddpp"}',
    "not an object": b"[1, 2]",
    **{f"no {key}": json.dumps({k: v for k, v in GOOD_RESULT.items()
                                if k != key}).encode()
       for key in ("strategy", "seed", "N", "R", "rde")},
}


class TestRefusedInput:
    @pytest.mark.parametrize("name", sorted(MISSING_INPUTS))
    def test_a_missing_input_file_is_a_typed_error(self, tmp_path, capsys,
                                                   name):
        argv, code = MISSING_INPUTS[name]
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        results = tmp_path / "run" / "results.jsonl"
        results.parent.mkdir()
        results.write_text(json.dumps({"strategy": "ddpp", "N": 2, "R": 4.0,
                                       "m": 6, "rde": 0.1, "seed": 0}) + "\n")
        paths = {"OUT": tmp_path / "out", "MISSING": tmp_path / "missing",
                 "DATA": data_path, "RESULTS": results}
        assert run_cli(*[str(paths.get(a, a)) for a in argv]) == code
        assert "cannot read" in capsys.readouterr().err

    def test_partition_file_without_data_exit_code(self, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text('{"assignments": [[0], [1]]}')
        out = tmp_path / "x"
        assert run_cli("run", "--out", str(out), "--partition-file", str(part),
                       *RUN_ARGS) == 2
        assert "--partition-file needs --data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", sorted(SWEEPS))
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_an_empty_sweep_exit_code(self, tmp_path, capsys, flag, where):
        others = [a for f, v in SWEEPS.items() if f != flag for a in (f, v)]
        argv = ["run", "--out", str(tmp_path / "x"), "--strategies", "greedi",
                "--kT", "4", "--m", "8", "--ni", "12", "--clusters", "4",
                *others]
        if where == "flag":
            argv.append(f"{flag}=")
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"{flag[2:]}=\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 2
        assert "need at least one" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad", sorted(BAD_RESULT_LINES))
    @pytest.mark.parametrize("command", [["report", "--out", "OUT"],
                                         ["ttest", "--a", "ddpp", "--b", "greedi"]],
                             ids=["report", "ttest"])
    def test_a_malformed_results_line_is_a_typed_error(self, tmp_path, capsys,
                                                       command, bad):
        results = tmp_path / "results.jsonl"
        results.write_bytes(json.dumps(GOOD_RESULT).encode() + b"\n"
                            + BAD_RESULT_LINES[bad] + b"\n")
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in command]
        assert run_cli(argv[0], "--results", str(results), *argv[1:]) == 2
        assert f"{results}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [b"not json", b"[1, 2]",
                                          b'{"command": []}',
                                          b'{"resolved": "x"}'],
                             ids=["not JSON", "not an object", "no resolved",
                                  "resolved not an object"])
    def test_a_malformed_manifest_is_a_typed_error(self, tmp_path, capsys,
                                                   manifest):
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(GOOD_RESULT) + "\n")
        (tmp_path / "manifest.json").write_bytes(manifest)
        assert run_cli("report", "--results", str(results),
                       "--out", str(tmp_path / "out"), "--pca-seed", "0") == 2
        assert f"{tmp_path / 'manifest.json'}: " in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["data", "spread", "kT"])
    def test_a_manifest_missing_a_run_setting_is_a_typed_error(
            self, tmp_path, capsys, missing):
        # rebuilding the dataset from defaults could silently draw another one
        run = tmp_path / "run"
        assert run_cli("run", "--out", str(run), "--strategies", "ddpp",
                       "--N", "2", "--kT", "4", "--m", "8", "--ni", "12",
                       "--clusters", "4", "--seed-list", "0") == 0
        manifest = json.loads((run / "manifest.json").read_text())
        del manifest["resolved"][missing]
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("report", "--results", str(run / "results.jsonl"),
                       "--out", str(tmp_path / "out"), "--pca-seed", "0") == 2
        err = capsys.readouterr().err
        assert f"{run / 'manifest.json'}: no {missing!r} setting" in err
        assert not (tmp_path / "out" / "pca_seed0.csv").exists()

    @pytest.mark.parametrize("setting, value, message", [
        ("m", "abc", "argument --m: invalid int value: 'abc'"),
        ("spread", "wide", "argument --spread: invalid float value: 'wide'"),
        ("ni", 0, "argument --ni: must be at least 1, got 0"),
        ("no_momentum", "maybe", "switch no_momentum is not 1/true/yes/on"),
        ("ni", [3], "ni = [3] is not a value its flag parses to"),
        ("ni", None, "ni = None is not a value its flag parses to"),
        ("no_momentum", "yes", "no_momentum = 'yes' is not a value"),
    ])
    def test_a_manifest_setting_its_flag_refuses_is_a_typed_error(
            self, tmp_path, capsys, setting, value, message):
        run = tmp_path / "run"
        assert run_cli("run", "--out", str(run), "--strategies", "ddpp",
                       "--N", "2", "--kT", "4", "--m", "8", "--ni", "12",
                       "--clusters", "4", "--seed-list", "0") == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["resolved"][setting] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("report", "--results", str(run / "results.jsonl"),
                       "--out", str(out), "--pca-seed", "0") == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {run / 'manifest.json'}: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["ddpp", "ddpp:greedi:x"])
    def test_a_malformed_pairs_entry_is_a_typed_error(self, tmp_path, capsys,
                                                      entry):
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(GOOD_RESULT) + "\n")
        out = tmp_path / "out"
        assert run_cli("report", "--results", str(results), "--out", str(out),
                       "--pairs", f"ddpp:random,{entry}") == 2
        assert f"--pairs entry {entry!r} is not a:b" in capsys.readouterr().err
        assert not out.exists()


# Each is an invocation the CLI refuses as a configuration error, the
# changes it makes to line 2 of RESULTS, and what its error names.  RESULTS
# is a results file of two GOOD_RESULT lines.
BAD_INVOCATIONS = {
    **{f"gen {flag} 0": (["gen", "--out", "OUT", flag, "0"], {},
                         f"argument {flag}: must be at least 1, got 0")
       for flag in ("--sources", "--m", "--ni", "--n")},
    "report rde": (["report", "--results", "RESULTS", "--out", "OUT"],
                   {"rde": "x"}, "wrong type: rde = 'x'"),
    "report seed": (["report", "--results", "RESULTS", "--out", "OUT"],
                    {"seed": "0"}, "wrong type: seed = '0'"),
    "report R": (["report", "--results", "RESULTS", "--out", "OUT"],
                 {"R": [4]}, "wrong type: R = [4]"),
    "report m": (["report", "--results", "RESULTS", "--out", "OUT"],
                 {"m": 6.5}, "wrong type: m = 6.5"),
    "report --pca-seed": (["report", "--results", "RESULTS", "--out", "OUT",
                           "--pca-seed", "0"], {"selected_indices": "0,1"},
                          "no integer selected_indices"),
    "ttest rde": (["ttest", "--results", "RESULTS", "--a", "ddpp",
                   "--b", "ddpp"], {"rde": "x"}, "wrong type: rde = 'x'"),
    "ttest --metric strategy": (["ttest", "--results", "RESULTS", "--a", "ddpp",
                                 "--b", "ddpp", "--metric", "strategy"], {},
                                "wrong type: strategy = 'ddpp'"),
}


# Each makes its --out, OUT; DATA is a readable csv and RESULTS a results
# file of one GOOD_RESULT line, with a run's manifest beside it.
MAKES_OUT = {
    "gen": ["gen", "--out", "OUT", *GEN_ARGS],
    "partition": ["partition", "--data", "DATA", "--sources", "2",
                  "--out", "OUT"],
    "run": ["run", "--out", "OUT", *RUN_ARGS],
    "report": ["report", "--results", "RESULTS", "--out", "OUT"],
    "report --pca-seed": ["report", "--results", "RESULTS", "--out", "OUT",
                          "--pca-seed", "0"],
}


class TestExitCodes:
    @pytest.mark.parametrize("command", sorted(MAKES_OUT))
    def test_an_out_under_a_file_is_one_error_line_and_exit_2(
            self, tmp_path, capsys, monkeypatch, command):
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(
            {**GOOD_RESULT, "selected_indices": [0, 1]}) + "\n")
        run = cli.build_parser().parse_args(["run", "--out", "x", *RUN_ARGS])
        (tmp_path / "manifest.json").write_text(json.dumps({"resolved": {
            k: v for k, v in vars(run).items() if k != "func"}}))
        out = results / "out"  # a path under a regular file
        paths = {"OUT": out, "DATA": data_path, "RESULTS": results}
        argv = [str(paths.get(a, a)) for a in MAKES_OUT[command]]
        drawn = counted(monkeypatch, "synth_dataset", data)
        loaded = counted(monkeypatch, "load_features", data)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot make --out {out}: Not a directory"]
        assert drawn == [] and loaded == []  # refused before any data

    def test_partition_refuses_an_out_in_a_missing_directory_before_loading(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        out = tmp_path / "p.json"
        out.write_text("old")
        argv = ["partition", "--data", str(path), "--sources", "2", "--out"]
        assert run_cli(*argv, str(out)) == 0  # an existing file is replaced
        assert data.SourcePartition.from_json(out.read_text()).n_sources == 2
        capsys.readouterr()
        loaded = counted(monkeypatch, "load_features", data)
        missing = tmp_path / "missing" / "p.json"
        assert run_cli(*argv, str(missing)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot make --out {missing}: No such file or directory"]
        assert loaded == [] and not missing.parent.exists()

    def test_partition_refuses_an_out_that_is_a_directory_before_loading(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        out = tmp_path / "p.json"
        out.mkdir()
        loaded = counted(monkeypatch, "load_features", data)
        assert run_cli("partition", "--data", str(path), "--sources", "2",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot make --out {out}: Is a directory"]
        assert loaded == [] and list(out.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_ddpp_threads_below_one_exits_2_as_a_non_integer_does(
            self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("DDPP_THREADS", threads)
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), *RUN_ARGS) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: DDPP_THREADS must be a positive integer, got {threads!r}"]
        assert not out.exists()

    def test_run_refuses_an_out_under_a_file_before_any_unit(
            self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        units = counted(monkeypatch, "run_ground_truth", engine)
        assert run_cli("run", "--out", str(out), *RUN_ARGS) == 2
        assert units == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot make --out {out}: Not a directory"]
        assert blocker.read_text() == "" and not out.exists()

    @pytest.mark.parametrize("name", sorted(BAD_INVOCATIONS))
    def test_a_bad_invocation_is_one_error_line_and_exit_2(self, tmp_path,
                                                           capsys, name):
        argv, change, message = BAD_INVOCATIONS[name]
        results = tmp_path / "run" / "results.jsonl"
        results.parent.mkdir()
        (results.parent / "manifest.json").write_text('{"resolved": {}}')
        results.write_text(json.dumps(GOOD_RESULT) + "\n"
                           + json.dumps({**GOOD_RESULT, **change}) + "\n")
        paths = {"OUT": str(tmp_path / "out"), "RESULTS": str(results)}
        assert run_cli(*[paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert message in err[0]

    @pytest.mark.parametrize("setting, message", [
        (["--R", "nan"], "must be finite"),
        (["--R", "inf"], "must be finite"),
        (["--R", "1e308"], "must be finite"),  # R*m overflows at m = 8
        (["--epsilon", "inf"], "must be finite"),
        (["--tT", "0"], "argument --tT: must be at least 1, got 0"),
        (["--seed-list", "-1"], "argument --seed-list: must be at least 0, got -1"),
        (["--ni", "0"], "argument --ni: must be at least 1, got 0"),
        (["--clusters", "0"], "cluster count 0 must lie in 1..24"),
        (["--clusters", "25"], "cluster count 25 must lie in 1..24"),
        (["--mean-sparsity", "0"], "mean_sparsity must lie in (0, 1]"),
        (["--mean-sparsity", "1.5"], "mean_sparsity must lie in (0, 1]"),
        (["--mean-sparsity", "nan"], "mean_sparsity must lie in (0, 1]"),
    ], ids=["R-nan", "R-inf", "Rm-overflow", "epsilon-inf", "tT-0", "seed-list-negative",
            "ni-0", "clusters-0", "clusters-past-n", "mean-sparsity-0",
            "mean-sparsity-past-1", "mean-sparsity-nan"])
    def test_a_bad_run_setting_exits_2_before_out_is_made(self, tmp_path, capsys,
                                                          setting, message):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--m", "8", "--kT", "4",
                       "--N", "2", "--ni", "12", "--clusters", "3",
                       "--seed-list", "0", "--strategies", "ddpp,greedi",
                       *setting) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--spread", "nan", "spread must be finite and non-negative, got nan"),
        ("--spread", "-1", "spread must be finite and non-negative, got -1.0"),
        ("--scale", "0", "scale must be finite and positive, got 0.0"),
        ("--scale", "inf", "scale must be finite and positive, got inf"),
        ("--radius-jitter", "nan", "radius_jitter must be finite and in [0, 1]"),
        ("--radius-jitter", "2", "radius_jitter must be finite and in [0, 1]"),
        ("--norm-tail", "nan", "norm_tail must be finite and non-negative"),
        ("--norm-tail", "-0.5", "norm_tail must be finite and non-negative"),
        ("--skew", "nan", "skew must be finite and in [0, 1], got nan"),
    ])
    def test_a_bad_generator_setting_exits_2_before_out_is_made(
            self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        argv = ["--out", str(out), "--m", "8", "--ni", "12", "--clusters", "3",
                flag, value]
        if command == "run":
            argv += ["--kT", "4", "--N", "2", "--seed-list", "0"]
        else:
            argv += ["--sources", "2"]
        assert run_cli(command, *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "partition"])
    def test_a_negative_seed_exits_2_before_out_is_made(self, tmp_path, capsys,
                                                        command):
        out = tmp_path / "out"
        if command == "gen":
            argv = ["gen", "--out", str(out), "--sources", "2", "--ni", "10",
                    "--m", "4", "--clusters", "2"]
        else:
            path = tmp_path / "d.csv"
            np.savetxt(path, np.ones((4, 3)), delimiter=",")
            argv = ["partition", "--data", str(path), "--sources", "2",
                    "--out", str(out)]
        assert run_cli(*argv, "--seed", "-1") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: argument --seed: must be at least 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        (["--partition-policy", "uniform_random", "--partition-seed", "-1"],
         "argument --partition-seed: must be at least 0, got -1"),
        (["--label-column", "--partition-policy", "cluster_skewed",
          "--skew", "nan"], "skew must be finite and in [0, 1], got nan"),
        (["--partition-policy", "cluster_skewed"],
         "cluster_skewed partitioning needs cluster labels"),
        (["--label-column", "--partition-file", "PART", "--N", "3", "--kT",
          "6"],
         "partition does not match the configured source count"),
    ], ids=["partition-seed-negative", "skew-nan", "unlabelled-cluster-skewed",
            "partition-file-source-count"])
    def test_a_bad_data_partition_exits_2_before_out_is_made(
            self, tmp_path, capsys, setting, message):
        path, part = tmp_path / "d.csv", tmp_path / "p.json"
        Z = np.random.default_rng(8).normal(size=(24, 6))
        np.savetxt(path, np.column_stack([Z, np.arange(24) % 3]), delimiter=",")
        part.write_text(data.partition(24, 2).to_json())
        out = tmp_path / "out"
        argv = [str(part) if a == "PART" else a for a in setting]
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--kT", "4", "--R", "4", "--seeds", "1", "--N", "2",
                       *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()

    def test_a_partition_file_that_misses_rows_keeps_exit_1(self, tmp_path,
                                                            capsys):
        path, part = tmp_path / "d.csv", tmp_path / "p.json"
        np.savetxt(path, np.random.default_rng(8).normal(size=(24, 6)),
                   delimiter=",")
        part.write_text(data.partition(20, 2).to_json())
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--partition-file", str(part), "--kT", "4", "--R", "4",
                       "--seeds", "1", "--N", "2") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: partition does not cover the dataset exactly"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--scale", "1e200", "scale=1e+200"),  # the probe's Gram overflows
        ("--norm-tail", "1000", "norm_tail=1000"),  # the draw overflows
    ])
    def test_a_generator_overflow_is_a_configuration_error(
            self, tmp_path, capsys, flag, value, named):
        # the data must be drawn to know, so this comes from the unit
        assert run_cli("run", "--out", str(tmp_path / "out"), "--m", "8",
                       "--kT", "4", "--N", "2", "--ni", "12", "--clusters",
                       "3", "--seed-list", "0", flag, value) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: the generator settings (")
        assert named in err[0]

    @pytest.mark.parametrize("setting, data_file, message", [
        (["--scale", "1e200"], None, "overflows"),
        (["--norm-tail", "1000"], None, "non-finite"),
        ([], 1e200, "overflows"),  # a --data file whose probe Gram overflows
    ], ids=["scale", "norm-tail", "data"])
    def test_a_draw_time_failure_leaves_no_out(self, tmp_path, capsys,
                                               setting, data_file, message):
        out = tmp_path / "out"
        if data_file:
            path = tmp_path / "d.csv"
            np.savetxt(path, data_file * np.random.default_rng(3).normal(
                size=(24, 8)), delimiter=",")
            setting = ["--data", str(path)]
        code = run_cli("run", "--out", str(out), "--m", "8", "--kT", "4",
                       "--N", "2", "--ni", "12", "--clusters", "3",
                       "--seed-list", "0", *setting)
        assert code == (1 if data_file else 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        (["--m", "64", "--kT", "40", "--ni", "12", "--clusters", "3"],
         "source 0 holds 12 samples, fewer than its quota k_T/N = 20"),
        (["--data", "DATA", "--kT", "6"],
         "source 0 holds 2 samples, fewer than its quota k_T/N = 3"),
    ], ids=["synthetic", "data"])
    def test_a_source_below_its_quota_exits_2_before_out_is_made(
            self, tmp_path, capsys, setting, message):
        path, out = tmp_path / "d.csv", tmp_path / "out"
        np.savetxt(path, np.random.default_rng(5).normal(size=(4, 8)),
                   delimiter=",")
        argv = [str(path) if a == "DATA" else a for a in setting]
        assert run_cli("run", "--out", str(out), "--N", "2", "--seed-list",
                       "0", *argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("strategy", engine.STRATEGIES)
    def test_a_partition_file_below_the_quota_exits_2_before_out_is_made(
            self, tmp_path, capsys, strategy):
        # source 0 holds 1 of the 6 rows where k_T/N = 2 are owed
        path, part, out = tmp_path / "d.csv", tmp_path / "p.json", tmp_path / "out"
        np.savetxt(path, np.random.default_rng(6).normal(size=(6, 8)),
                   delimiter=",")
        part.write_text(data.SourcePartition(((0,), (1, 2, 3, 4, 5))).to_json())
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--partition-file", str(part), "--kT", "4", "--N", "2",
                       "--R", "4", "--seeds", "1", "--strategies", strategy) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: source 0 holds 1 samples, fewer than its quota k_T/N = 2"]
        assert not out.exists()

    @pytest.mark.parametrize("selected, manifest, message", [
        ("0,1", {"resolved": {}}, "no integer selected_indices"),
        ([0, 1], {"resolved": {}}, "no 'data' setting"),
        ([0, 1], [], "not a JSON object with a 'resolved' object"),
    ], ids=["selected_indices", "setting", "manifest"])
    def test_report_pca_seed_writes_nothing_on_a_config_error(
            self, tmp_path, capsys, selected, manifest, message):
        results = tmp_path / "run" / "results.jsonl"
        results.parent.mkdir()
        (results.parent / "manifest.json").write_text(json.dumps(manifest))
        results.write_text(json.dumps(
            {**GOOD_RESULT, "selected_indices": selected}) + "\n")
        out = tmp_path / "rep"
        assert run_cli("report", "--results", str(results), "--out", str(out),
                       "--pca-seed", "0") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    def test_report_writes_na_for_runs_without_spread(self, tmp_path):
        # on fixed data each strategy gives one RDE on every seed: no spread
        path = tmp_path / "d.csv"
        np.savetxt(path, np.random.default_rng(9).normal(size=(24, 6)),
                   delimiter=",")
        out = tmp_path / "run"
        assert run_cli("run", "--out", str(out), "--data", str(path),
                       "--partition-policy", "uniform_random",
                       "--strategies", "ddpp,greedi", "--seeds", "3",
                       "--N", "2", "--kT", "4", "--tT", "2", "--R", "4") == 0
        rdes = {(ln["strategy"], ln["rde"])
                for ln in read_jsonl(out / "results.jsonl")}
        assert len(rdes) == 2
        rep = tmp_path / "rep"
        assert run_cli("report", "--results", str(out / "results.jsonl"),
                       "--out", str(rep), "--pca-seed", "0") == 0
        ttest = (rep / "ttest.csv").read_text().strip().splitlines()
        assert ttest[1:] == ["ddpp,greedi,2,4.0,NA,NA"]
        assert (rep / "pca_seed0.csv").exists()


class TestLoadDataset:
    def test_a_rescaled_data_file_is_held_once_more(self):
        # small values make every probe negative: the store is rescaled
        n, m, k = 4000, 256, 60
        Z = 0.01 * np.random.default_rng(10).normal(size=(n, m))
        args = argparse.Namespace(data="d.csv", partition_file=None,
                                  partition_seed=0,
                                  partition_policy="uniform_random", skew=0.1,
                                  kT=k)
        warm = argparse.Namespace(**{**vars(args), "kT": 4})
        cli._dataset(warm, None, 2, (Z[:40, :8], None))  # lazy imports first
        tracemalloc.start()
        try:
            ds = cli._dataset(args, None, 4, (Z, None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.scale > 1.0
        assert np.array_equal(ds.rows(range(n)), Z * ds.scale)
        assert peak < 1.5 * Z.nbytes  # the store alone, no rescaled copy


class TestSharedDataset:
    """A --data campaign builds each N's dataset and ground truth once."""

    @pytest.fixture
    def data_file(self, tmp_path):
        gen = tmp_path / "gen"
        assert run_cli("gen", "--out", str(gen), "--sources", "3", "--ni",
                       "20", "--m", "12", "--clusters", "4", "--seed", "5") == 0
        return str(gen / "features.ddpm")

    def test_each_n_builds_one_dataset_and_one_ground_truth(
            self, tmp_path, monkeypatch, data_file):
        loads = counted(monkeypatch, "load_features", data)
        builds = counted(monkeypatch, "__init__", data.Dataset)
        probes = counted(monkeypatch, "positivity_scale", data)
        greedies = counted(monkeypatch, "greedy_map_rows", ddpp.dpp)
        assert run_cli("run", "--out", str(tmp_path / "run"), "--data",
                       data_file, "--N", "2,3", "--seed-list", "0,1,2,3",
                       "--kT", "6", "--strategies", "ddpp,greedi,random") == 0
        assert len(loads) == 1
        assert [args[0].partition.n_sources for args, _ in builds] == [2, 3]
        assert len(probes) == 2
        on_store = [args[0].shape for args, _ in greedies
                    if args[0].shape[0] == 60]
        assert on_store == [(60, 12), (60, 12)]

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_a_shared_dataset_gives_each_seed_its_own_lines(self, data_file,
                                                            transport):
        args = cli.build_parser().parse_args(
            ["run", "--out", "unused", "--data", data_file, "--kT", "6",
             "--R", "3", "--strategies", ",".join(ddpp.engine.STRATEGIES),
             "--transport", transport])
        for N in (2, 3):
            shared = cli._dataset(args, None, N, cli._read_data(args))
            units = [cli._campaign_unit(args, s, N, shared) for s in range(4)]
            assert units == [cli._campaign_unit(args, s, N) for s in range(4)]

    def test_seeds_sharing_a_dataset_in_a_pool_match_a_serial_run(
            self, tmp_path, monkeypatch, data_file):
        argv = ["--data", data_file, "--N", "2,3", "--seed-list",
                "0,1,2,3,4,5", "--kT", "6", "--strategies",
                ",".join(ddpp.engine.STRATEGIES)]
        assert run_cli("run", "--out", str(tmp_path / "serial"), *argv) == 0
        monkeypatch.setenv("DDPP_THREADS", "4")  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave inside the memo
        try:
            out = run_within(60, run_cli, "run", "--out",
                             str(tmp_path / "pooled"), *argv)
        finally:
            sys.setswitchinterval(interval)
        assert out.result == 0, out.error
        for name in ("results.jsonl", "gt_cache.json"):
            assert ((tmp_path / "pooled" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_an_n_sweep_holds_one_store_at_a_time(self, tmp_path):
        n, m = 2400, 64
        Z = 0.01 * np.random.default_rng(11).normal(size=(n, m))
        path = tmp_path / "d.ddpm"
        data.save_ddpm(path, Z)
        argv = ["--data", str(path), "--kT", "8", "--strategies", "greedi",
                "--seed-list", "0,1"]
        assert run_cli("run", "--out", str(tmp_path / "warm"), *argv,
                       "--N", "2") == 0  # lazy imports first
        tracemalloc.start()
        try:
            assert run_cli("run", "--out", str(tmp_path / "run"), *argv,
                           "--N", "2,4,8") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the loaded file and one store (2.24 Z); a second store makes 3
        assert peak < 2.75 * Z.nbytes


# The values a fuzzed flag draws.  A flag whose parse has a domain (a lower
# bound ``low``) draws its edge from each side and the non-finite values, as
# DOMAIN_VALUES lists them; any other draws FUZZ_VALUES.  VALID is its
# FUZZ_BASE value, else its default (the flag is left out).
VALID = "valid"
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", VALID]
FUZZ_BASE = {
    "run": {"--m": "8", "--kT": "4", "--N": "2", "--ni": "12",
            "--clusters": "3", "--seeds": "1", "--R": "4",
            "--strategies": ",".join(engine.STRATEGIES)},
    "gen": {"--sources": "2", "--ni": "12", "--m": "8", "--clusters": "3"},
    "partition": {"--sources": "2"},
    "report": {},
    "oracle": {"--k": "2"},
    "ttest": {"--a": "ddpp", "--b": "greedi"},
}
# Where every value just inside each domain runs: N = k_T = 1 takes one
# sample of one dimension.
EDGE_BASE = {
    "run": {"--m": "8", "--kT": "1", "--N": "1", "--tT": "1", "--ni": "12",
            "--clusters": "1", "--seeds": "1", "--R": "1"},
    "gen": {"--sources": "1", "--ni": "2", "--m": "2", "--clusters": "1"},
    "partition": {"--sources": "1"},
    "oracle": {"--k": "1"},
}
PATH_FLAGS = {"--out", "--data", "--config", "--partition-file", "--results"}


def domain_values(row):
    """{value: whether it lies outside the domain} of a row with one."""
    low = row.parse.low
    return {str(low): False, str(low - 1): True, "nan": True, "inf": True,
            "-inf": True}


def fuzzed_flags(command):
    """Every ``cli.SETTINGS`` row of ``command`` that takes a value, save
    file paths, with the values it draws."""
    return {row.flag: (domain_values(row) if getattr(row.parse, "low", None)
                       is not None else dict.fromkeys(FUZZ_VALUES))
            for row in cli.SETTINGS if command in row.defaults
            and row.parse is not bool and row.flag not in PATH_FLAGS}


def fuzz_argv(command, values, tmp, results=None, with_data=False):
    """``command`` with ``values``, its paths filled in: --out under
    ``tmp``, ``results``, and where needed or ``with_data`` a labelled csv
    written under ``tmp``."""
    argv = [command, *(f"{f}={v}" for f, v in values.items())]
    if command in ("gen", "partition", "run", "report"):
        argv += ["--out", os.path.join(tmp, "out")]
    if command in ("report", "ttest"):
        argv += ["--results", results]
    if command in ("partition", "oracle") or with_data:
        path = os.path.join(tmp, "d.csv")
        np.savetxt(path, np.column_stack([
            np.random.default_rng(2).normal(size=(24, 8)),
            np.arange(24) % 3]), delimiter=",")
        argv += ["--data", path, "--label-column"]
    return argv


def main_quietly(argv):
    """``cli.main``'s exit code and stderr; warnings are collected."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    return code, err.getvalue()


class TestFuzz:
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        """A two-seed campaign's results.jsonl, its manifest beside it."""
        out = tmp_path_factory.mktemp("fuzz") / "run"
        base = {**FUZZ_BASE["run"], "--seeds": "2"}
        assert cli.main(["run", "--out", str(out),
                         *(f"{f}={v}" for f, v in base.items())]) == 0
        return str(out / "results.jsonl")

    @pytest.mark.parametrize("command", sorted(FUZZ_BASE))
    def test_every_flag_value_ends_in_one_error_line_and_an_exit_code(
            self, command, results):
        flags = fuzzed_flags(command)
        drawn_pair = st.sampled_from(sorted(flags)).flatmap(
            lambda f: st.tuples(st.just(f), st.sampled_from(sorted(flags[f]))))

        @settings(max_examples=100, derandomize=True, deadline=None,
                  database=None)
        @given(drawn=st.lists(drawn_pair, max_size=3, unique_by=lambda p: p[0]),
               with_data=st.booleans())
        def check(drawn, with_data):
            with tempfile.TemporaryDirectory() as tmp:
                values = {**FUZZ_BASE[command],
                          **{f: v for f, v in drawn if v != VALID}}
                argv = fuzz_argv(command, values, tmp, results,
                                 with_data=command == "run" and with_data)
                code, err = main_quietly(argv)
                lines = [ln for ln in err.splitlines() if "error:" in ln]
                assert code in (0, 1, 2, 3), argv
                assert len(lines) == (code != 0), (argv, err)
                assert "Traceback" not in err, argv
                assert code != 2 or not os.path.exists(
                    os.path.join(tmp, "out")), argv
                if any(flags[f][v] for f, v in drawn):  # outside a domain
                    assert code == 2 and lines[0].startswith(
                        "error: argument --"), (argv, err)
        check()

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command in sorted(EDGE_BASE)
        for flag, values in fuzzed_flags(command).items()
        if VALID not in values for value in values])
    def test_a_flag_exits_2_exactly_outside_its_domain(self, tmp_path, command,
                                                       flag, value):
        outside = fuzzed_flags(command)[flag][value]
        argv = fuzz_argv(command, {**EDGE_BASE[command], flag: value},
                         str(tmp_path))
        code, err = main_quietly(argv)
        assert code == (2 if outside else 0), (argv, err)
        if outside:
            assert err.startswith(f"error: argument {flag}: "), err
            assert len(err.splitlines()) == 1, err
