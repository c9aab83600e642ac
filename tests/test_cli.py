import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from semwalk.cli import _config, _settings, build_parser, dispatch
from semwalk.dataset import parse_manifest, write_descriptor_file
from semwalk.encoding import load_model, save_model
from semwalk.evaluation import (
    OPTION_NAMES,
    SWEEP_KEYS,
    EvalConfig,
    SyntheticSpec,
    encode_segments,
    format_report,
    graph_nodes,
    run_lopo,
    train_encoder,
)
from semwalk.graph import build_svg, save_graph
from semwalk.inference import WalkConfig
from semwalk.semantics import parse_taxonomy

from conftest import write_manifest


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def gen(tmp_path, name, seed=3, extra=()):
    out = tmp_path / name
    argv = [
        "gen-synthetic", "--out", str(out), "--clusters", "3",
        "--points", "9", "--dim", "4", "--persons", "3",
        "--rows-per-video", "6", "--seed", str(seed), *extra,
    ]
    assert dispatch(argv) == 0
    return out


class TestGenSynthetic:
    def test_same_seed_identical_trees(self, tmp_path):
        a = gen(tmp_path, "a", seed=7)
        b = gen(tmp_path, "b", seed=7)
        assert tree_bytes(a) == tree_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a = gen(tmp_path, "a", seed=7)
        b = gen(tmp_path, "b", seed=8)
        assert tree_bytes(a) != tree_bytes(b)


class TestEvaluate:
    def _evaluate(self, data, out, extra=()):
        return dispatch(
            [
                "evaluate",
                "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"),
                "--mode", "as", "--method", "sembed",
                "--encoding", "bow", "--gamma", "4",
                "--fraction", "0.5", "--seed", "2",
                "--out", str(out), *extra,
            ]
        )

    def test_writes_report_and_prints_accuracy(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        capsys.readouterr()  # drop gen-synthetic's own output
        out = tmp_path / "report.txt"
        assert self._evaluate(data, out) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("accuracy=")
        assert out.exists()
        text = out.read_text(encoding="utf-8")
        assert text.startswith("method=sembed\nmode=as\n")

    def test_byte_identical_reruns(self, tmp_path):
        data = gen(tmp_path, "data")
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert self._evaluate(data, out1) == 0
        assert self._evaluate(data, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_out_rejected(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        code = dispatch(
            [
                "evaluate", "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"), "--mode", "as",
            ]
        )
        assert code != 0
        assert "--out" in capsys.readouterr().err

    def test_dim_mismatch_names_both_segments_and_files(self, tmp_path, capsys):
        # Fold p0 loads s1's descriptors first, so s0 is the one that differs.
        write_descriptor_file(tmp_path / "s0.txt", np.ones((2, 3)))
        write_descriptor_file(tmp_path / "s1.txt", np.ones((2, 4)))
        manifest = write_manifest(
            tmp_path / "m.tsv",
            [("s0", "p0", "put", None, "s0.txt"), ("s1", "p1", "put", None, "s1.txt")],
        )
        assert dispatch(
            ["evaluate", "--manifest", str(manifest), "--mode", "verb", "--method", "knn",
             "--encoding", "bow", "--gamma", "1", "--out", str(tmp_path / "r.txt")]
        ) == 1
        assert capsys.readouterr().err == (
            f"semwalk: error: segment 's0' ({tmp_path / 's0.txt'}): descriptor dim 3 "
            f"does not match dataset dim 4 of segment 's1' ({tmp_path / 's1.txt'})\n"
        )

    def test_descriptor_byte_not_utf8_names_file_and_line(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        bad = parse_manifest(data / "manifest.tsv").segments[4].descriptor_path
        lines = bad.read_bytes().count(b"\n")
        with open(bad, "ab") as fh:
            fh.write(b"\xff")
        capsys.readouterr()
        assert self._evaluate(data, tmp_path / "report.txt") == 1
        assert capsys.readouterr().err == (
            f"semwalk: error: {bad}: line {lines + 1}: byte 0xff is not UTF-8\n"
        )

    def test_sample_flag_limits_dataset(self, tmp_path):
        data = gen(tmp_path, "data")
        out = tmp_path / "report.txt"
        code = dispatch(
            [
                "evaluate", "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"), "--mode", "as",
                "--method", "knn", "--encoding", "bow", "--gamma", "4",
                "--fraction", "0.5", "--sample", "18", "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = [
            ln
            for ln in out.read_text(encoding="utf-8").splitlines()
            if ln.startswith("record\t")
        ]
        assert len(records) == 18

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        config = tmp_path / "run.cfg"
        config.write_text(
            "mode=as\nmethod=knn\nencoding=bow\ngamma=4\nfraction=0.5\n"
            "k=3\nseed=2\n# gen-synthetic's key, accepted here too\npoints=9\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.txt"
        code = dispatch(
            [
                "evaluate", "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"),
                "--config", str(config), "--k", "1", "--out", str(out),
            ]
        )
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()
        assert "k=1" in header  # flag wins over config file's k=3
        assert "method=knn" in header  # config fills what flags omit

    def test_defaults_match_library(self, tmp_path):
        # 64 rows per video leave a pool larger than bow's 256 codewords.
        data = gen(tmp_path, "data", extra=("--rows-per-video", "64"))
        out = tmp_path / "report.txt"
        manifest, taxonomy = data / "manifest.tsv", data / "taxonomy.tsv"
        code = dispatch(
            [
                "evaluate", "--manifest", str(manifest), "--taxonomy", str(taxonomy),
                "--mode", "as", "--method", "knn", "--encoding", "bow",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = run_lopo(
            parse_manifest(manifest), parse_taxonomy(taxonomy), "as", "knn",
            EvalConfig(encoding="bow"),
        )
        assert out.read_bytes() == format_report(report).encode("utf-8")


def _non_default(field):
    if field.name == "encoding":
        return "bow"
    if field.default is None:  # gamma
        return 7
    if isinstance(field.default, float):  # lambda and fraction stay within [0, 1]
        return field.default / 2
    return field.default + 1


@pytest.mark.parametrize(
    "command, cls",
    [("evaluate", EvalConfig), ("gen-synthetic", SyntheticSpec), ("classify", WalkConfig)],
)
def test_every_config_field_has_a_flag(command, cls):
    values = {f.name: _non_default(f) for f in fields(cls)}
    argv = [command]
    for name, value in values.items():
        argv += [f"--{OPTION_NAMES.get(name, name).replace('_', '-')}", str(value)]
    built = _config(cls, _settings(build_parser().parse_args(argv)))
    assert built == cls(**values)
    assert all(getattr(built, f.name) != f.default for f in fields(cls))


# Each subcommand's value-taking options, as they were listed by hand
# before the CLI took them from the dataclasses; every subcommand also
# takes --config, classify --distributions and sweep its grid keys.
OPTIONS = {
    "encode": "manifest encoding gamma fraction seed out",
    "build-graph": "manifest taxonomy mode model m out",
    "classify": "graph manifest queries model taxonomy mode z t out",
    "evaluate": "manifest taxonomy mode method encoding gamma m z t k lambda fraction seed "
                "sample epochs step out",
    "sweep": "manifest taxonomy mode method encoding lambda fraction seed sample epochs "
             "step out",
    "gen-synthetic": "clusters points dim separation sigma persons seed rows-per-video "
                     "synonym-clusters hyponym-clusters out",
}
INT_OPTIONS = {
    "gamma", "m", "z", "t", "k", "seed", "sample", "epochs", "clusters", "points", "dim",
    "persons", "rows-per-video", "synonym-clusters", "hyponym-clusters",
}
FLOAT_OPTIONS = {"lambda", "fraction", "step", "separation", "sigma"}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_types_and_defaults_are_pinned(command, capsys):
    assert dispatch([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    names = OPTIONS[command].split() + (list(SWEEP_KEYS) if command == "sweep" else [])
    extra = {"--help", "--config"} | ({"--distributions"} if command == "classify" else set())
    assert listed == {f"--{name}" for name in names} | extra
    parser = build_parser()
    defaults = vars(parser.parse_args([command]))
    assert defaults.get("distributions", False) is False
    assert {key for key, value in defaults.items() if value is not None} <= {
        "command", "func", "distributions",
    }
    for name in names:
        if command == "sweep" and name in SWEEP_KEYS:
            raw, want = "1,2", [1, 2]  # the grid axis the sweep runs over
        elif name in INT_OPTIONS:
            raw, want = "3", 3
        elif name in FLOAT_OPTIONS:
            raw, want = "0.5", 0.5
        else:
            raw, want = "x", "x"
        parsed = vars(parser.parse_args([command, f"--{name}", raw]))
        changed = [value for key, value in parsed.items() if value != defaults.get(key)]
        assert changed == [want] and type(changed[0]) is type(want), (command, name)


class TestConfigFile:
    def _evaluate(self, tmp_path, text):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        code = dispatch(
            [
                "evaluate", "--manifest", str(tmp_path / "missing.tsv"),
                "--config", str(config), "--out", str(tmp_path / "r.txt"),
            ]
        )
        return code, config

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, config = self._evaluate(tmp_path, "method=knn\n\ngama=4\n")
        assert code == 2
        assert f"{config}: line 3: unknown key 'gama'" in capsys.readouterr().err

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        code, config = self._evaluate(tmp_path, "# budget\nm=abc\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{config}: line 2: m: expected int, got 'abc'" in err
        assert err.count("\n") == 1


class TestOtherSubcommandsKeys:
    """A config file may hold keys of other subcommands: each subcommand
    ignores them, values no run of its own could take included."""

    def _twice(self, tmp_path, argv, text):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        plain, configured = tmp_path / "plain.txt", tmp_path / "configured.txt"
        assert dispatch([*argv, "--out", str(plain)]) == 0
        assert dispatch([*argv, "--config", str(config), "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("text", ["z=0\n", "z=2,4\n", "lambda=3\n"])
    def test_encode_writes_the_same_model(self, tmp_path, text):
        data = gen(tmp_path, "data")
        argv = ["encode", "--manifest", str(data / "manifest.tsv"), "--encoding", "bow",
                "--gamma", "4"]
        self._twice(tmp_path, argv, text)

    @pytest.mark.parametrize("text", ["k=0\n", "lambda=3\n"])
    def test_build_graph_writes_the_same_graph(self, tmp_path, text):
        data = gen(tmp_path, "data")
        manifest, model = str(data / "manifest.tsv"), str(tmp_path / "model.txt")
        assert dispatch(
            ["encode", "--manifest", manifest, "--encoding", "bow", "--gamma", "4",
             "--out", model]
        ) == 0
        argv = ["build-graph", "--manifest", manifest, "--mode", "verb", "--model", model]
        self._twice(tmp_path, argv, text)

    def test_unknown_key_still_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("z=0\ngama=4\n", encoding="utf-8")
        assert dispatch(
            ["encode", "--manifest", str(tmp_path / "missing.tsv"), "--config", str(config),
             "--out", str(tmp_path / "model.txt")]
        ) == 2
        assert capsys.readouterr().err == (
            f"semwalk: error: {config}: line 2: unknown key 'gama'\n"
        )


class TestInputNotUtf8:
    """Each loader, reached through the command that reads its file,
    names the file and the line of a byte that is not UTF-8."""

    @pytest.mark.parametrize("target", ["manifest", "taxonomy", "model", "graph", "config"])
    def test_names_file_and_line(self, tmp_path, capsys, target):
        data = gen(tmp_path, "data")
        files = {
            "manifest": data / "manifest.tsv",
            "taxonomy": data / "taxonomy.tsv",
            "model": tmp_path / "model.txt",
            "graph": tmp_path / "graph.txt",
            "config": tmp_path / "run.cfg",
        }
        manifest, taxonomy, model, graph_file, config = map(str, files.values())
        assert dispatch(
            ["encode", "--manifest", manifest, "--encoding", "bow", "--gamma", "4",
             "--out", model]
        ) == 0
        assert dispatch(
            ["build-graph", "--manifest", manifest, "--mode", "verb", "--model", model,
             "--out", graph_file]
        ) == 0
        files["config"].write_text("# walk\nz=2\n", encoding="utf-8")
        out = str(tmp_path / "out.txt")
        argv = {
            "manifest": ["evaluate", "--manifest", manifest, "--method", "knn",
                         "--gamma", "4", "--out", out],
            "taxonomy": ["build-graph", "--manifest", manifest, "--taxonomy", taxonomy,
                         "--mode", "as", "--model", model, "--out", out],
            "model": ["classify", "--graph", graph_file, "--manifest", manifest,
                      "--model", model, "--queries", manifest, "--out", out],
            "graph": ["classify", "--graph", graph_file, "--manifest", manifest,
                      "--model", model, "--queries", manifest, "--out", out],
            "config": ["evaluate", "--config", config, "--manifest", manifest, "--out", out],
        }[target]
        bad = files[target]
        text = bad.read_bytes()
        second = text.index(b"\n") + 1
        bad.write_bytes(text[:second] + b"\xff" + text[second:])
        capsys.readouterr()
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            f"semwalk: error: {bad}: line 2: byte 0xff is not UTF-8\n"
        )


class TestClassifyFlow:
    def test_encode_build_classify_round_trip(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        model = tmp_path / "model.txt"
        graph_file = tmp_path / "graph.txt"
        manifest = str(data / "manifest.tsv")
        taxonomy = str(data / "taxonomy.tsv")
        assert dispatch(
            [
                "encode", "--manifest", manifest, "--encoding", "bow",
                "--gamma", "4", "--fraction", "0.5", "--seed", "1",
                "--out", str(model),
            ]
        ) == 0
        assert dispatch(
            [
                "build-graph", "--manifest", manifest, "--taxonomy", taxonomy,
                "--mode", "as", "--model", str(model), "--m", "40",
                "--out", str(graph_file),
            ]
        ) == 0
        out = tmp_path / "predictions.tsv"
        assert dispatch(
            [
                "classify", "--graph", str(graph_file), "--manifest", manifest,
                "--model", str(model), "--queries", manifest,
                "--taxonomy", taxonomy, "--z", "3", "--t", "2",
                "--out", str(out), "--distributions",
            ]
        ) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 27
        first = lines[0].split("\t")
        assert first[0] == "seg0000"
        assert first[1] == first[2]  # training video classifies to itself
        assert 0.0 < float(first[3]) <= 1.0
        assert ":" in first[4]

    @pytest.mark.parametrize("kind, gamma", [("bow", 4), ("fv", 2)])
    def test_encode_writes_the_train_encoder_model(self, tmp_path, kind, gamma):
        data = gen(tmp_path, "data")
        model = tmp_path / "model.txt"
        argv = [
            "encode", "--manifest", str(data / "manifest.tsv"), "--encoding", kind,
            "--gamma", str(gamma), "--fraction", "0.5", "--seed", "1", "--out", str(model),
        ]
        assert dispatch(argv) == 0
        config = EvalConfig(encoding=kind, gamma=gamma, fraction=0.5, seed=1)
        save_model(train_encoder(parse_manifest(data / "manifest.tsv"), config, 1),
                   tmp_path / "library.txt")
        assert model.read_bytes() == (tmp_path / "library.txt").read_bytes()

    def test_build_graph_writes_the_stage_functions_graph(self, tmp_path):
        data = gen(tmp_path, "data")
        model, graph_file = tmp_path / "model.txt", tmp_path / "graph.txt"
        manifest, taxonomy = data / "manifest.tsv", data / "taxonomy.tsv"
        assert dispatch(
            ["encode", "--manifest", str(manifest), "--encoding", "bow",
             "--gamma", "4", "--out", str(model)]
        ) == 0
        assert dispatch(
            ["build-graph", "--manifest", str(manifest), "--taxonomy", str(taxonomy),
             "--mode", "ah", "--model", str(model), "--m", "7", "--out", str(graph_file)]
        ) == 0
        ds = parse_manifest(manifest)
        nodes = graph_nodes(ds, encode_segments(ds, load_model(model)), "ah")
        save_graph(build_svg(nodes, parse_taxonomy(taxonomy), "ah", 7), tmp_path / "library.txt")
        assert graph_file.read_bytes() == (tmp_path / "library.txt").read_bytes()

    def test_encoding_error_names_segment_and_file(self, tmp_path, capsys):
        four = gen(tmp_path, "four")
        six = gen(tmp_path, "six", extra=("--dim", "6"))
        model = tmp_path / "model.txt"
        assert dispatch(
            ["encode", "--manifest", str(four / "manifest.tsv"), "--encoding", "bow",
             "--gamma", "4", "--out", str(model)]
        ) == 0
        capsys.readouterr()
        manifest = six / "manifest.tsv"
        first = parse_manifest(manifest).segments[0]
        assert dispatch(
            ["build-graph", "--manifest", str(manifest), "--mode", "verb",
             "--model", str(model), "--out", str(tmp_path / "graph.txt")]
        ) == 1
        err = capsys.readouterr().err
        assert err == (
            f"semwalk: error: segment {first.segment_id!r} ({first.descriptor_path}): "
            "descriptor dim 6 != model dim 4\n"
        )

    def test_build_graph_refuses_a_segment_id_with_a_space(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        model, graph_file = tmp_path / "model.txt", tmp_path / "graph.txt"
        manifest = data / "manifest.tsv"
        assert dispatch(
            ["encode", "--manifest", str(manifest), "--encoding", "bow",
             "--gamma", "4", "--out", str(model)]
        ) == 0
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("seg0002\t", "seg 2\t"), encoding="utf-8")
        capsys.readouterr()
        assert dispatch(
            ["build-graph", "--manifest", str(manifest), "--mode", "verb",
             "--model", str(model), "--out", str(graph_file)]
        ) == 1
        assert capsys.readouterr().err == (
            "semwalk: error: node 2: segment id 'seg 2' contains whitespace\n"
        )
        assert not graph_file.exists()

    def test_classify_refuses_a_graph_of_unknown_mode(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        model, graph_file = tmp_path / "model.txt", tmp_path / "graph.txt"
        manifest = str(data / "manifest.tsv")
        assert dispatch(
            ["encode", "--manifest", manifest, "--encoding", "bow", "--gamma", "4",
             "--out", str(model)]
        ) == 0
        assert dispatch(
            ["build-graph", "--manifest", manifest, "--mode", "verb", "--model", str(model),
             "--out", str(graph_file)]
        ) == 0
        text = graph_file.read_text(encoding="utf-8")
        graph_file.write_text(text.replace(" mode verb ", " mode vreb ", 1), encoding="utf-8")
        capsys.readouterr()
        assert dispatch(
            ["classify", "--graph", str(graph_file), "--manifest", manifest,
             "--model", str(model), "--queries", manifest]
        ) == 1
        assert capsys.readouterr().err == (
            f"semwalk: error: {graph_file}: line 1: unknown relation mode 'vreb'\n"
        )

    def test_classify_missing_graph_names_flag(self, tmp_path, capsys):
        code = dispatch(["classify", "--manifest", "x.tsv", "--model", "m.txt"])
        assert code == 2
        assert "--graph" in capsys.readouterr().err

    def test_classify_mode_conflict(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        model = tmp_path / "model.txt"
        graph_file = tmp_path / "graph.txt"
        manifest = str(data / "manifest.tsv")
        dispatch(
            [
                "encode", "--manifest", manifest, "--encoding", "bow",
                "--gamma", "4", "--fraction", "0.5", "--out", str(model),
            ]
        )
        dispatch(
            [
                "build-graph", "--manifest", manifest, "--mode", "verb",
                "--model", str(model), "--out", str(graph_file),
            ]
        )
        code = dispatch(
            [
                "classify", "--graph", str(graph_file), "--manifest", manifest,
                "--model", str(model), "--queries", manifest, "--mode", "ah",
                "--taxonomy", str(data / "taxonomy.tsv"),
            ]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err


class TestSweep:
    def test_sweep_table(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        capsys.readouterr()  # drop gen-synthetic's own output
        code = dispatch(
            [
                "sweep", "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"), "--mode", "as",
                "--method", "sembed", "--encoding", "bow", "--gamma", "4",
                "--fraction", "0.5", "--z", "1,2", "--t", "0,2", "--seed", "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "z\tt\tm\tgamma\tk\taccuracy"
        assert len(lines) == 5

    def test_grid_from_config_file(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        config = tmp_path / "sweep.cfg"
        config.write_text("z=1,2\nt=0,2\ngamma=4\n", encoding="utf-8")
        capsys.readouterr()
        code = dispatch(
            [
                "sweep", "--manifest", str(data / "manifest.tsv"),
                "--method", "knn", "--encoding", "bow", "--fraction", "0.5",
                "--config", str(config),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [ln.split("\t")[:4] for ln in lines[1:]] == [
            ["1", "0", "240", "4"], ["1", "2", "240", "4"],
            ["2", "0", "240", "4"], ["2", "2", "240", "4"],
        ]

    def test_empty_grid_list_rejected(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        capsys.readouterr()
        code = dispatch(
            [
                "sweep", "--manifest", str(data / "manifest.tsv"),
                "--method", "knn", "--encoding", "bow", "--z", "1", "--k", ",",
            ]
        )
        assert code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "semwalk: error: empty sweep list for 'k'\n"

    def test_empty_grid_list_rejected_before_manifest(self, tmp_path, capsys):
        code = dispatch(
            [
                "sweep", "--manifest", str(tmp_path / "missing.tsv"),
                "--method", "knn", "--z", "1", "--k", ",",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "semwalk: error: empty sweep list for 'k'\n"

    def test_bad_grid_value_rejected_before_manifest(self, tmp_path, capsys):
        code = dispatch(
            [
                "sweep", "--manifest", str(tmp_path / "missing.tsv"),
                "--method", "knn", "--k", "2,0",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "semwalk: error: k must be >= 1, got 0\n"

    def test_bad_grid_list_in_config_file_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("z=1,x\n", encoding="utf-8")
        code = dispatch(
            [
                "sweep", "--manifest", str(tmp_path / "missing.tsv"),
                "--method", "knn", "--config", str(config),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"semwalk: error: {config}: line 1: z: expected a comma-separated integer list, "
            "got '1,x'\n"
        )

    def test_sweep_without_grid_rejected(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        code = dispatch(
            [
                "sweep", "--manifest", str(data / "manifest.tsv"),
                "--taxonomy", str(data / "taxonomy.tsv"), "--mode", "as",
            ]
        )
        assert code == 2
        assert "--z" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["transmogrify"]) != 0

    def test_unknown_flag(self, capsys):
        assert dispatch(["evaluate", "--bogus", "1"]) != 0

    @pytest.mark.parametrize("command", ["encode", "evaluate", "sweep"])
    def test_unknown_encoding_one_error(self, tmp_path, capsys, command):
        # The manifest does not exist: the encoding is rejected before it is read.
        code = dispatch(
            [
                command, "--manifest", str(tmp_path / "missing.tsv"),
                "--encoding", "foo", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "semwalk: error: unknown encoding 'foo'; choose from bow|fv\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_unknown_method_one_error(self, tmp_path, capsys, command):
        # The manifest does not exist: the method is rejected before it is read.
        code = dispatch(
            [
                command, "--manifest", str(tmp_path / "missing.tsv"),
                "--method", "oracle", "--z", "1", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "semwalk: error: unknown --method 'oracle'; choose from sembed|knn|linear\n"
        )

    @pytest.mark.parametrize("method", ["sembed", "knn", "linear"])
    def test_bad_walk_setting_is_usage_error_for_every_method(self, tmp_path, capsys, method):
        code = dispatch(
            [
                "evaluate", "--manifest", str(tmp_path / "missing.tsv"),
                "--method", method, "--z", "0", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "semwalk: error: z must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--lambda", "2", "lambda must be in [0, 1], got 2.0"),
            ("--fraction", "0", "fraction must be in (0, 1], got 0.0"),
            ("--epochs", "-1", "epochs must be >= 0, got -1"),
            ("--step", "0", "step must be > 0, got 0.0"),
            ("--sample", "0", "sample size must be >= 1, got 0"),
        ],
    )
    def test_bad_run_setting_rejected_before_manifest(
        self, tmp_path, capsys, command, flag, value, message
    ):
        code = dispatch(
            [
                command, "--manifest", str(tmp_path / "missing.tsv"), "--method", "linear",
                "--z", "1", flag, value, "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"semwalk: error: {message}\n"

    def test_mode_validation(self, tmp_path, capsys):
        data = gen(tmp_path, "data")
        code = dispatch(
            [
                "evaluate", "--manifest", str(data / "manifest.tsv"),
                "--mode", "nope", "--out", str(tmp_path / "r.txt"),
            ]
        )
        assert code == 2
        assert "--mode" in capsys.readouterr().err

    def test_runtime_error_is_one_line(self, tmp_path, capsys):
        code = dispatch(
            ["evaluate", "--manifest", str(tmp_path / "missing.tsv"),
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("semwalk: error:")
        assert err.count("\n") == 1
