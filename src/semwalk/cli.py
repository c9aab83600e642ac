"""Single executable exposing the pipeline.

Subcommands::

    encode         train an encoder (codebook or mixture) on a manifest
    build-graph    encode a manifest and build the semantic-visual graph
    classify       classify query videos against a prebuilt graph
    evaluate       leave-one-person-out evaluation, one report file
    sweep          grid of evaluations over z / t / m / gamma / k
    gen-synthetic  write a planted synthetic dataset + taxonomy

Options may also come from a ``--config`` file of ``key=value`` lines;
explicit flags win.  An option set neither way takes the default of the
`EvalConfig`, `SyntheticSpec` or `WalkConfig` field it sets.  All
randomness is controlled by ``--seed``.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import encoding, evaluation, graph, inference, semantics
from .dataset import Dataset, annotation_for, atomic_write_text, parse_manifest, sample_segments

_DEFAULTS: dict[str, object] = {"mode": semantics.VERB, "method": evaluation.SEMBED}

# argparse destinations that differ from the option name; every other
# option is named after the dataclass field it sets
_DEST = {option: field for field, option in evaluation.OPTION_NAMES.items()}

# Numeric defaults live in the dataclasses; the CLI only borrows their types.
_CONVERTERS: dict[str, type] = {
    f.name: type(f.default)
    for cls in (evaluation.EvalConfig, evaluation.SyntheticSpec, inference.WalkConfig)
    for f in fields(cls)
} | {"gamma": int, "sample": int}

# Value-taking flags of each subcommand (every one also takes --config).
_FLAGS: dict[str, tuple[str, ...]] = {
    "encode": ("manifest", "encoding", "gamma", "fraction", "seed", "out"),
    "build-graph": ("manifest", "taxonomy", "mode", "model", "m", "out"),
    "classify": (
        "graph", "manifest", "queries", "model", "taxonomy", "mode", "z", "t", "out",
    ),
    "evaluate": (
        "manifest", "taxonomy", "mode", "method", "encoding", "gamma", "m", "z",
        "t", "k", "lambda", "fraction", "seed", "sample", "epochs", "step", "out",
    ),
    "sweep": (
        "manifest", "taxonomy", "mode", "method", "encoding", "lambda",
        "fraction", "seed", "sample", "epochs", "step", "out",
    ),
    "gen-synthetic": (
        "clusters", "points", "dim", "separation", "sigma", "persons", "seed",
        "rows-per-video", "synonym-clusters", "hyponym-clusters", "out",
    ),
}

# A config file may set any subcommand's flag, so one file can serve several.
_CONFIG_KEYS = frozenset(
    name.replace("-", "_") for names in _FLAGS.values() for name in names
) | set(evaluation.SWEEP_KEYS)


class CliError(Exception):
    """Usage-level failure; message is printed as a one-line diagnostic."""


def _load_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Option destination -> (``path:line: key`` of the setting, raw value)."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[_DEST.get(key, key)] = (f"{path}:{lineno}: {key}", value)
    return values


class _Options:
    """Flag / config-file / default resolution; flags win."""

    def __init__(self, ns: argparse.Namespace) -> None:
        self.ns = vars(ns)
        config = self.ns.get("config")
        self.file = _load_config_file(config) if config else {}

    def given(self, dest: str):
        """The flag's value, else the config file's, else None."""
        value = self.ns.get(dest)
        if value is None and dest in self.file:
            where, raw = self.file[dest]
            converter = _CONVERTERS.get(dest, str)
            try:
                value = converter(raw)
            except ValueError:
                raise CliError(
                    f"{where}: expected {converter.__name__}, got {raw!r}"
                ) from None
        return value

    def get(self, dest: str, required: bool = False):
        value = self.given(dest)
        if value is None:
            value = _DEFAULTS.get(dest)
        if value is None and required:
            raise CliError(f"missing required --{dest}")
        return value

    def config(self, cls, exclude: tuple[str, ...] = ()):
        """`cls` from the options that are set; the rest keep its defaults."""
        values = {
            f.name: self.given(f.name) for f in fields(cls) if f.name not in exclude
        }
        try:
            return cls(**{name: v for name, v in values.items() if v is not None})
        except ValueError as exc:
            raise CliError(str(exc)) from None


def _taxonomy_for(opts: _Options, mode: str) -> semantics.Taxonomy | None:
    path = opts.get("taxonomy")
    if path is None:
        if mode in semantics.MEANING_MODES:
            raise CliError(f"missing required --taxonomy (mode {mode!r} needs one)")
        return None
    return semantics.parse_taxonomy(path)


def _dataset(opts: _Options, seed: int) -> Dataset:
    """The manifest's segments, cut to a seeded ``--sample`` when one is set."""
    sample = opts.get("sample")
    if sample is not None and sample < 1:
        raise CliError(f"sample size must be >= 1, got {sample}")
    ds = parse_manifest(opts.get("manifest", required=True))
    return ds if sample is None else sample_segments(ds, sample, seed)


def _check_mode(mode: str) -> str:
    if mode not in semantics.MODES:
        raise CliError(f"unknown --mode {mode!r}; choose from {'|'.join(semantics.MODES)}")
    return mode


def _check_method(method: str) -> str:
    if method not in evaluation.METHODS:
        raise CliError(f"unknown --method {method!r}; choose from {'|'.join(evaluation.METHODS)}")
    return method


def cmd_encode(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    config = opts.config(evaluation.EvalConfig)
    ds = parse_manifest(opts.get("manifest", required=True))
    model = evaluation.train_encoder(ds, config, config.seed)
    out = opts.get("out", required=True)
    encoding.save_model(model, out)
    print(f"saved {config.encoding} model (gamma={config.gamma}, dim={model.dim}) to {out}")
    return 0


def cmd_build_graph(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    mode = _check_mode(opts.get("mode"))
    taxonomy = _taxonomy_for(opts, mode)
    model = encoding.load_model(opts.get("model", required=True))
    ds = parse_manifest(opts.get("manifest", required=True))
    nodes = evaluation.graph_nodes(ds, evaluation.encode_segments(ds, model), mode)
    svg = graph.build_svg(nodes, taxonomy, mode, opts.config(evaluation.EvalConfig).m)
    out = opts.get("out", required=True)
    graph.save_graph(svg, out)
    print(f"built graph: {len(svg)} nodes, {len(svg.ends)} edges -> {out}")
    return 0


def cmd_classify(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    structure = graph.load_graph(opts.get("graph", required=True))
    # The graph dump records its relation mode; an explicit --mode (or
    # config value) must agree with it.
    mode = opts.given("mode") or structure.mode
    if mode != structure.mode:
        raise CliError(
            f"--mode {mode!r} conflicts with graph mode {structure.mode!r}"
        )
    taxonomy = _taxonomy_for(opts, mode)
    model = encoding.load_model(opts.get("model", required=True))
    train = parse_manifest(opts.get("manifest", required=True))
    svg = graph.with_vectors(structure, evaluation.encode_segments(train, model))
    transitions = graph.normalize_transitions(svg)
    queries = parse_manifest(opts.get("queries", required=True))

    annotations = {node.annotation for node in svg.nodes}
    query_annotations: dict[str, str | None] = {}
    for seg in queries.segments:
        try:
            ann = annotation_for(seg, mode)
        except ValueError:
            ann = None
        if ann is not None and taxonomy is not None and ann not in taxonomy:
            ann = None  # unknown meaning: report truth as "-"
        query_annotations[seg.segment_id] = ann
    known = {a for a in query_annotations.values() if a is not None}
    classes = semantics.semantic_classes(taxonomy, annotations | known, mode)
    cmap = semantics.class_map(classes)

    walk = opts.config(inference.WalkConfig)
    vectors = list(evaluation.encode_segments(queries, model).values())
    results = inference.classify_batch(
        svg, transitions, taxonomy, mode, vectors, walk, classes=classes
    )
    lines = []
    for seg, (label, dist) in zip(queries.segments, results):
        ann = query_annotations[seg.segment_id]
        true_class = cmap[ann] if ann is not None else "-"
        line = f"{seg.segment_id}\t{label}\t{true_class}\t{dist[label]!r}"
        if ns.distributions:
            line += "\t" + evaluation.format_distribution(dist)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    out = opts.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    mode = _check_mode(opts.get("mode"))
    method = _check_method(opts.get("method"))
    config = opts.config(evaluation.EvalConfig)
    taxonomy = _taxonomy_for(opts, mode)
    ds = _dataset(opts, config.seed)
    report = evaluation.run_lopo(ds, taxonomy, mode, method, config)
    out = opts.get("out", required=True)
    evaluation.write_report(report, out)
    print(f"accuracy={report.accuracy!r}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None


def cmd_sweep(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    mode = _check_mode(opts.get("mode"))
    method = _check_method(opts.get("method"))
    # The grid keys hold comma-separated lists, not single values.
    base = opts.config(evaluation.EvalConfig, exclude=evaluation.SWEEP_KEYS)
    grid: dict[str, list] = {}
    for key in evaluation.SWEEP_KEYS:
        raw = opts.ns.get(key)
        if raw is None and key in opts.file:
            raw = opts.file[key][1]
        if raw is not None:
            grid[key] = _int_list(raw)
    if not grid:
        raise CliError("sweep needs at least one of --z/--t/--m/--gamma/--k")
    try:
        configs = evaluation.sweep_configs(grid, base)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    taxonomy = _taxonomy_for(opts, mode)
    ds = _dataset(opts, base.seed)
    text = evaluation.format_sweep(evaluation.sweep(ds, taxonomy, mode, method, configs))
    out = opts.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)
    return 0


def cmd_gen_synthetic(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    spec = opts.config(evaluation.SyntheticSpec)
    out = opts.get("out", required=True)
    manifest_path, taxonomy_path = evaluation.gen_synthetic(spec, out)
    print(f"wrote {manifest_path} and {taxonomy_path}")
    return 0


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for name in (*_FLAGS[command], "config"):
        dest = _DEST.get(name, name.replace("-", "_"))
        parser.add_argument(f"--{name}", dest=dest, type=_CONVERTERS.get(dest))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semwalk",
        description="Semantic-visual graph embedding and walk-based label inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="train a bow/fv encoder on a manifest")
    _add_flags(p, "encode")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("build-graph", help="build the semantic-visual graph")
    _add_flags(p, "build-graph")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("classify", help="classify query videos against a graph")
    _add_flags(p, "classify")
    p.add_argument("--distributions", action="store_true",
                   help="append the per-class distribution to each line")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="leave-one-person-out evaluation")
    _add_flags(p, "evaluate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid of evaluations over z/t/m/gamma/k")
    for key in evaluation.SWEEP_KEYS:
        p.add_argument(f"--{key}", dest=key, type=str,
                       help=f"comma-separated {key} values")
    _add_flags(p, "sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-synthetic", help="write a planted synthetic dataset")
    _add_flags(p, "gen-synthetic")
    p.set_defaults(func=cmd_gen_synthetic)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except CliError as exc:
        print(f"semwalk: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"semwalk: error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
