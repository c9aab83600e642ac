"""Single executable exposing the pipeline.

Subcommands::

    encode         train an encoder (codebook or mixture) on a manifest
    build-graph    encode a manifest and build the semantic-visual graph
    classify       classify query videos against a prebuilt graph
    evaluate       leave-one-person-out evaluation, one report file
    sweep          grid of evaluations over z / t / m / gamma / k
    gen-synthetic  write a planted synthetic dataset + taxonomy

Each subcommand's options are the `EvalConfig`, `SyntheticSpec` or
`WalkConfig` fields it sets (``encode`` takes
`evaluation.ENCODER_FIELDS`) plus a few path and choice flags; an
option is named after its field, or as `evaluation.OPTION_NAMES` says.
Options may also come from a ``--config`` file of ``key=value`` lines;
explicit flags win.  A subcommand reads only its own keys from the file
and ignores the other subcommands' keys, so one file can serve several.
An option set neither way takes the default of the field it sets.  All
randomness is controlled by ``--seed``.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Callable

from . import encoding, evaluation, graph, inference, semantics
from .dataset import (
    Dataset, annotation_for, atomic_write_text, parse_manifest, read_lines, sample_segments,
)

# Numeric defaults live in the dataclasses; the CLI only borrows their types.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    f.name: type(f.default)
    for cls in (evaluation.EvalConfig, evaluation.SyntheticSpec, inference.WalkConfig)
    for f in fields(cls)
} | {"gamma": int, "sample": int}


class CliError(Exception):
    """Usage-level failure; message is printed as a one-line diagnostic."""


def _names(cls, skip: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The fields of `cls` not in `skip`, in order."""
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def _typed(*names: str) -> dict[str, Callable[[str], object]]:
    """Each setting with its converter: its field's type, else str."""
    return {name: _CONVERTERS.get(name, str) for name in names}


def _key(name: str) -> str:
    """The config-file key of setting `name`; its option is ``--`` and
    the key with ``_`` spelled ``-``."""
    return evaluation.OPTION_NAMES.get(name, name)


def _int_list(text: str) -> list[int]:
    """The integers of a comma-separated list: one sweep grid axis."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _load_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Config key -> (``path: line N: key`` of the setting, raw value)."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(read_lines(path)[0], 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = (f"{path}: line {lineno}: {key}", value)
    return values


def _settings(ns: argparse.Namespace) -> dict[str, object]:
    """The subcommand's own settings: each one's flag, else its config-file
    line converted as the flag is, else None.  The file's other keys are
    neither converted nor checked."""
    _, _, settings = _COMMANDS[ns.command]
    file = _load_config_file(ns.config) if ns.config else {}
    values = {}
    for name, convert in settings.items():
        value = getattr(ns, name)
        if value is None and _key(name) in file:
            where, raw = file[_key(name)]
            try:
                value = convert(raw)
            except ValueError:
                raise CliError(f"{where}: expected {convert.__name__}, got {raw!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise CliError(f"{where}: {exc}") from None
        values[name] = value
    return values


def _required(opts: dict[str, object], name: str):
    if opts[name] is None:
        raise CliError(f"missing required --{name}")
    return opts[name]


def _choice(opts: dict[str, object], name: str, default: str, choices: tuple[str, ...]) -> str:
    value = default if opts[name] is None else opts[name]
    if value not in choices:
        raise CliError(f"unknown --{name} {value!r}; choose from {'|'.join(choices)}")
    return value


def _config(cls, opts: dict[str, object]):
    """`cls` from the settings that are set; the rest keep its defaults."""
    try:
        return cls(**{name: opts[name] for name in _names(cls) if opts.get(name) is not None})
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _taxonomy_for(opts: dict[str, object], mode: str) -> semantics.Taxonomy | None:
    path = opts["taxonomy"]
    if path is None:
        if mode in semantics.MEANING_MODES:
            raise CliError(f"missing required --taxonomy (mode {mode!r} needs one)")
        return None
    return semantics.parse_taxonomy(path)


def _dataset(opts: dict[str, object], seed: int) -> Dataset:
    """The manifest's segments, cut to a seeded ``--sample`` when one is set."""
    sample = opts["sample"]
    if sample is not None and sample < 1:
        raise CliError(f"sample size must be >= 1, got {sample}")
    ds = parse_manifest(_required(opts, "manifest"))
    return ds if sample is None else sample_segments(ds, sample, seed)


def cmd_encode(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    config = _config(evaluation.EvalConfig, opts)
    ds = parse_manifest(_required(opts, "manifest"))
    model = evaluation.train_encoder(ds, config, config.seed)
    out = _required(opts, "out")
    encoding.save_model(model, out)
    print(f"saved {config.encoding} model (gamma={config.gamma}, dim={model.dim}) to {out}")
    return 0


def cmd_build_graph(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    mode = _choice(opts, "mode", semantics.VERB, semantics.MODES)
    taxonomy = _taxonomy_for(opts, mode)
    model = encoding.load_model(_required(opts, "model"))
    ds = parse_manifest(_required(opts, "manifest"))
    nodes = evaluation.graph_nodes(ds, evaluation.encode_segments(ds, model), mode)
    svg = graph.build_svg(nodes, taxonomy, mode, _config(evaluation.EvalConfig, opts).m)
    out = _required(opts, "out")
    graph.save_graph(svg, out)
    print(f"built graph: {len(svg)} nodes, {len(svg.ends)} edges -> {out}")
    return 0


def cmd_classify(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    structure = graph.load_graph(_required(opts, "graph"))
    # The graph dump records its relation mode; an explicit --mode (or
    # config value) must agree with it.
    mode = opts["mode"] or structure.mode
    if mode != structure.mode:
        raise CliError(
            f"--mode {mode!r} conflicts with graph mode {structure.mode!r}"
        )
    taxonomy = _taxonomy_for(opts, mode)
    model = encoding.load_model(_required(opts, "model"))
    train = parse_manifest(_required(opts, "manifest"))
    svg = graph.with_vectors(structure, evaluation.encode_segments(train, model))
    transitions = graph.normalize_transitions(svg)
    queries = parse_manifest(_required(opts, "queries"))

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

    walk = _config(inference.WalkConfig, opts)
    vectors = encoding.stack(list(evaluation.encode_segments(queries, model).values()))
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
    if opts["out"] is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(opts["out"], text)
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    mode = _choice(opts, "mode", semantics.VERB, semantics.MODES)
    method = _choice(opts, "method", evaluation.SEMBED, evaluation.METHODS)
    config = _config(evaluation.EvalConfig, opts)
    taxonomy = _taxonomy_for(opts, mode)
    ds = _dataset(opts, config.seed)
    report = evaluation.run_lopo(ds, taxonomy, mode, method, config)
    out = _required(opts, "out")
    evaluation.write_report(report, out)
    print(f"accuracy={report.accuracy!r}")
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    mode = _choice(opts, "mode", semantics.VERB, semantics.MODES)
    method = _choice(opts, "method", evaluation.SEMBED, evaluation.METHODS)
    # The grid keys hold lists, not single values.
    grid = {key: opts.pop(key) for key in evaluation.SWEEP_KEYS}
    base = _config(evaluation.EvalConfig, opts)
    grid = {key: values for key, values in grid.items() if values is not None}
    if not grid:
        raise CliError("sweep needs at least one of --z/--t/--m/--gamma/--k")
    try:
        configs = evaluation.sweep_configs(grid, base)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    taxonomy = _taxonomy_for(opts, mode)
    ds = _dataset(opts, base.seed)
    text = evaluation.format_sweep(evaluation.sweep(ds, taxonomy, mode, method, configs))
    if opts["out"] is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(opts["out"], text)
    return 0


def cmd_gen_synthetic(ns: argparse.Namespace) -> int:
    opts = _settings(ns)
    spec = _config(evaluation.SyntheticSpec, opts)
    out = _required(opts, "out")
    manifest_path, taxonomy_path = evaluation.gen_synthetic(spec, out)
    print(f"wrote {manifest_path} and {taxonomy_path}")
    return 0


# Each subcommand: its help line, its function and its settings, each
# with the converter of its flag and config-file key (every subcommand
# also takes --config).
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], dict]] = {
    "encode": (
        "train a bow/fv encoder on a manifest", cmd_encode,
        _typed("manifest", *evaluation.ENCODER_FIELDS, "out"),
    ),
    "build-graph": (
        "build the semantic-visual graph", cmd_build_graph,
        _typed("manifest", "taxonomy", "mode", "model", "m", "out"),
    ),
    "classify": (
        "classify query videos against a graph", cmd_classify,
        _typed("graph", "manifest", "queries", "model", "taxonomy", "mode",
               *_names(inference.WalkConfig), "out"),
    ),
    "evaluate": (
        "leave-one-person-out evaluation", cmd_evaluate,
        _typed("manifest", "taxonomy", "mode", "method", *_names(evaluation.EvalConfig),
               "sample", "out"),
    ),
    "sweep": (
        "grid of evaluations over z/t/m/gamma/k", cmd_sweep,
        dict.fromkeys(evaluation.SWEEP_KEYS, _int_list)
        | _typed("manifest", "taxonomy", "mode", "method",
                 *_names(evaluation.EvalConfig, skip=evaluation.SWEEP_KEYS), "sample", "out"),
    ),
    "gen-synthetic": (
        "write a planted synthetic dataset", cmd_gen_synthetic,
        _typed(*_names(evaluation.SyntheticSpec), "out"),
    ),
}

# A config file may hold any subcommand's key, so one file can serve several.
_CONFIG_KEYS = frozenset(_key(name) for _, _, names in _COMMANDS.values() for name in names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semwalk",
        description="Semantic-visual graph embedding and walk-based label inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, run, settings) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=run)
        for name, convert in settings.items():
            key = _key(name)
            p.add_argument(
                f"--{key.replace('_', '-')}", dest=name, metavar=key.upper(), type=convert,
                help=f"comma-separated {name} values" if convert is _int_list else None,
            )
        p.add_argument("--config")
        if command == "classify":
            p.add_argument("--distributions", action="store_true",
                           help="append the per-class distribution to each line")
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
