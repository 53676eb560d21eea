"""Command-line entry point wiring the pipeline end to end.

Machine-readable JSON goes to stdout; human-readable notes go to stderr
under ``--verbose``. Exit codes: 0 success, 1 validation or domain failure,
2 usage error. All randomness flows from ``--seed`` (fallback: the
``GRAPPA_SEED`` environment variable, then 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, metrics
from .antoine import AntoineDomainError, AntoineParams, boiling_temperature
from .featurize import ScopeError, featurize
from .gnn import attention_scores
from .model import (
    Architecture,
    init_model,
    load_checkpoint,
    predict,
    predict_dataset,
    refuse_unknown_keys,
    save_checkpoint,
)
from .smiles import SmilesError, parse_smiles
from .tensor import NonFiniteError
from .train import TrainConfig, TrainingError, fit, grid_search, history_csv

# Options that take a number. argparse reads a value such as ``-5.2e1`` or
# ``-inf`` as an option, so ``main`` joins such a value to its flag.
FLOAT_OPTIONS = ("--A", "--B", "--C", "--pressure", "--temp")
CONFIG_KEYS = frozenset({"data", "format", "splits", "output_model", "history",
                         "arch", "train"})


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GRAPPA_SEED")
    try:
        seed = int(env or 0)
    except ValueError:
        raise ValueError(f"GRAPPA_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"GRAPPA_SEED must not be negative, got {env!r}")
    return seed


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def _json_safe(value):
    """Replace non-finite floats with null so the output stays strict JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(payload, verbose_note: str | None = None, verbose: bool = False):
    print(json.dumps(_json_safe(payload)))
    if verbose and verbose_note:
        print(verbose_note, file=sys.stderr)


def _write_json(path, payload):
    """Write ``payload`` as strict JSON, as :func:`_emit` prints it."""
    Path(path).write_text(json.dumps(_json_safe(payload), indent=2),
                          encoding="utf-8")


# ------------------------------------------------------------------- commands

def _cmd_curate(args) -> int:
    ds = dataio.load(args.input, args.format)
    result = dataio.curate(ds)
    dataio.write_csv(result.dataset, args.output)
    if args.audit:
        dataio.write_audit_jsonl(result.audit, args.audit)
    if args.conflicts:
        _write_json(args.conflicts, result.conflicts)
    summary = {
        "points_in": len(ds),
        "points_kept": len(result.dataset),
        "points_dropped": len(ds) - len(result.dataset),
        "rows_rejected_on_load": len(ds.rejects),
        "conflicts": len(result.conflicts),
        "audit_rules": Counter(e["rule"] for e in result.audit),
        "output": str(args.output),
    }
    note = "\n".join(f"{e['rule']}: row={e['row']} component={e['component']}"
                     for e in result.audit)
    _emit(summary, note, args.verbose)
    return 0


def _cmd_split(args) -> int:
    ds = dataio.load(args.input, args.format)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    labeled = dataio.split(ds, _seed_from(args), ratios)
    dataio.write_splits_csv(labeled, args.output)
    counts = Counter(labeled.split_label(c) for c in labeled.components())
    # split leaves only the components whose SMILES does not parse unlabelled.
    skipped = Counter("smiles" for c in labeled.components()
                      if c not in labeled.splits)
    _emit({"components": counts, "components_skipped": skipped,
           "output": str(args.output),
           "rows_rejected_on_load": len(ds.rejects)}, None, args.verbose)
    return 0


def _cmd_fit_antoine(args) -> int:
    ds = dataio.load(args.input, args.format)
    groups = ds.by_component()
    if args.component:
        if args.component not in groups:
            raise ValueError(f"unknown component {args.component!r}")
        groups = {args.component: groups[args.component]}
    windows = {}
    skipped = []
    for component, points in sorted(groups.items()):
        t, p = dataio._window(points)
        if args.component:
            dataio.require_fit_window(t, f"component {component!r}")
        elif not dataio.fit_window_ok(t):
            skipped.append(component)
            continue
        windows[component] = (t, p)
    fits = dataio.robust_antoine_fits(list(windows.values()))
    rows = [{"component_id": c, "A": res.params.A, "B": res.params.B,
             "C": res.params.C, "cost": res.cost, "converged": res.converged,
             "n_points": len(t)}
            for (c, (t, _)), res in zip(windows.items(), fits)]
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else
                                    ["component_id", "A", "B", "C", "cost",
                                     "converged", "n_points"])
            writer.writeheader()
            writer.writerows(rows)
    _emit({"fits": rows, "skipped": skipped,
           "rows_rejected_on_load": len(ds.rejects)}, None, args.verbose)
    return 0


def _training_setup(args):
    """The run config, its training settings and the labelled dataset."""
    with open(args.config, encoding="utf-8-sig") as fh:
        config = json.load(fh)
    if not isinstance(config, dict) or "data" not in config:
        raise ValueError("the config must be an object with a 'data' path")
    refuse_unknown_keys("config", config, CONFIG_KEYS)
    for key in ("data", "splits", "output_model", "history"):
        if not isinstance(config.get(key, ""), str):
            raise ValueError(f"config {key!r} must be a path, got {config[key]!r}")
    cfg = TrainConfig.from_dict(config.get("train", {}))
    if args.seed is not None or os.environ.get("GRAPPA_SEED"):
        cfg = replace(cfg, seed=_seed_from(args))
    ds = dataio.load(config["data"], config.get("format", "csv"))
    if "splits" in config:
        ds.splits = dataio.read_splits_csv(config["splits"])
    return config, cfg, ds


def _cmd_train(args) -> int:
    config, cfg, ds = _training_setup(args)
    arch = Architecture.from_dict(config.get("arch", {}))
    model = init_model(arch, seed=np.random.SeedSequence([cfg.seed, 0]))
    result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
    model_path = config.get("output_model", "model.json")
    save_checkpoint(model, model_path)
    history_path = config.get("history", "history.csv")
    Path(history_path).write_text(history_csv(result.history), encoding="utf-8")
    _emit({
        "best_epoch": result.best_epoch,
        "best_valid_mape_i": result.best_valid_mape_i,
        "model": str(model_path),
        "history": str(history_path),
        "trainable_parameters": model.parameter_count(),
        "rows_rejected_on_load": len(ds.rejects),
    }, f"trained {len(result.history)} epochs", args.verbose)
    return 0


def _cmd_grid_search(args) -> int:
    _, cfg, ds = _training_setup(args)
    rows = grid_search(cfg, ds.subset("train"), ds.subset("valid"),
                       jobs=args.jobs)
    if args.output:
        _write_table_csv(rows, args.output)
    _emit({"cells": len(rows), "ranking": rows,
           "rows_rejected_on_load": len(ds.rejects)}, None, args.verbose)
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    result = predict(model, args.smiles, temperatures=args.temp)
    payload = {"A": result.params.A, "B": result.params.B, "C": result.params.C}
    if args.temp is not None:
        payload["ln_p_kPa"] = result.ln_p_kpa
        payload["p_Pa"] = result.p_pa
    _emit(payload, f"{args.smiles} at T={args.temp} K", args.verbose)
    return 0


def _cmd_boil(args) -> int:
    direct = [args.A, args.B, args.C]
    if args.model and args.smiles:
        model = load_checkpoint(args.model)
        result = predict(model, args.smiles, boil_pressure_pa=args.pressure)
        payload = {"A": result.params.A, "B": result.params.B,
                   "C": result.params.C, "T_b_K": result.boiling_k}
    elif all(v is not None for v in direct):
        params = AntoineParams(*direct)
        payload = {"T_b_K": boiling_temperature(params, args.pressure)}
    else:
        raise ValueError("boil needs either --model and --smiles, or all of "
                         "--A/--B/--C")
    _emit(payload, None, args.verbose)
    return 0


def _predict_split(args):
    """Points and parameters of the checkpoint's predictions on one split,
    and the number of rows rejected on load."""
    model = load_checkpoint(args.model)
    ds = dataio.load(args.data, args.format)
    if args.splits:
        ds.splits = dataio.read_splits_csv(args.splits)
    points, params = predict_dataset(model, ds, args.split)
    if not points:
        raise ValueError(f"no points in split {args.split!r}")
    return points, params, len(ds.rejects)


def _cmd_evaluate(args) -> int:
    points, params, rejected = _predict_split(args)
    report = metrics.summarize(points)
    boiling = metrics.boiling_point_eval(params, points)
    payload = {"split": args.split, "metrics": report.to_dict(),
               "boiling": {"mae_k": boiling.mae_k,
                           "mean_rel_err_pct": boiling.mean_rel_err_pct,
                           "n_components": boiling.n_components},
               "rows_rejected_on_load": rejected}
    _emit(payload, None, args.verbose)
    return 0


def _write_table_csv(rows: list[dict], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _cmd_report(args) -> int:
    points, params, rejected = _predict_split(args)
    kept = points.select(points.sizes >= args.min_points)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = metrics.summarize(points)
    bins = metrics.binned_reports(kept)
    grid = metrics.hexbin_grid(kept)
    boiling = metrics.boiling_point_eval(params, points)
    _write_json(outdir / "metrics.json", report.to_dict())
    _write_json(outdir / "binned.json", bins.to_dict())
    for table in ("pressure", "temperature", "mol_weight", "min_points"):
        _write_table_csv(getattr(bins, table), outdir / f"ape_by_{table}.csv")
    _write_table_csv(grid, outdir / "hexbin.csv")
    _write_json(outdir / "boiling.json", boiling.to_dict())
    files = sorted(str(p.name) for p in outdir.iterdir())
    _emit({"outdir": str(outdir), "files": files,
           "rows_rejected_on_load": rejected}, None, args.verbose)
    return 0


def _cmd_attention(args) -> int:
    model = load_checkpoint(args.model)
    mol = parse_smiles(args.smiles)
    graph = featurize(mol)
    scores = attention_scores(graph, model.gat)
    payload = {
        "smiles": args.smiles,
        "scores": [
            {"atom": i, "element": mol.atoms[i].element, "score": float(s)}
            for i, s in enumerate(scores)
        ],
    }
    _emit(payload, None, args.verbose)
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grappa",
        description="Vapor-pressure prediction from molecular structure.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="human-readable notes on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_seed(p):
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="random seed (fallback: GRAPPA_SEED, then 0)")

    p = sub.add_parser("curate", help="filter a raw dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", required=True)
    p.add_argument("--audit", help="JSONL audit log path")
    p.add_argument("--conflicts", help="per-source conflict report path")
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("split", help="assign component-wise split labels")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", required=True, help="splits CSV path")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    common_seed(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("fit-antoine", help="robust per-component curve fits")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--component", help="fit a single component")
    p.add_argument("--output", help="CSV of fitted parameters")
    p.set_defaults(func=_cmd_fit_antoine)

    p = sub.add_parser("train", help="two-phase training from a config file")
    p.add_argument("--config", required=True)
    common_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid-search", help="hyperparameter grid search")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--output", help="CSV of the ranking")
    common_seed(p)
    p.set_defaults(func=_cmd_grid_search)

    p = sub.add_parser("predict", help="Antoine parameters for a molecule")
    p.add_argument("--model", required=True)
    p.add_argument("--smiles", required=True)
    p.add_argument("--temp", type=float, help="temperature in K")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("boil", help="boiling temperature at a pressure")
    p.add_argument("--model")
    p.add_argument("--smiles")
    p.add_argument("--A", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--pressure", type=float, required=True, help="Pa")
    p.set_defaults(func=_cmd_boil)

    p = sub.add_parser("evaluate", help="metrics on a labeled split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--splits", help="splits CSV from the split command")
    p.add_argument("--split", default="test")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("attention", help="per-atom attention scores")
    p.add_argument("--model", required=True)
    p.add_argument("--smiles", required=True)
    p.set_defaults(func=_cmd_attention)

    p = sub.add_parser("report", help="binned evaluation tables and grids")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--splits", help="splits CSV from the split command")
    p.add_argument("--split", default="test")
    p.add_argument("--min-points", type=_int_at_least(1), default=2,
                   help="min points per component for the binned tables")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list[str]) -> list[str]:
    """``argv`` with each value that follows a :data:`FLOAT_OPTIONS` flag,
    starts with ``-`` and parses as a float joined to it: ``--C=-5.2e1``."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in FLOAT_OPTIONS and token.startswith("-") \
                and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # No numpy warning may print beside the one ``error:`` line.
        with np.errstate(all="ignore"):
            return args.func(args)
    # A JSON document nested deeper than the decoder recurses (a checkpoint
    # or a config) raises RecursionError; an allocation the machine cannot
    # serve raises MemoryError, whose message may be empty.
    except (SmilesError, ScopeError, AntoineDomainError, NonFiniteError,
            TrainingError, ValueError, OSError, RecursionError,
            MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
