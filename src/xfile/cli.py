"""Command line interface.

Subcommands: ``prior`` (simulate the prior on the number of factors),
``fit`` (fit a data matrix), ``predict`` (predictions from a saved model),
``simulate`` (synthetic benchmark), ``export`` (interpretation exports).
Every run that writes files also writes config_used.json with the resolved
configuration.  All randomness descends from the --seed flag: the fit
spawns one stream per (factor, restart), the benchmark one stream per
replicate, so identical seeds reproduce outputs bit for bit.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .io import (
    export_analysis,
    load_matrix,
    load_model,
    load_side_info,
    save_model,
    write_fit_outputs,
)
from .model import Transform, hyperparams_from_dict, hyperparams_to_dict
from .optimizer import fit, predict_matrix
from .shrinkage import (
    ShrinkageParams,
    default_truncation,
    expected_rank,
    simulate_rank_pmf,
)
from .simulate import ScenarioSpec, run_experiment, run_grid_search

__all__ = ["main", "build_parser"]


def _write_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_used.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def _load_json(path):
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _cmd_prior(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    params = ShrinkageParams(alpha=args.alpha, delta=args.delta)
    trunc = args.trunc if args.trunc is not None else default_truncation(params)
    rng = np.random.default_rng(args.seed)
    ks, probs = simulate_rank_pmf(params, trunc, args.draws, rng)
    mean = expected_rank(params)
    lines = ["k,probability"] + [f"{k},{p:.17g}" for k, p in zip(ks, probs)]
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
        _write_config(out.resolve().parent, {
            "command": "prior", "alpha": args.alpha, "delta": args.delta,
            "draws": args.draws, "trunc": trunc, "seed": args.seed,
            "out": str(args.out),
        })
        print(f"E[k] = {mean}")
    else:
        print(f"# E[k] = {mean}")
        print("\n".join(lines))
    return 0


def _cmd_fit(args) -> int:
    transform = Transform(args.transform)
    hp = hyperparams_from_dict(_load_json(args.config))
    if args.seed is not None:
        hp = hp.with_seed(args.seed)
    data = load_matrix(args.data, has_header=args.header, transform=transform)
    n, p = data.shape
    print(f"loaded {n} x {p} matrix with {int(data.mask.sum())} observed cells")
    side = load_side_info(args.covariates, args.metacovariates, n, p, has_header=args.header)
    result = fit(data, side, hp)
    out = Path(args.out_dir)
    save_model(out, result, side, transform, hp.eps_frelu)
    write_fit_outputs(out, result, side, transform, hp.eps_frelu)
    _write_config(out, {
        "command": "fit",
        "data": str(args.data),
        "covariates": str(args.covariates) if args.covariates else None,
        "metacovariates": str(args.metacovariates) if args.metacovariates else None,
        "transform": transform.value,
        "header": bool(args.header),
        "hyper": hyperparams_to_dict(hp),
    })
    print(f"fitted rank {result.rank}; outputs in {out}")
    return 0


def _cmd_predict(args) -> int:
    result, side, transform, eps = load_model(args.model)
    pred = predict_matrix(result, side, eps, transform)
    request = load_matrix(args.mask)
    if request.shape != pred.shape:
        raise ValueError(f"mask shape {request.shape} does not match model shape {pred.shape}")
    wanted = request.mask & (request.values != 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write("row,col,prediction\n")
        for i, j in np.argwhere(wanted):
            fh.write(f"{i},{j},{pred[i, j]:.17g}\n")
    _write_config(out.resolve().parent, {
        "command": "predict", "model": str(args.model), "mask": str(args.mask),
        "out": str(args.out),
    })
    print(f"wrote {int(wanted.sum())} predictions to {out}")
    return 0


def _cmd_simulate(args) -> int:
    raw = _load_json(args.scenario)
    unknown = set(raw) - {f.name for f in fields(ScenarioSpec)}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    spec = ScenarioSpec(**raw)
    hp = hyperparams_from_dict(_load_json(args.config))
    tuning = None
    if args.grid is not None:
        hp, trials = run_grid_search(spec, hp, _load_json(args.grid))
        tuning = trials
    report = run_experiment(spec, hp)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_csv())
    payload = {
        "command": "simulate",
        "scenario": asdict(spec),
        "hyper": hyperparams_to_dict(hp),
        "summary": report.summary(),
    }
    if tuning is not None:
        payload["grid_trials"] = tuning
    _write_config(out.resolve().parent, payload)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    result, side, transform, eps = load_model(args.model)
    export_analysis(
        result, side, args.out_dir, eps_frelu=eps,
        grid_rows=args.grid_rows, grid_cols=args.grid_cols,
        squared_scale=args.squared_scale,
    )
    _write_config(Path(args.out_dir), {
        "command": "export", "model": str(args.model),
        "grid_rows": args.grid_rows, "grid_cols": args.grid_cols,
        "squared_scale": bool(args.squared_scale),
    })
    print(f"analysis exports written to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xfile",
        description="Stage-wise MAP matrix factorization with structured shrinkage priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prior = sub.add_parser("prior", help="simulate the prior on the number of factors")
    p_prior.add_argument("--alpha", type=float, required=True)
    p_prior.add_argument("--delta", type=float, default=0.0)
    p_prior.add_argument("--draws", type=int, default=100_000)
    p_prior.add_argument("--trunc", type=int, default=None)
    p_prior.add_argument("--seed", type=int, default=0)
    p_prior.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    p_prior.set_defaults(func=_cmd_prior)

    p_fit = sub.add_parser("fit", help="fit a data matrix")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--covariates", default=None)
    p_fit.add_argument("--metacovariates", default=None)
    p_fit.add_argument("--config", default=None, help="HyperParams JSON")
    p_fit.add_argument("--transform", choices=["identity", "nonneg"], default="identity")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--header", action="store_true", help="CSV inputs carry a header row")
    p_fit.add_argument("--out-dir", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predictions from a saved model")
    p_pred.add_argument("--model", required=True, help="fit output directory")
    p_pred.add_argument("--mask", required=True,
                        help="0/1 CSV marking the cells to predict")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="synthetic benchmark")
    p_sim.add_argument("--scenario", required=True, help="ScenarioSpec JSON")
    p_sim.add_argument("--config", default=None, help="HyperParams JSON")
    p_sim.add_argument("--grid", default=None, help="tuning grid JSON")
    p_sim.add_argument("--out", required=True, help="report CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("export", help="interpretation exports of a saved model")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.add_argument("--grid-rows", type=int, default=None)
    p_exp.add_argument("--grid-cols", type=int, default=None)
    p_exp.add_argument("--squared-scale", action="store_true")
    p_exp.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
