"""Command-line surface: synth | train | eval | gradcheck | benchmark.

Exit codes: 0 success, 2 bad usage or input, 3 io failure, 4 numeric
divergence during training, 5 gradient check exceeded its bound. Every
command is deterministic given its flags; seeds are always explicit flags
or config entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import (
    FeatureStats,
    SplitPlan,
    default_synth_spec,
    load_views,
    preprocess,
    save_views,
    synth_generate,
)
from .errors import MvclError, NumericDivergence
from .evaluate import accuracies, benchmark, default_d_sweep, paired_rows, report_to_csv, report_to_dict
from .grad import finite_diff_check, grad_wrt_F, grad_wrt_P, random_instance
from .loss import HyperParams, total_loss
from .optim import AdamParams, TrainConfig, from_json, load_model, read_json, save_model, train, write_json

GRADCHECK_BOUND = 1e-5
CONFIG_SCHEMA_VERSION = 1
# The --config file's sections and their kinds (see ``optim.from_json``): 'hyper' must set d, and any other
# section or key left out takes its default.
CONFIG_FILE = {
    "schema_version": int,
    "hyper": HyperParams,
    "adam": AdamParams,
    "train": {k: kind for k, kind in get_type_hints(TrainConfig).items() if k not in ("hp", "adam")},
    "preprocess": {k: kind for k, kind in get_type_hints(FeatureStats).items() if k in ("center", "unit_variance")},
}


def _given(**flags) -> dict:
    """The flags that were set: a flag left unset (None) takes its dataclass default."""
    return {k: v for k, v in flags.items() if v is not None}


def _hyper(hp: HyperParams, args, d: int | None = None) -> HyperParams:
    """``hp`` under ``d`` and the objective flags: --alpha, --beta and --sigma, which sets all three temperatures."""
    s = args.sigma
    return dataclasses.replace(hp, **_given(d=d, alpha=args.alpha, beta=args.beta, sigma1=s, sigma2=s, sigma3=s))


def _comma_list(text: str, flag: str, kind=str) -> tuple:
    """The entries of the comma list ``text``, blank ones skipped, each read as a ``kind`` (str or int)."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of integers, got {text!r}") from None


def _out_path(path: str | Path, flag: str, *taken) -> Path:
    """An output's path that is none of the paths ``taken``, resolved or as a file (a hard link), before any work."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"{flag} {out} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"{flag} {out}: no directory {out.parent}")
    taken = [Path(p) for p in taken if p is not None]
    linked = out.exists() and any(p.exists() and out.samefile(p) for p in taken)
    if linked or out.resolve() in {p.resolve() for p in taken}:
        raise ValueError(f"{flag} {out} would overwrite an input or another output")
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    dims = _comma_list(args.dims, "--dims", int) if args.dims else None
    spec = dataclasses.replace(default_synth_spec(seed=args.seed), **_given(
        classes=args.classes, per_class=args.per_class, dims=dims, shared_dims=args.shared,
        specific_dims=args.specific, redundant_copies=args.redundant, noise_std=args.noise))
    ds = synth_generate(spec)
    outdir = Path(args.out)
    written = save_views(ds, outdir)
    write_json(outdir / "spec.json", dataclasses.asdict(spec) | {"schema_version": 1})
    print(f"wrote {len(written) + 1} files to {outdir} (n={ds.n}, dims={list(ds.dims)})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_config(args) -> tuple[TrainConfig, dict]:
    """Defaults < the --config file < flags: the config and the preprocess flags (center, unit_variance)."""
    if args.config:
        obj = read_json(args.config)
        if not isinstance(obj, dict) or obj.get("schema_version") != CONFIG_SCHEMA_VERSION:
            raise ValueError("config must be a JSON object declaring schema_version = 1")
        file = from_json(obj, CONFIG_FILE, "config", required=["hyper"])
    elif args.d is None:
        raise ValueError("subspace dimension required: pass --d or a config file")
    else:
        file = {"hyper": HyperParams(d=args.d)}
    cfg = TrainConfig(file["hyper"], file.get("adam", AdamParams()), **file.get("train", {}))
    cfg = dataclasses.replace(cfg, hp=_hyper(cfg.hp, args, args.d),
                              **_given(max_iters=args.max_iters, tol=args.tol, seed=args.seed))
    pre = {"center": True, "unit_variance": False} | file.get("preprocess", {})
    return cfg, pre | _given(center=args.center, unit_variance=args.unit_variance)


def _cmd_train(args) -> int:
    inputs = (*_comma_list(args.views, "--views"), args.config)
    out = _out_path(args.out, "--out", *inputs)
    report_path = _out_path(args.report or out.with_suffix(".report.json"), "--report", out, *inputs)
    ds = load_views(inputs[:-1], header=args.header)
    cfg, pre = _train_config(args)
    ds_p, stats = preprocess(ds, **pre)
    P, F, report = train(ds_p, cfg)

    save_model(out, P, F, stats, cfg)
    write_json(report_path, dataclasses.asdict(report) | {
        "schema_version": 1,
        "variant": "CMC-ablation" if cfg.hp.alpha == cfg.hp.beta == 0.0 else "triple-head",
        "final_loss": report.losses[-1],
        "initial_loss": report.losses[0],
        "preprocessing": pre,
        "config": dataclasses.asdict(cfg),
    })
    print(
        f"final_loss={report.losses[-1]:.6f} converged={report.converged} "
        f"iterations={report.iterations} model={out}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    P, _, stats, _ = load_model(args.model)
    gallery = load_views(_comma_list(args.train_views, "--train-views"), args.train_labels, header=args.header)
    query = load_views(_comma_list(args.views, "--views"), args.labels, header=args.header)
    P.check(gallery, P.d)  # before the stats are applied, so that the message names the projection
    if stats is not None:
        gallery, _ = preprocess(gallery, stats=stats)
        query, _ = preprocess(query, stats=stats)

    accs = accuracies(P, gallery, query)
    for label in ["II"] if args.strategy == "fused" else [k for k in accs if k != "II"]:
        print(f"{label} accuracy={accs[label]:.2f}%")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _cmd_gradcheck(args) -> int:
    dims = _comma_list(args.dims, "--dims", int)
    if len(dims) != args.views:
        raise ValueError(f"--dims names {len(dims)} views but --views is {args.views}")
    ds, P, F = random_instance(args.seed, V=args.views, n=args.n, dims=dims, d=args.d)
    hp = _hyper(HyperParams(d=args.d), args)
    dP = grad_wrt_P(P, F, ds, hp)
    dF = grad_wrt_F(P, F, ds, hp)

    failures = []
    for name, S, grads in (("P", P, dP), ("F", F, dF)):
        for m in range(ds.V):
            def objective(mat, S=S, m=m):
                mats = list(S.mats)
                mats[m] = mat
                moved = type(S)(tuple(mats))
                return total_loss(moved, F, ds, hp) if S is P else total_loss(P, moved, ds, hp)

            err = finite_diff_check(objective, S.mats[m], grads[m], h=args.h)
            print(f"{name}[{m}] max_rel_err={err:.3e}")
            if err > GRADCHECK_BOUND:
                failures.append(f"{name}[{m}]")

    if failures:
        print(f"FAIL: blocks over {GRADCHECK_BOUND:g}: {', '.join(failures)}", file=sys.stderr)
        return 5
    print(f"OK: all blocks within {GRADCHECK_BOUND:g}")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _cmd_benchmark(args) -> int:
    if args.train_seed < 0:  # the split seed --seed may be negative, so name the flag
        raise ValueError(f"--train-seed must be >= 0, got {args.train_seed}")
    data = Path(args.data)
    views, labels = sorted(data.glob("view*.csv")), data / "labels.csv"
    out = _out_path(args.out, "--out", *views, labels)
    twin = _out_path(out.with_suffix(".json"), "--out", out, *views, labels)
    if not views or not labels.exists():
        raise ValueError(f"{data}: expected view*.csv files and labels.csv")
    ds = load_views(views, labels, header=args.header)
    plan = SplitPlan(M=args.M, **_given(repeats=args.repeats, seed=args.seed))
    sweep = list(_comma_list(args.d_sweep, "--d-sweep", int)) if args.d_sweep else default_d_sweep(ds.dims)
    if not sweep:
        raise ValueError("empty d sweep; pass --d-sweep")
    hp = _hyper(HyperParams(d=sweep[0]), args)
    cfg = TrainConfig(hp=hp, max_iters=args.max_iters, seed=args.train_seed, **_given(tol=args.tol))

    report = benchmark(ds, cfg, plan, d_sweep=sweep)
    ablation = None
    if args.ablate == "cmc":
        cfg0 = dataclasses.replace(cfg, hp=dataclasses.replace(hp, alpha=0.0, beta=0.0))
        ablation = benchmark(ds, cfg0, plan, d_sweep=sweep)

    csv_text = report_to_csv(report, ablation)
    payload = {"report": report_to_dict(report)}
    if ablation is not None:
        payload["ablation"] = report_to_dict(ablation)

    with open(out, "w", newline="") as fh:
        fh.write(csv_text)
    write_json(twin, payload)

    for row, ab, diff in paired_rows(report, ablation):
        line = f"{row.label:>6}  {row.mean_acc:6.2f} +- {row.std_acc:5.2f}  (d={row.d})"
        if ab is not None:
            line += f"   vs ablation {ab.mean_acc:6.2f} +- {ab.std_acc:5.2f}  diff={diff:+.2f}"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which ``main`` reports in one line with
    exit code 2, instead of printing the usage and raising SystemExit; ``--help`` still exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvcl",
        description="Multi-view linear feature extraction with triple contrastive heads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the objective's flags, unset by default: an unset one takes its HyperParams default
    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument("--alpha", type=float, default=None)
    objective.add_argument("--beta", type=float, default=None)
    objective.add_argument("--sigma", type=float, default=None, help="sets all three temperatures")

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--dims", type=str, default=None, help="comma list of per-view dims")
    p.add_argument("--shared", type=int, default=None, help="dims shared across views")
    p.add_argument("--specific", type=int, default=None, help="view-specific signal dims")
    p.add_argument("--redundant", type=int, default=None, help="duplicated shared dims")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", parents=[objective], help="fit projections on view CSVs")
    p.add_argument("--views", type=str, required=True, help="comma list of view CSVs")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, required=True, help="model JSON path")
    p.add_argument("--report", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--unit-variance", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--header", action="store_true", help="view CSVs carry a header row")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="1-NN accuracy of a trained model")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--views", type=str, required=True, help="query view CSVs")
    p.add_argument("--labels", type=str, required=True)
    p.add_argument("--train-views", type=str, required=True, help="gallery view CSVs")
    p.add_argument("--train-labels", type=str, required=True)
    p.add_argument("--strategy", choices=["per-view", "fused"], default="per-view")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", parents=[objective], help="certify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--dims", type=str, default="6,5")
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("benchmark", parents=[objective], help="repeated-split 1-NN benchmark")
    p.add_argument("--data", type=str, required=True, help="directory with view*.csv and labels.csv")
    p.add_argument("--M", type=int, required=True, help="training samples per class")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--d-sweep", type=str, default=None, help="comma list of subspace dims")
    p.add_argument("--seed", type=int, default=None, help="split seed")
    p.add_argument("--train-seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--ablate", choices=["cmc"], default=None)
    p.add_argument("--out", type=str, required=True, help="report CSV path")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # non-finite results are checked
            return args.func(args)
    except NumericDivergence as e:
        print(f"error: {e} (iteration {e.iteration})", file=sys.stderr)
        return 4
    except (MvclError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
