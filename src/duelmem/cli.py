"""Command-line entry points.

Subcommands:
  run                train one experiment seed and write its artifacts
  bench-policies     run the same experiment under several eviction policies
  verify             run the built-in invariant checks
  export-embeddings  sample fresh data through a checkpoint's extractor

Exit codes: 0 success, 1 usage or runtime error, 2 failed verification.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ConfigError,
    bench_policies,
    default_config_dict,
    export_embeddings,
    load_config,
    run_experiment,
)
from .verify import run_all

USAGE_ERROR = 1
CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="duelmem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one seed from a JSON config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--seed", type=int, default=None,
        help="override: run this seed instead of the config's first seed",
    )
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser(
        "bench-policies", help="compare eviction policies on one config"
    )
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--out", required=True, help="output directory")
    bench_p.add_argument(
        "--policies", default="duel,fifo,random,reservoir",
        help="comma-separated policy names",
    )
    bench_p.set_defaults(func=_cmd_bench)

    verify_p = sub.add_parser("verify", help="run the invariant check suite")
    verify_p.add_argument(
        "--quick", action="store_true", help="reduced trial counts"
    )
    verify_p.set_defaults(func=_cmd_verify)

    export_p = sub.add_parser(
        "export-embeddings", help="embed fresh stream samples with a checkpoint"
    )
    export_p.add_argument("--ckpt", required=True, help="checkpoint .npz path")
    export_p.add_argument("--out", required=True, help="output CSV path")
    export_p.add_argument("--per-class", type=int, default=100)
    export_p.set_defaults(func=_cmd_export)

    sub.add_parser(
        "show-config", help="print a default config JSON to stdout"
    ).set_defaults(func=_cmd_show_config)
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    result = run_experiment(cfg, seed=seed, out_dir=args.out)
    final = result.final
    probe = "" if final.probe_acc is None else f" probe_acc={final.probe_acc:.4f}"
    print(
        f"seed {seed}: {len(result.rows)} metric rows -> {result.out_dir}\n"
        f"final: loss={final.loss:.4f} mem_entropy={final.class_entropy:.4f}"
        f" dominant_frac={final.dominant_frac:.4f}{probe}"
    )
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    rows = bench_policies(cfg, policies, out_dir=args.out)
    for row in rows:
        if row["seed"] != "mean":
            continue
        print(
            f"{row['policy']:>10}  entropy={row['class_entropy']:.4f}"
            f"  dominant_frac={row['dominant_frac']:.4f}"
            f"  s_inter={row['s_inter']:.4f}  probe_acc={row['probe_acc']:.4f}"
        )
    return 0


def _cmd_verify(args) -> int:
    return 0 if run_all(quick=args.quick) else CHECK_FAILURE


def _cmd_export(args) -> int:
    written = export_embeddings(args.ckpt, args.out, per_class=args.per_class)
    print(f"wrote {written} embeddings to {args.out}")
    return 0


def _cmd_show_config(args) -> int:
    import json

    print(json.dumps(default_config_dict(), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout left early, as `duelmem show-config | head`
        # does. Point stdout at devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except (ConfigError, OSError, ValueError) as exc:
        print(f"duelmem: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
