"""Command-line surface.

Subcommands: gen, rip, code, equiv, kappa, learn, verify, experiment.
Matrices travel in the shared text format; reports are one-line JSON from json's C encoder
(`learn` and `experiment` also write convergence traces as CSV). Each subcommand takes
only the flags it reads. Exit codes: 0 success, 2 bad arguments or an
unknown flag, 3 capacity error, 4 hypothesis violation, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

import numpy as np

from .coding import DEFAULT_CODING_TOL, block_omp, exhaustive_code
from .core import BlockDict, BlockStructure, _check_ints
from .equivalence import (
    DEFAULT_CERTIFICATE_TOL,
    DEFAULT_PROBE_TOL,
    construct_kappa,
    recover_equivalence,
    verify_theorem_instance,
)
from .errors import CapacityError, HypothesisViolationError
from .harness import (
    MODE_BLOCK_ORTH,
    MODE_GAUSSIAN,
    ExperimentConfig,
    gen_codes,
    gen_dictionary,
    learn_dictionary,
    run_experiment,
    trace_to_csv,
)
from .matrixio import read_matrix_text, write_matrix_text
from .rip import rip_constant_exact, rip_lower_bound_sampled
from .subspace import DEFAULT_RANK_TOL


def _load_dict(path, alpha: int, s: int = 1) -> BlockDict:
    _check_ints(1, alpha=alpha)
    data = read_matrix_text(path)
    if data.shape[1] % alpha != 0:
        raise ValueError(
            f"matrix has {data.shape[1]} columns, not divisible by alpha={alpha}"
        )
    return BlockDict(BlockStructure(K=data.shape[1] // alpha, alpha=alpha, s=s), data)


def _emit(args, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:  # written in place, then cut to its length: cheaper than a truncating open
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # os.devnull refuses truncation
                fh.truncate()
    else:
        sys.stdout.write(text)


def _parse_support(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in spec.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"support must be comma-separated integers, got {spec!r}")


def _cmd_gen(args) -> int:
    structure = BlockStructure(K=args.blocks, alpha=args.alpha, s=args.sparsity)
    A = gen_dictionary(args.ambient_dim, structure, seed=args.seed, mode=args.mode)
    outputs = [(args.out_dict, A.data)]
    if args.out_codes or args.out_samples:
        X = gen_codes(structure, args.n_samples, seed=args.seed + 1,
                      coefficient_scale=args.scale)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below as non-finite
            outputs += [(args.out_codes, X), (args.out_samples, A.data @ X)]
    outputs = [(path, M) for path, M in outputs if path]
    if not outputs:
        raise ValueError("nothing to do: pass --out-dict, --out-codes, or --out-samples")
    for path, M in outputs:  # every output is checked before any file is written
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{path}: matrix entries must all be finite")
    for path, M in outputs:
        write_matrix_text(path, M)
    return 0


def _cmd_rip(args) -> int:
    A = _load_dict(args.dictionary, args.alpha)
    if args.mode == "exact":
        report = rip_constant_exact(A, args.level)
    else:
        report = rip_lower_bound_sampled(A, args.level, args.samples, args.seed)
    _emit(args, json.dumps(report.to_dict()))
    return 0


def _cmd_code(args) -> int:
    A = _load_dict(args.dictionary, args.alpha, args.sparsity)
    y = read_matrix_text(args.measurement)
    if y.shape[1] != 1:
        raise ValueError(
            f"{args.measurement}: measurement must be one column, got shape {y.shape}"
        )
    coder = block_omp if args.method == "omp" else exhaustive_code
    result = coder(A, y, s=args.sparsity, tol=args.tol)
    _emit(args, json.dumps(result.to_dict()))
    return 0


def _cmd_equiv(args) -> int:
    A = _load_dict(args.dict_a, args.alpha)
    B = _load_dict(args.dict_b, args.alpha)
    cert = recover_equivalence(A, B, tol=args.tol, span_tol=args.span_tol)
    _emit(args, json.dumps(cert.to_dict()))
    return 0


def _cmd_kappa(args) -> int:
    support = _parse_support(args.support)
    A = _load_dict(args.dict_a, args.alpha, max(len(support), 1))
    B = _load_dict(args.dict_b, args.alpha, max(len(support), 1))
    result = construct_kappa(A, B, support, n_probes=args.probes, seed=args.seed,
                             tol=args.tol)
    _emit(args, json.dumps(result.to_dict()))
    return 0


def _cmd_learn(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    Y = read_matrix_text(args.samples)
    learned, trace = learn_dictionary(Y, config)
    if args.out_dict:
        write_matrix_text(args.out_dict, learned.data)
    if args.format == "csv":
        _emit(args, trace_to_csv(trace.to_dict()))
    else:  # with the returned dictionary's coding residuals, as `experiment` reports carry them
        report = {**trace.to_dict(), "coding_residuals": trace.residuals.tolist()}
        _emit(args, json.dumps(report))
    return 0


def _cmd_verify(args) -> int:
    A = _load_dict(args.dict_a, args.alpha, args.sparsity)
    B = _load_dict(args.dict_b, args.alpha, args.sparsity)
    report = verify_theorem_instance(A, B, s=args.sparsity, seed=args.seed, tol=args.tol)
    _emit(args, json.dumps(report.to_dict()))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    report = run_experiment(config)
    if args.format == "csv" and report.trace is not None:
        _emit(args, trace_to_csv(report.trace))
    else:
        _emit(args, json.dumps(report.to_dict()))
    for err in report.stage_errors:
        sys.stderr.write(f"stage {err['stage']} failed: {err['error']}\n")
    return 1 if report.stage_errors else 0


def build_parser() -> argparse.ArgumentParser:
    Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = Parser(prog="blockdict",
                    description="Block-sparse dictionary identifiability toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    # each subcommand lists, as parents, exactly the shared flags its handler reads
    seed, out, fmt, alpha, sparsity, pair = (Parser(add_help=False) for _ in range(6))
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")
    out.add_argument("--out", help="output path (default: stdout)")
    fmt.add_argument("--format", choices=["json", "csv"], default="json")
    alpha.add_argument("--alpha", type=int, required=True, help="block width")
    sparsity.add_argument("--sparsity", type=int, required=True, help="active blocks s")
    pair.add_argument("dict_a")
    pair.add_argument("dict_b")

    p = sub.add_parser("gen", parents=[seed, alpha, sparsity],
                       help="generate a dictionary and/or codes to files")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True, help="number of blocks K")
    p.add_argument("--mode", choices=[MODE_GAUSSIAN, MODE_BLOCK_ORTH],
                   default=MODE_BLOCK_ORTH)
    p.add_argument("--n-samples", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0, help="coefficient scale")
    p.add_argument("--out-dict", help="write the dictionary here")
    p.add_argument("--out-codes", help="write the code matrix here")
    p.add_argument("--out-samples", help="write dictionary @ codes here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rip", parents=[seed, out, alpha],
                       help="restricted isometry constant of a dictionary")
    p.add_argument("dictionary", help="matrix file")
    p.add_argument("--level", type=int, required=True, help="support size t")
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--samples", type=int, default=200, help="sampled supports")
    p.set_defaults(func=_cmd_rip)

    p = sub.add_parser("code", parents=[out, alpha, sparsity],
                       help="block-sparse code of one measurement")
    p.add_argument("dictionary")
    p.add_argument("measurement", help="matrix file with one column")
    p.add_argument("--method", choices=["omp", "exhaustive"], default="omp")
    p.add_argument("--tol", type=float, default=DEFAULT_CODING_TOL, help="tolerance")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("equiv", parents=[out, alpha, pair],
                       help="equivalence certificate between two dictionaries")
    p.add_argument("--tol", type=float, default=DEFAULT_CERTIFICATE_TOL, help="tolerance")
    p.add_argument("--span-tol", type=float, default=DEFAULT_RANK_TOL)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("kappa", parents=[seed, out, alpha, pair],
                       help="support correspondence by probing")
    p.add_argument("--support", required=True, help="comma-separated 1-based blocks")
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--tol", type=float, default=DEFAULT_PROBE_TOL, help="tolerance")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("learn", parents=[out, fmt], help="learn a dictionary from samples")
    p.add_argument("samples", help="matrix file, one sample per column")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-dict", help="write the learned dictionary here")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("verify", parents=[seed, out, alpha, sparsity, pair],
                       help="end-to-end identifiability report for a pair")
    p.add_argument("--tol", type=float, default=DEFAULT_CERTIFICATE_TOL, help="tolerance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", parents=[out, fmt],
                       help="run a full experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache  # main's parser: built on its first call, reused after, never handed out
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name in ("tol", "span_tol", "seed"):  # checked before any file is read or written
            if not getattr(args, name, 0.0) >= 0:
                raise ValueError(f"--{name.replace('_', '-')} must be nonnegative, "
                                 f"got {getattr(args, name)}")
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 3
    except HypothesisViolationError as exc:
        sys.stderr.write(f"hypothesis violation: {exc}\n")
        return 4
    except (ValueError, IndexError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # internal error
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
