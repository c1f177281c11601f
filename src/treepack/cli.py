"""Command-line front end: instance IO, generators, pipelines, sweeps.

Subcommands:
  verify-cuts   check terminal connectivity against a threshold
  pack          run a packing pipeline and write the packing file
  gen           emit a seeded model instance
  sweep         run a (n, k, seed) grid and tabulate outcomes

Reports are line-oriented `key value` text so goldens diff cleanly; every
timing line starts with `time_` and is the only part allowed to differ
between identical runs.  Exit codes: 0 verified success or passing check,
1 sound negative (certificate, infeasibility, failed check), 2 malformed
input or bad arguments, 3 capacity refusal.  No subcommand reaches 3 today:
certificates are read off the failed search, and the exhaustive fallback
runs only within its caps.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from .errors import (
    CapacityError,
    GenerationFailureError,
    InstanceParseError,
    InvalidArgumentError,
    PreconditionViolationError,
    parse_int,
)
from .generate import MODELS, generate
from .graphcore import parse_instance, serialize_instance, steiner_connectivity
from .packing import (
    Certificate,
    PackResult,
    brute_force_pack,
    pack_connectors,
    pack_spanning_trees,
    pack_steiner_trees,
    serialize_packing,
    threshold_value,
    verify_packing,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

# PackResult.method values, in the order of the sweep's method_* columns.
SWEEP_METHODS = ("pipeline", "brute-force", "trivial")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _fmt_vertex_set(vs) -> str:
    return ",".join(str(v) for v in sorted(vs))


def _fmt_partition(blocks) -> str:
    ordered = sorted(blocks, key=min)
    return "|".join(_fmt_vertex_set(b) for b in ordered)


def _certificate_lines(cert: Certificate) -> list[str]:
    lines = [f"certificate_kind {cert.kind}", f"certificate_scope {cert.scope}"]
    if cert.kind == "violating-partition":
        lines.append(f"certificate_partition {_fmt_partition(cert.partition)}")
        lines.append(f"certificate_lambda_out {cert.lambda_out}")
        lines.append(f"certificate_bound {cert.bound}")
    elif cert.kind == "cut-too-small":
        lines.append(f"certificate_cut_side {_fmt_vertex_set(cert.cut_side)}")
        lines.append(f"certificate_cut_size {cert.cut_size}")
        lines.append(f"certificate_threshold {cert.threshold}")
    else:
        lines.append(f"certificate_reduced_form {cert.reduced_form}")
        lines.append(f"certificate_reduced_edges {cert.reduced_graph.edge_count()}")
        lines.append(f"certificate_reduced_vertices {cert.reduced_graph.vertex_count()}")
    return lines


def _run_pipeline(mode: str, g, terminals, k: int, threshold: int | None,
                  brute_fallback: bool) -> PackResult:
    if mode == "spanning":
        return pack_spanning_trees(g, k)
    if mode == "steiner":
        return pack_steiner_trees(g, terminals, k, threshold=threshold,
                                  brute_fallback=brute_fallback)
    return pack_connectors(g, terminals, k, threshold=threshold,
                           brute_fallback=brute_fallback)


def cmd_verify_cuts(args) -> int:
    started = time.perf_counter()
    text = Path(args.instance).read_text(encoding="utf-8")
    g, terminals = parse_instance(text)
    if len(terminals) < 2:
        raise InvalidArgumentError("instance declares fewer than two terminals")
    threshold = threshold_value(args.threshold, args.k)
    connectivity = steiner_connectivity(g, terminals)
    passed = connectivity >= threshold
    lines = [
        "command verify-cuts",
        f"instance {args.instance}",
        f"digest {_digest(text)}",
        f"k {args.k}",
        f"threshold_name {args.threshold}",
        f"threshold {threshold}",
        f"steiner_connectivity {connectivity}",
        f"result {'pass' if passed else 'fail'}",
        f"time_total_ms {int((time.perf_counter() - started) * 1000)}",
    ]
    print("\n".join(lines))
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_pack(args) -> int:
    started = time.perf_counter()
    text = Path(args.instance).read_text(encoding="utf-8")
    g, terminals = parse_instance(text)
    threshold = None
    if args.threshold is not None:
        threshold = threshold_value(args.threshold, args.k)
    parse_ms = int((time.perf_counter() - started) * 1000)

    solve_started = time.perf_counter()
    result = _run_pipeline(args.mode, g, terminals, args.k, threshold,
                           args.brute_fallback)
    solve_ms = int((time.perf_counter() - solve_started) * 1000)

    lines = [
        "command pack",
        f"instance {args.instance}",
        f"digest {_digest(text)}",
        f"mode {args.mode}",
        f"k {args.k}",
        f"threshold {result.threshold if result.threshold is not None else '-'}",
        f"brute_fallback {'yes' if args.brute_fallback else 'no'}",
        f"outcome {result.outcome}",
    ]
    if result.method:
        lines.append(f"method {result.method}")
    if result.connectivity is not None:
        lines.append(f"steiner_connectivity {result.connectivity}")
    exit_code = EXIT_NEGATIVE
    if result.outcome == "packed":
        check = verify_packing(g, terminals if args.mode != "spanning" else None,
                               result.packing)
        lines.append(f"verified {'yes' if check.ok else 'no'}")
        lines.append(f"parts {result.packing.k}")
        lines.append("part_sizes " + " ".join(str(len(p)) for p in result.packing.parts))
        payload = serialize_packing(result.packing)
        if args.out:
            Path(args.out).write_text(payload, encoding="utf-8")
            lines.append(f"packing_file {args.out}")
        exit_code = EXIT_OK if check.ok else EXIT_NEGATIVE
    elif result.outcome == "certificate":
        lines.extend(_certificate_lines(result.certificate))
    lines.append(f"time_parse_ms {parse_ms}")
    lines.append(f"time_solve_ms {solve_ms}")
    lines.append(f"time_total_ms {int((time.perf_counter() - started) * 1000)}")
    print("\n".join(lines))
    if result.outcome == "packed" and not args.out:
        print(serialize_packing(result.packing), end="")
    return exit_code


def cmd_gen(args) -> int:
    instance = generate(args.model, args.n, args.k, args.seed)
    comments = [
        f"model={instance.model} n={instance.n} k={instance.k} seed={instance.seed}",
        f"connectivity={instance.connectivity} target={instance.target} "
        f"attempts={instance.attempts}",
    ]
    payload = serialize_instance(instance.graph, instance.terminals, comments=comments)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"command gen\nmodel {args.model}\nn {args.n}\nk {args.k}\n"
              f"seed {args.seed}\nconnectivity {instance.connectivity}\n"
              f"target {instance.target}\nout {args.out}")
    else:
        print(payload, end="")
    return EXIT_OK


def _int_arg(token: str) -> int:
    """Integer option reader with the strict syntax of errors.parse_int;
    argparse names the option and exits 2 on a bad token."""
    try:
        return parse_int(token, 0)
    except InstanceParseError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}") from None


def _parse_range(spec: str) -> list[int]:
    """'lo:hi' (inclusive, lo <= hi) or a single integer; line 0 in an
    error stands for the command line."""
    lo, colon, hi = spec.partition(":")
    first = parse_int(lo, 0)
    last = parse_int(hi, 0) if colon else first
    if first > last:
        raise InvalidArgumentError(f"range {spec!r} is empty: {first} > {last}")
    return list(range(first, last + 1))


def cmd_sweep(args) -> int:
    ns = _parse_range(args.n)
    ks = _parse_range(args.k)
    seeds = _parse_range(args.seeds)
    mode = "spanning" if args.model == "nwt" else "steiner"
    header = ("model\tn\tk\tthreshold\tseeds\tpacked\tcertificates\tinfeasible"
              "\tbrute_checked\tbrute_agree\tmethod_pipeline\tmethod_brute\tmethod_trivial")
    rows = []
    for n in sorted(ns):
        for k in sorted(ks):
            # Parsed for every model, so a malformed value exits 2, but
            # spanning trees take no threshold: their column reads "-".
            threshold = threshold_value(args.threshold, k)
            shown = "-" if mode == "spanning" else threshold
            packed = certs = infeasible = brute_checked = brute_agree = 0
            # Packed instances by the route that produced them.
            methods = dict.fromkeys(SWEEP_METHODS, 0)
            for seed in seeds:
                instance = generate(args.model, n, k, seed)
                result = _run_pipeline(mode, instance.graph, instance.terminals,
                                       k, threshold, True)
                if result.outcome == "packed":
                    packed += 1
                    methods[result.method] += 1
                elif result.outcome == "certificate":
                    certs += 1
                else:
                    infeasible += 1
                try:
                    brute = brute_force_pack(instance.graph, instance.terminals,
                                             k, mode)
                except CapacityError:
                    continue
                brute_checked += 1
                if (brute.packing is not None) == (result.outcome == "packed"):
                    brute_agree += 1
            rows.append(f"{args.model}\t{n}\t{k}\t{shown}\t{len(seeds)}"
                        f"\t{packed}\t{certs}\t{infeasible}"
                        f"\t{brute_checked}\t{brute_agree}"
                        + "".join(f"\t{methods[m]}" for m in SWEEP_METHODS))
    print(header)
    for row in rows:
        print(row)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Pack spanning trees, terminal trees and connectors; "
                    "verify cuts; generate and sweep seeded instances.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-cuts", help="check terminal connectivity against a threshold")
    p.add_argument("instance")
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--threshold", default="paper-f",
                   help="nwt | fkk | paper-f | paper-g | <integer>")
    p.set_defaults(func=cmd_verify_cuts)

    p = sub.add_parser("pack", help="run a packing pipeline")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("spanning", "steiner", "connector"),
                   required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--threshold", default=None,
                   help="nwt | fkk | paper-f | paper-g | <integer>")
    p.add_argument("--brute-fallback", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("gen", help="generate a seeded model instance")
    p.add_argument("model", choices=MODELS)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="grid of generated instances, tab-separated results")
    p.add_argument("model", choices=MODELS)
    p.add_argument("--n", required=True, help="single value or lo:hi")
    p.add_argument("--k", required=True, help="single value or lo:hi")
    p.add_argument("--seeds", required=True, help="single value or lo:hi")
    p.add_argument("--threshold", default="paper-f")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceParseError, InvalidArgumentError, PreconditionViolationError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GenerationFailureError as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
