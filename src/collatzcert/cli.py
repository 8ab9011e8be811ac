"""Command-line surface: search, verify, max-alpha sweeps, trajectory
reports, witness chains, tree dumps, and per-level statistics.

Exit codes: 0 success, 1 invalid certificate (one read that does not
parse or verify, or one about to be written that does not verify), 2
search unclosed, 3 usage or unusable input such as a checkpoint that
cannot be resumed or an ``--out``, ``--checkpoint`` or ``--csv`` file that
cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import engine
from .certify import (
    PLAIN,
    STRONG,
    SweepState,
    Unclosed,
    depth_cap,
    load_certificate,
    parse_ratio,
    save_certificate,
    verify,
    witnesses,
)
from .numth import (
    DEFAULT_TRAJECTORY_CAP,
    codeword_display,
    codeword_from_display,
    trajectory,
)
from .tree import best_ratio, walk_nodes

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCLOSED = 2
EXIT_USAGE = 3

DEFAULT_MAX_WEIGHT = 14
UNGUARDED_MAX_WEIGHT = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _ratio(text: str) -> Fraction:
    try:
        return parse_ratio(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collatzcert",
                     description="3x+1 ones-ratio lower bound certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[], help="search for a certificate")
    p.add_argument("--alpha", type=_ratio, required=True, metavar="N/D")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT)
    p.add_argument("--force", action="store_true",
                   help=f"allow --max-weight beyond {UNGUARDED_MAX_WEIGHT}")
    # accepted for old command lines; the search runs in one process
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("--alpha", type=_ratio, metavar="N/D")
    p.add_argument("--strong", action="store_true")
    p.add_argument("file")

    p = sub.add_parser("max-alpha", help="maximal certifiable ratio by level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("trajectory", help="forward-iteration report")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_TRAJECTORY_CAP)

    p = sub.add_parser("witnesses", help="preimage chains from a certificate")
    p.add_argument("--cert", required=True, metavar="FILE")
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--breadth", type=int, default=1, choices=(1, 2))

    p = sub.add_parser("tree", help="dump one codeword's grown tree")
    p.add_argument("--codeword", required=True, metavar="DIGITS")
    p.add_argument("--alpha", type=_ratio, required=True, metavar="N/D")
    p.add_argument("--strong", action="store_true")

    p = sub.add_parser("stats", help="per-level certificate statistics")
    p.add_argument("--cert", required=True, metavar="FILE")
    p.add_argument("--csv", metavar="FILE")
    return parser


def _load(path):
    """Read a certificate file; print why it cannot be read, if it cannot,
    and return None."""
    try:
        return load_certificate(path)
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None


def _refuted(cert) -> bool:
    """Verify a certificate before it is written or used; print why it
    fails, if it does."""
    violations = verify(cert)
    for v in violations:
        print(f"invalid: {v}")
    return bool(violations)


def _unwritable(flag: str, path, in_place: bool = True) -> bool:
    """Whether a file named by ``flag`` cannot be written, judged without
    creating or truncating it, so that a search is refused before it runs;
    prints why, if it cannot.  A file written in place needs itself
    writable if it exists; one written beside itself and renamed over, as
    a checkpoint is, needs its directory."""
    if not path:
        return False
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        why = f"no directory {folder}"
    elif os.path.isdir(path):
        why = "is a directory"
    elif not os.access(path if in_place and os.path.exists(path) else folder,
                       os.W_OK):
        why = "not writable"
    else:
        return False
    print(f"error: {flag} {path}: {why}", file=sys.stderr)
    return True


def _cmd_search(args) -> int:
    mode = STRONG if args.strong else PLAIN
    if args.max_weight > UNGUARDED_MAX_WEIGHT and not args.force:
        print(f"error: --max-weight {args.max_weight} beyond "
              f"{UNGUARDED_MAX_WEIGHT} needs --force", file=sys.stderr)
        return EXIT_USAGE
    if (_unwritable("--out", args.out)
            or _unwritable("--checkpoint", args.checkpoint, in_place=False)):
        return EXIT_USAGE
    outcome = engine.run(args.alpha, args.max_weight, mode,
                         checkpoint_path=args.checkpoint)
    if isinstance(outcome, Unclosed):
        want = 2 if args.strong else 1
        # strong mode above ratio 1/2 draws companions from the unpruned
        # tree, so a stuck codeword's best ratio is reported over that tree
        prune = not args.strong or 2 * args.alpha <= 1
        print(f"unclosed at max-weight {outcome.max_weight}:")
        for codeword in outcome.open_codewords:
            cap = depth_cap(len(codeword) - 1, args.alpha)
            ratio = best_ratio(codeword, cap, want, prune)
            best = f"{ratio.numerator}/{ratio.denominator}" if ratio else "?"
            print(f"open {codeword_display(codeword)} best-ratio {best}")
        return EXIT_UNCLOSED
    if _refuted(outcome):
        return EXIT_INVALID
    if args.out:
        save_certificate(outcome, args.out)
        print(f"closed size={outcome.size} max-weight={outcome.max_weight()} "
              f"max-depth={outcome.max_depth()} -> {args.out}")
    else:
        sys.stdout.write(outcome.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = _load(args.file)
    if cert is None:
        return EXIT_INVALID
    problems = []
    if args.alpha is not None and cert.alpha != args.alpha:
        problems.append(f"header alpha {cert.alpha} != expected {args.alpha}")
    expected_mode = STRONG if args.strong else None
    if expected_mode and cert.mode != expected_mode:
        problems.append(f"header mode {cert.mode} != expected {expected_mode}")
    for p in problems:
        print(f"invalid: {p}")
    if _refuted(cert) or problems:
        return EXIT_INVALID
    print(f"valid mode={cert.mode} alpha={cert.alpha.numerator}/"
          f"{cert.alpha.denominator} size={cert.size}")
    return EXIT_OK


def _cmd_max_alpha(args) -> int:
    if _unwritable("--out", args.out):
        return EXIT_USAGE
    mode = STRONG if args.strong else PLAIN
    sweep = SweepState(mode=mode)
    alpha, cert = sweep.level(args.level)
    if _refuted(cert):
        return EXIT_INVALID
    if args.out:
        save_certificate(cert, args.out)
    print(f"{alpha.numerator}/{alpha.denominator} {cert.size} "
          f"{args.level} {cert.max_depth()}")
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rep = trajectory(args.n, cap=args.cap)
    if rep.steps is None:
        print(f"n={rep.n} sigma=? gamma=? rho=? parity=?")
    else:
        gamma = f"{rep.log_ratio:.4f}" if rep.log_ratio is not None else "?"
        rho = (f"{rep.ones_ratio.numerator}/{rep.ones_ratio.denominator}"
               if rep.ones_ratio is not None else "?")
        print(f"n={rep.n} sigma={rep.steps} gamma={gamma} rho={rho} "
              f"parity={rep.parity}")
    return EXIT_OK


def _cmd_witnesses(args) -> int:
    cert = _load(args.cert)
    if cert is None:
        return EXIT_INVALID
    try:
        # witnesses() verifies the certificate itself
        records = witnesses(cert, args.anchor, args.count, breadth=args.breadth)
    except ValueError:
        # print every violation, not only the first; any other refusal is
        # a usage error
        if _refuted(cert):
            return EXIT_INVALID
        raise
    for r in records:
        print(f"{r.n} {r.k} {r.ratio.numerator}/{r.ratio.denominator}")
    return EXIT_OK


def _cmd_tree(args) -> int:
    if not 0 < args.alpha < 1:
        print(f"error: alpha must be in (0, 1), got {args.alpha}",
              file=sys.stderr)
        return EXIT_USAGE
    codeword = codeword_from_display(args.codeword)
    cap = depth_cap(len(codeword) - 1, args.alpha)
    stop = 2 if args.strong else 1
    count = 0
    for node in walk_nodes(codeword, cap, stop_at_witnesses=stop):
        path = node.path if node.path else "-"
        print(f"{node.depth} {node.weight} {path} {node.value} mod 3^{node.exponent}")
        count += 1
    print(f"# nodes {count} depth-cap {cap}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    if _unwritable("--csv", args.csv):
        return EXIT_USAGE
    cert = _load(args.cert)
    if cert is None or _refuted(cert):
        return EXIT_INVALID
    csv = engine.format_stats_csv(engine.stats(cert))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


_COMMANDS = {
    "search": _cmd_search,
    "verify": _cmd_verify,
    "max-alpha": _cmd_max_alpha,
    "trajectory": _cmd_trajectory,
    "witnesses": _cmd_witnesses,
    "tree": _cmd_tree,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
