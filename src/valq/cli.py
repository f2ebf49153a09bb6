"""Command-line front end.

Subcommands: ``seeds`` walks the exchange graph, ``mutate`` applies a
mutation word, ``char`` prints a character table for one dimension
vector, ``verify`` runs one named suite and ``verify-all`` runs every
suite.  Exit status: 0 when nothing failed, 1 when a suite reported
FAIL, 2 on bad input, 141 when the reader closed standard output early.
Vertex numbers on the command line are 1-based.
"""

import argparse
import os
import sys

from .characters import (
    DEFAULT_PRIMES,
    character_in_seed,
    counting_polynomials,
    InterpolationInconsistent,
)
from .classical import (
    ClassicalSeed,
    default_names,
    enumerate_exchange_graph,
    variable_f_polynomial,
    variable_g_vector,
)
from .exchange import (
    BUILTIN_MATRICES,
    BadSymmetrizer,
    IncompatiblePair,
    IndexOutOfRange,
    Lambda0NotSkew,
    NotAcyclic,
    NotSkewSymmetrizable,
    UnknownMatrixType,
    build_exchange_data,
    builtin_exchange_data,
)
from .finfield import DEFAULT_CAP, CapExceeded, NotPrime, is_prime
from .laurent import ExponentOverflow
from .qtorus import render_coeff
from .reps import NoRigidFound, NotSinkOrSource
from .verify import (
    ALL_CHECKS,
    FAIL,
    IMPLIED_NOTE,
    VerifyContext,
    primes_needed,
    run_all,
    run_check,
)


class InputError(ValueError):
    """A command-line option or matrix file that cannot be used."""


# Exceptions that mean the input was bad: each exits 2 with one line.
# Any other exception is a bug and propagates with its traceback.
INPUT_ERRORS = (
    InputError,
    UnknownMatrixType,
    NotSkewSymmetrizable,
    NotAcyclic,
    BadSymmetrizer,
    Lambda0NotSkew,
    IndexOutOfRange,
    IncompatiblePair,
    NotPrime,
    CapExceeded,
    NoRigidFound,
    NotSinkOrSource,
    InterpolationInconsistent,
    ExponentOverflow,
)

# Exit status of a command whose reader closed standard output early, as
# a shell reports a process ended by SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _int_list(text, flag):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError("%s expects comma-separated integers" % flag)


def _add_common(parser):
    parser.add_argument(
        "--matrix", metavar="FILE", help="JSON file with B and optional D, Lambda0"
    )
    parser.add_argument(
        "--type",
        dest="type_name",
        metavar="NAME",
        help="built-in matrix: %s" % ", ".join(sorted(BUILTIN_MATRICES)),
    )
    parser.add_argument("--primes", metavar="p1,p2,...", default=None)
    parser.add_argument("--max-depth", type=int, default=None)
    parser.add_argument("--max-seeds", type=int, default=10000)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument("--rng-seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", dest="as_json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="valq",
        description="exact verification suites for acyclic exchange matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seeds", help="enumerate the exchange graph")
    _add_common(p)

    p = sub.add_parser("mutate", help="apply a mutation word to the initial seed")
    _add_common(p)
    p.add_argument(
        "--seq", required=True, metavar="k1,k2,...", help="1-based vertices"
    )

    p = sub.add_parser("char", help="character table of one dimension vector")
    _add_common(p)
    p.add_argument("--dim", required=True, metavar="v1,v2,...")

    p = sub.add_parser("verify", help="run one named suite")
    _add_common(p)
    p.add_argument("check", choices=list(ALL_CHECKS))
    p.add_argument(
        "--source",
        type=int,
        default=None,
        metavar="K",
        help="restrict principal-source to the 1-based source vertex K",
    )

    p = sub.add_parser("verify-all", help="run every suite")
    _add_common(p)

    return parser


def _is_int_list(value):
    # JSON integers only: a float or a string is not silently truncated.
    return isinstance(value, list) and all(type(x) is int for x in value)


def _file_ints(obj, key, path, matrix):
    """``obj[key]`` from a matrix file: a list of integers, or with
    ``matrix`` a nonempty list of equal-length lists of integers."""
    value = obj[key]
    if not matrix:
        if _is_int_list(value):
            return tuple(value)
        raise InputError("--matrix %s: %s must be a list of integers" % (path, key))
    if (
        isinstance(value, list)
        and value
        and all(_is_int_list(row) and len(row) == len(value[0]) for row in value)
    ):
        return tuple(tuple(row) for row in value)
    raise InputError(
        "--matrix %s: %s must be a nonempty list of equal-length rows of integers"
        % (path, key)
    )


def load_data(args):
    """Exchange data plus a display label from --type or --matrix."""
    if args.matrix and args.type_name:
        raise InputError("give either --matrix or --type, not both")
    if args.type_name:
        name = args.type_name.upper()
        return builtin_exchange_data(name), name
    if args.matrix:
        import json

        try:
            with open(args.matrix, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as exc:
            raise InputError(
                "cannot read --matrix %s: %s" % (args.matrix, exc.strerror or exc)
            )
        except ValueError as exc:
            # Malformed JSON or text that is not UTF-8.
            raise InputError("cannot parse --matrix %s: %s" % (args.matrix, exc))
        if not isinstance(obj, dict) or "B" not in obj:
            raise InputError("matrix file needs a JSON object with key B")
        b = _file_ints(obj, "B", args.matrix, matrix=True)
        diag = lambda0 = None
        if obj.get("D") is not None:
            diag = _file_ints(obj, "D", args.matrix, matrix=False)
        if obj.get("Lambda0") is not None:
            lambda0 = _file_ints(obj, "Lambda0", args.matrix, matrix=True)
        return build_exchange_data(b, lambda0=lambda0, diag=diag), args.matrix
    raise InputError("need --matrix FILE or --type NAME")


def _parse_primes(text):
    """The --primes list as a tuple of distinct primes; None gives the
    default list."""
    if text is None:
        return DEFAULT_PRIMES
    primes = tuple(_int_list(text, "--primes"))
    if not primes:
        raise InputError("--primes must name at least one prime")
    for idx, p in enumerate(primes):
        if not is_prime(p):
            raise NotPrime("--primes entry %d is not prime" % p)
        if p in primes[:idx]:
            raise InputError("--primes lists %d more than once" % p)
    return primes


def _check_budgets(args):
    """Reject a walk or field budget that leaves nothing to compute."""
    for flag, value, least in (
        ("--max-seeds", args.max_seeds, 1),
        ("--cap", args.cap, 1),
        ("--max-depth", args.max_depth, 0),
    ):
        if value is not None and value < least:
            raise InputError("%s must be at least %d" % (flag, least))


def _check_walk_ends(args, data, label):
    """Refuse to walk an infinite exchange graph without a depth bound;
    the seed budget alone does not end such a walk in practice."""
    if args.max_depth is None and not data.is_finite_type():
        raise InputError(
            "%s is of infinite type; give --max-depth to bound the walk" % label
        )


def cmd_seeds(args):
    data, name = load_data(args)
    _check_walk_ends(args, data, name)
    result = enumerate_exchange_graph(
        data, max_depth=args.max_depth, max_seeds=args.max_seeds
    )
    names = default_names(data.n)
    if args.as_json:
        doc = {
            "count": len(result.seeds),
            "truncated": result.truncated,
            "seeds": [
                {
                    "index": idx,
                    "history": [k + 1 for k in seed.history],
                    "variables": [
                        seed.variables[i].render(names) for i in range(data.n)
                    ],
                }
                for idx, seed in enumerate(result.seeds)
            ],
            "edges": sorted(sorted(edge) for edge in result.edges),
        }
        _print_json(doc)
    else:
        print(
            "%d seeds%s" % (len(result.seeds), " (truncated)" if result.truncated else "")
        )
        for idx, seed in enumerate(result.seeds):
            variables = ", ".join(
                seed.variables[i].render(names) for i in range(data.n)
            )
            print("%3d  depth %d  %s" % (idx, seed.depth, variables))
    return 0


def cmd_mutate(args):
    data, _ = load_data(args)
    word = _int_list(args.seq, "--seq")
    for k in word:
        if not 1 <= k <= data.n:
            raise IndexOutOfRange("--seq entries must lie in 1..%d" % data.n)
    seed = ClassicalSeed.initial_seed(data).mutate_sequence(
        [k - 1 for k in word]
    )
    names = default_names(data.n)
    if args.as_json:
        doc = {
            "history": word,
            "B": [list(r) for r in seed.current.btilde[: data.n]],
            "variables": [
                seed.variables[i].render(names) for i in range(data.n)
            ],
            "d_vectors": [list(seed.d_vector(i)) for i in range(data.n)],
        }
        _print_json(doc)
    else:
        for i in range(data.n):
            print("x%d = %s" % (i + 1, seed.variables[i].render(names)))
    return 0


def character_table(ctx, v):
    """Character data for one dimension vector, JSON-ready."""
    n = ctx.n
    if len(v) != n or any(x < 0 for x in v):
        raise InputError("--dim needs %d nonnegative entries" % n)
    need = primes_needed(ctx.data.diag, v)
    if need > len(ctx.primes):
        raise InputError(
            "--dim %s needs %d primes, --primes gives %d"
            % (",".join(map(str, v)), need, len(ctx.primes))
        )
    polys = counting_polynomials(ctx.rigid_reps(v))
    x_v = character_in_seed(ctx.quantum_seed(), v, polys)
    classical = x_v.specialize_q1()
    frozen = variable_f_polynomial(classical, n)
    names = default_names(n)
    return {
        "v": list(v),
        "P": {
            ",".join(str(x) for x in e): list(polys[e])
            for e in sorted(polys)
        },
        "F": frozen.render(names[n:]),
        "g": list(variable_g_vector(classical, n)),
        "d": list(x_v.denominator_vector(n)),
        "X_v": x_v.render(),
        "X_v_terms": [
            [list(exp), render_coeff(coeff)] for exp, coeff in x_v.sorted_terms()
        ],
    }


def cmd_char(args):
    data, name = load_data(args)
    v = tuple(_int_list(args.dim, "--dim"))
    table = character_table(_context(args, data, name), v)
    if args.as_json:
        _print_json(table)
    else:
        print("v = (%s)" % ", ".join(str(x) for x in table["v"]))
        for key in sorted(table["P"]):
            print("P[%s] = %s" % (key, table["P"][key]))
        print("F = %s" % table["F"])
        print("g = %s" % table["g"])
        print("d = %s" % table["d"])
        print("X_v = %s" % table["X_v"])
    return 0


def _context(args, data, name):
    return VerifyContext(
        data,
        primes=args.primes,
        rng_seed=args.rng_seed,
        cap=args.cap,
        max_depth=args.max_depth,
        max_seeds=args.max_seeds,
        name=name,
    )


def _print_json(doc):
    """Print ``doc`` as indented JSON.  ``json`` is imported here, so a
    run without ``--json`` or ``--matrix`` never loads it."""
    import json

    print(json.dumps(doc, indent=2))


def _emit_reports(reports, as_json, note=None):
    if as_json:
        doc = {"reports": [r.to_dict() for r in reports]}
        if note:
            doc["note"] = note
        _print_json(doc)
    else:
        for report in reports:
            print(report.row())
        if note:
            print("note: %s" % note)
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_verify(args):
    if args.source is not None and args.check != "principal-source":
        raise InputError("--source applies only to principal-source")
    data, name = load_data(args)
    _check_walk_ends(args, data, name)
    ctx = _context(args, data, name)
    source = None
    if args.source is not None:
        if not 1 <= args.source <= data.n:
            raise IndexOutOfRange("--source must lie in 1..%d" % data.n)
        source = args.source - 1
    report = run_check(args.check, ctx, source=source)
    return _emit_reports([report], args.as_json)


def cmd_verify_all(args):
    data, name = load_data(args)
    _check_walk_ends(args, data, name)
    ctx = _context(args, data, name)
    reports = run_all(ctx)
    return _emit_reports(reports, args.as_json, note=IMPLIED_NOTE)


COMMANDS = {
    "seeds": cmd_seeds,
    "mutate": cmd_mutate,
    "char": cmd_char,
    "verify": cmd_verify,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_budgets(args)
        args.primes = _parse_primes(args.primes)
        rc = COMMANDS[args.command](args)
        sys.stdout.flush()
        return rc
    except INPUT_ERRORS as exc:
        message = exc.args[0] if exc.args else exc
        print("error: %s" % (message,), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so
        # the flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
