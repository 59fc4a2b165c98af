"""Command-line surface: one subcommand per operation family.

Every run emits a report envelope: the echoed config, the package version,
wall-clock seconds, a status in {ok, precondition-failed, resource-limit},
and the subcommand payload.  Exit code is 0 exactly when status is ok
(precondition failures exit 2, resource limits exit 3); a malformed
command line is an argparse usage error, also exit 2.

Each option exists only on the subcommands that read it, and options are
matched by their full name only.  No option repeats what the inputs fix: k
is the length of --chars, and complete-sum's l is half the length of --b.
--out is on all subcommands.  --format {csv,json} is on kl-table and strata-scan, the two
subcommands with a CSV schema (CSV is their default); the others emit JSON.
--seed (numpy PCG64, default 0) is on the seeded subcommands: kl-verify,
strata-scan, bound-check, bilinear-bench and avg-compare.  An option that
the run's mode never reads (a nonzero --seed where nothing is drawn, the
other avg-compare family's options) is a precondition failure that names
its value.  Every output is deterministic for a fixed seed, and CSV
outputs are byte-identical across reruns (JSON envelopes differ only in
the wall_time_s field).  Payloads go through klsums.serialize.jsonify;
complex numbers serialize as {"re": ..., "im": ...}.  The KLSUMS_OUT_DIR
environment variable, when set, is prepended to relative --out paths;
there is no other environment dependence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bilinear import (
    CoeffSeq,
    averaged_comparison_full_sample,
    averaged_comparison_power_sum,
    bilinear_form,
    moment_identity_check,
    theorem_bounds,
)
from .chartuples import CharTuple, classify_tuple
from .errors import (
    DegenerateFiberError,
    NumericalInstabilityError,
    PreconditionError,
    ResourceLimitError,
)
from .experiments import bound_ladder
from .field import MultChar, build_field, gauss_sum
from .kloosterman import kl_table_fast, kl_table_naive, fourier_identity_check, table_agreement
from .serialize import jsonify
from .strata import box_count_variety, stratum_scan, z_fiber_count
from .sums import sigma_II

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3


def _parse_ints(text: str, option: str) -> list[int]:
    out = []
    for tok in text.split(","):
        if tok.strip() == "":
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise PreconditionError(f"{option}: {tok.strip()!r} is not an integer") from None
    return out


def _chars_arg(field, text: str) -> CharTuple:
    return CharTuple(field, tuple(_parse_ints(text, "--chars")))


def _resolve_out(path: str | None):
    if path is None:
        return None
    out_dir = os.environ.get("KLSUMS_OUT_DIR")
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


# -- subcommand payload builders -------------------------------------------
# Each returns a payload for jsonify: a dict or a report dataclass.


def _cmd_field_info(args) -> dict:
    f = build_field(args.q)
    return {"q": f.q, "g": f.g, "units": f.q - 1}


def _cmd_char_classify(args):
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    return classify_tuple(t)


def _cmd_kl_table(args) -> dict:
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    build = kl_table_naive if args.method == "naive" else kl_table_fast
    table = build(f, t, args.scale)
    rows = [(x, float(table.values[x].real), float(table.values[x].imag)) for x in range(1, f.q)]
    return {
        "q": f.q,
        "k": t.k,
        "chars": list(t.indices),
        "scale": args.scale,
        "max_abs": table.max_abs(),
        "rows": rows,
    }


def _cmd_kl_verify(args) -> dict:
    if args.n_lambda < 0:
        raise PreconditionError(f"--n-lambda must be >= 0, got {args.n_lambda}")
    if args.n_lambda == 0 and args.seed:
        raise PreconditionError(f"--n-lambda 0 reads no --seed, got seed={args.seed}")
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    naive = kl_table_naive(f, t)  # first: its 16 q (k + 5) bytes bind past build_field's 56 q
    fast = kl_table_fast(f, t)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    fourier_max = 0.0
    for _ in range(args.n_lambda):
        lam = MultChar(f, int(rng.integers(0, f.q - 1)))
        _, _, diff = fourier_identity_check(fast, lam)
        fourier_max = max(fourier_max, diff)
    return {
        "q": f.q,
        "k": t.k,
        "chars": list(t.indices),
        "max_rel_diff": table_agreement(fast, naive),
        "deligne_max": fast.max_abs(),
        "deligne_bound": t.k,
        "fourier_checks": args.n_lambda,
        "fourier_max_diff": fourier_max,
    }


def _cmd_complete_sum(args) -> dict:
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    b = _parse_ints(args.b, "--b")
    rep = sigma_II(kl_table_fast(f, t), b, direct=args.direct)
    payload = {
        "q": f.q,
        "k": t.k,
        "chars": list(t.indices),
        "b": rep.b,
        "l": rep.l,
        "sigma_I": rep.sigma_I,
        "sigma_II": rep.sigma_II,
        "comp_R2": rep.comp_R2,
        "comp_K2": rep.comp_K2,
        "sigma_II_direct": rep.sigma_II_direct,
        "ratio_I": rep.ratio_I,
        "ratio_II": rep.ratio_II,
    }
    if args.stratum:
        payload["z_count"] = z_fiber_count(f, t.k, b).z_count
    return payload


def _cmd_strata_scan(args) -> dict:
    f = build_field(args.q)
    res = stratum_scan(
        f,
        args.k,
        args.l,
        samples=args.samples,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    return {
        "q": f.q,
        "k": args.k,
        "l": args.l,
        "seed": args.seed,
        "exhaustive": args.exhaustive,
        "histogram": {str(z): c for z, c in sorted(res.histogram.items())},
        "generic": res.generic,
        "generic_fraction": res.generic_fraction(),
        "rows": [rep.row() for rep in res.reports],
    }


def _cmd_box_count(args) -> dict:
    f = build_field(args.q)
    count = box_count_variety(f, args.box, args.l)
    return {
        "q": f.q,
        "l": args.l,
        "B": args.box,
        "count": count,
        "count_over_B_pow_l": count / args.box**args.l if args.box else None,
    }


def _cmd_bound_check(args):
    primes = _parse_ints(args.primes, "--primes")
    chars = tuple(_parse_ints(args.chars, "--chars"))
    return bound_ladder(
        primes,
        k=len(chars),
        l=args.l,
        chars=chars,
        samples=args.samples,
        subgeneric_samples=args.subgeneric_samples,
        seed=args.seed,
    )


def _cmd_bilinear_bench(args) -> dict:
    if not args.random_coeffs and args.seed:
        raise PreconditionError(f"--seed is read only with --random-coeffs, got seed={args.seed}")
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    table = kl_table_fast(f, t, args.scale)
    if args.random_coeffs:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        # empty for M or N < 1, which bilinear_form refuses
        alpha = CoeffSeq(np.arange(1, args.M + 1), rng.standard_normal(max(args.M, 0)))
        beta = CoeffSeq(np.arange(1, args.N + 1), rng.standard_normal(max(args.N, 0)))
    else:
        alpha, beta = CoeffSeq.ones(args.M), CoeffSeq.ones(args.N)
    val = bilinear_form(table, alpha, beta)
    rep = theorem_bounds(
        f.q,
        args.M,
        args.N,
        args.l,
        k=t.k,
        alpha_l1=alpha.l1,
        alpha_l2=alpha.l2,
        beta_l2=beta.l2,
        m_plus=alpha.m_plus,
        kind=args.kind,
    )
    rep.computed = abs(val)
    extra = {"chars": list(t.indices), "scale": args.scale, "B_value": val, "seed": args.seed}
    return jsonify(rep) | extra


def _cmd_moment_check(args) -> dict:
    f = build_field(args.q)
    xi = MultChar(f, args.xi)
    lhs, rhs, diff = moment_identity_check(f, xi, args.n)
    return {
        "q": f.q,
        "xi": xi.a,
        "n": args.n,
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": diff,
        "epsilon_trivial": gauss_sum(MultChar(f, 0)).real / f.q**0.5,
    }


def _cmd_avg_compare(args):
    # each family's options, with their defaults; the other family's stay unset
    reads = {"power-sum": {"n": 4, "m": 1}, "full-sample": {"l": 2, "count": 50}}
    unread = [f"{name}={getattr(args, name)}" for family, opts in reads.items()
              if family != args.family for name in opts if getattr(args, name) is not None]
    if args.family == "power-sum" and args.seed:  # it draws no b
        unread.append(f"seed={args.seed}")
    if unread:
        raise PreconditionError(f"--family {args.family} does not read {', '.join(unread)}")
    for name, default in reads[args.family].items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    f = build_field(args.q)
    t = _chars_arg(f, args.chars)
    table = kl_table_fast(f, t)
    if args.family == "power-sum":
        return averaged_comparison_power_sum(table, args.n, args.m)
    return averaged_comparison_full_sample(table, args.l, args.count, seed=args.seed)


# -- emission ----------------------------------------------------------------


def _emit_csv(payload: dict, config: dict, stream) -> None:
    """The CSV schema of kl-table or strata-scan, the config echoed in # lines."""
    for key in sorted(config):
        stream.write(f"# {key}={config[key]}\n")
    writer = csv.writer(stream, lineterminator="\n")
    if config["subcommand"] == "kl-table":
        writer.writerow(["x", "re", "im"])
        writer.writerows([x, repr(re_), repr(im_)] for x, re_, im_ in payload["rows"])
    else:
        b_cols = [f"b_{i + 1}" for i in range(2 * config["l"])]
        writer.writerow(b_cols + ["deg_P", "z_count", "generic"])
        writer.writerows(payload["rows"])


def emit(payload, config: dict, status: str, wall: float, fmt: str, stream) -> None:
    """Write the report envelope (JSON) or the subcommand's CSV schema."""
    if fmt == "csv":
        _emit_csv(payload, config, stream)
        return
    envelope = {
        "config": config,
        "version": __version__,
        "wall_time_s": wall,
        "status": status,
        "payload": payload,
    }
    json.dump(jsonify(envelope), stream, indent=1, sort_keys=True)
    stream.write("\n")


_COMMANDS = {
    "field-info": _cmd_field_info,
    "char-classify": _cmd_char_classify,
    "kl-table": _cmd_kl_table,
    "kl-verify": _cmd_kl_verify,
    "complete-sum": _cmd_complete_sum,
    "strata-scan": _cmd_strata_scan,
    "box-count": _cmd_box_count,
    "bound-check": _cmd_bound_check,
    "bilinear-bench": _cmd_bilinear_bench,
    "moment-check": _cmd_moment_check,
    "avg-compare": _cmd_avg_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klsums",
        description="Generalized Kloosterman sums, complete sum-product sums, "
        "and stratification experiments over prime fields.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, *, csv_schema=False, seeded=False, **kwargs):
        # no prefix matching: an unread --k must not resolve to --kind
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if csv_schema:
            p.add_argument("--format", choices=("json", "csv"), default="csv")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed (numpy PCG64)")
        return p

    p = add("field-info", help="build F_q and report the primitive root")
    p.add_argument("--q", type=int, required=True)

    p = add("char-classify", help="classify a character tuple (Kummer/NIO/CGM)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chars", required=True, help="comma-separated indices mod q-1")

    p = add("kl-table", csv_schema=True, help="emit the full Kl_k table (CSV: x,re,im)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chars", required=True)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--method", choices=("fast", "naive"), default="fast")

    p = add(
        "kl-verify", seeded=True, help="fast vs naive agreement + Fourier identity + Deligne bound"
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chars", required=True)
    p.add_argument("--n-lambda", type=int, default=20)

    p = add("complete-sum", help="Sigma_I / Sigma_II for one b")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chars", required=True)
    p.add_argument("--b", required=True, help="comma-separated 2l field elements")
    p.add_argument("--direct", action="store_true", help="also run the O(q^3) direct oracle")
    p.add_argument("--stratum", action="store_true", help="attach z_count (needs q = 1 mod k)")

    p = add(
        "strata-scan", csv_schema=True, seeded=True, help="histogram of z_count over sampled b"
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")

    p = add("box-count", help="points of the diagonal variety in the box [B,2B)^{2l}")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--box", type=int, required=True, metavar="B")

    p = add("bound-check", seeded=True, help="prime-ladder Sigma_I/Sigma_II ratio experiment")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--chars", default="0,0", help="comma-separated indices; k is their count")
    p.add_argument("--primes", default="101,151,211,307,401,499")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--subgeneric-samples", type=int, default=20)

    p = add("bilinear-bench", seeded=True, help="B(K, alpha, beta) against the bound formulas")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chars", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--kind", choices=("I", "II"), default="II")
    p.add_argument("--random-coeffs", action="store_true")

    p = add("moment-check", help="even-character Gauss-sum / Kl_3 moment identity")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--xi", type=int, default=0, help="index of the even character xi")
    p.add_argument("--n", type=int, default=1)

    p = add("avg-compare", seeded=True, help="averaged comparison over a b-family")
    p.add_argument("--q", type=int, default=29)
    p.add_argument("--chars", default="0,0")
    p.add_argument("--family", choices=("power-sum", "full-sample"), required=True)
    # unset here: _cmd_avg_compare gives defaults to the family's own options only
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--count", type=int, default=None)

    return parser


def run(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    t0 = time.perf_counter()
    try:
        payload = _COMMANDS[args.subcommand](args)
        status, code = "ok", EXIT_OK
    except (PreconditionError, DegenerateFiberError, NumericalInstabilityError) as exc:
        payload, status, code = {"error": str(exc)}, "precondition-failed", EXIT_PRECONDITION
    except ResourceLimitError as exc:
        payload, status, code = {"error": str(exc)}, "resource-limit", EXIT_RESOURCE
    wall = time.perf_counter() - t0
    # echoed after the run, which fills in the defaults avg-compare's family reads
    config = {k: v for k, v in vars(args).items() if k not in ("out", "format")}
    if status != "ok":
        fmt = "json"
    buf = io.StringIO()
    emit(payload, config, status, wall, fmt, buf)
    out_path = _resolve_out(args.out)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(buf.getvalue())
    else:
        stdout.write(buf.getvalue())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
