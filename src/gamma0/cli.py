"""Command line interface: per-level queries, sweeps, and SVG rendering.

Subcommands: invariants, polygon, generators, bounds, cashew, sweep.
Exit codes: 0 success, 1 verification/search failure or a closed stdout
(nothing is printed then), 2 usage error.

``generators --json`` prints exactly the bytes of
``json.dumps(system.to_json(), indent=2)``, but from one fixed template per
generator (``_system_json``) instead of the general encoder; the tests hold
the two byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from math import isqrt

from .farey import Frac
from .generators import GeneratingSystem, independent_system, verify_system
from .invariants import (
    SearchExhausted,
    _lower_bound,
    _upper_bound,
    group_invariants,
    is_prime,
    m_bounds,
    m_exact_search,
    prime_or_prime_square,
    twin_factors,
)
from .polygon import EVEN, FREE, ODD, VERTICAL, GROWTH_STRATEGIES, LabeledPolygon, grow_maximal
from .triples import (
    build_optimal_polygon,
    build_twin_polygon,
    cashew_certificate,
    cashew_certificates,
    triple_count,
    triple_counts,
)

_PAIR_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


def _cusp_text(c: Frac) -> str:
    if c.is_infinite:
        return "∞"
    if c.den == 1:
        return str(c.num)
    return f"{c.num}/{c.den}"


def render_svg(P: LabeledPolygon, path: str) -> None:
    """Draw the polygon as upper-half-plane geodesics over [0, 1]."""
    width, height = 1000, 400
    xmin, xmax = -0.05, 1.05
    scale = width / (xmax - xmin)
    base = height - 40

    def px(x: float) -> float:
        return (x - xmin) * scale

    def color(label: int) -> str:
        if label == VERTICAL:
            return "#777777"
        if label == EVEN:
            return "#d62728"
        if label == ODD:
            return "#2ca02c"
        if label == FREE:
            return "#000000"
        return _PAIR_PALETTE[(label - 2) % len(_PAIR_PALETTE)]

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(
        f'<line x1="0" y1="{base}" x2="{width}" y2="{base}" stroke="#ccc" stroke-width="1"/>\n'
    )
    m = len(P.labels)
    for i in range(m):
        lab = P.labels[i]
        col = color(lab)
        if lab == VERTICAL:
            x = px(0.0) if i == 0 else px(1.0)
            out.write(
                f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="10" '
                f'stroke="{col}" stroke-width="2"/>\n'
            )
            out.write(f'<text x="{x + 4:.2f}" y="24" font-size="12" fill="{col}">1</text>\n')
            continue
        left, right = P.side(i)
        x1, x2 = float(left), float(right)
        r = (x2 - x1) / 2 * scale
        out.write(
            f'<path d="M {px(x1):.2f} {base} A {r:.2f} {r:.2f} 0 0 1 {px(x2):.2f} {base}" '
            f'fill="none" stroke="{col}" stroke-width="2"/>\n'
        )
        apex_x = px((x1 + x2) / 2)
        apex_y = base - r - 5
        text = {EVEN: "-2", ODD: "-3", FREE: "free"}.get(lab, str(lab))
        out.write(
            f'<text x="{apex_x:.2f}" y="{apex_y:.2f}" font-size="12" '
            f'text-anchor="middle" fill="{col}">{text}</text>\n'
        )
    for c in P.cusps[1:]:
        x = px(float(c))
        out.write(
            f'<text x="{x:.2f}" y="{base + 16}" font-size="11" '
            f'text-anchor="middle" fill="#333">{_cusp_text(c)}</text>\n'
        )
    out.write(f'<text x="8" y="{base + 32}" font-size="12" fill="#333">n = {P.n}</text>\n')
    out.write("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())


def _build_polygon(n: int, strategy: str) -> LabeledPolygon:
    if strategy == "optimal":
        return build_optimal_polygon(n)
    if strategy == "twin":
        tw = twin_factors(n)
        if tw is None:
            raise ValueError(f"{n} is not an eligible twin product")
        return build_twin_polygon(*tw)
    return grow_maximal(n, strategy=strategy)


def _auto_polygon(n: int):
    """Best-available polygon for n plus the verification expectations it earns."""
    if prime_or_prime_square(n):
        return build_optimal_polygon(n), {"expect_entry": n}
    tw = twin_factors(n)
    if tw is not None:
        # The {n, 2n} split holds only for q < 2p; (3,7), (5,11) and (5,13)
        # put some entries at 3n, so they get every other check.
        p, q = tw
        return build_twin_polygon(p, q), ({"twin": tw} if q < 2 * p else {})
    return grow_maximal(n), {}


def _cmd_invariants(args) -> int:
    inv = group_invariants(args.n)
    if args.json:
        print(json.dumps(inv.to_json(), indent=2))
    else:
        for k, v in inv.to_json().items():
            print(f"{k} = {v}")
    return 0


def _cmd_polygon(args) -> int:
    P = _build_polygon(args.n, args.strategy)
    if args.svg:
        render_svg(P, args.svg)
        print(f"wrote {args.svg}")
        return 0
    if args.json:
        print(json.dumps(P.to_json(), indent=2))
        return 0
    print("cusps :", " ".join(_cusp_text(c) for c in P.cusps))
    print("denoms:", " ".join(str(d) for d in P.denominator_sequence()))
    print("labels:", " ".join(str(x) for x in P.labels))
    return 0


# One generator of json.dumps(system.to_json(), indent=2): its matrix entries,
# then a tail with its kind and order already JSON-encoded.
_GENERATOR_JSON_HEAD = """\
    {
      "matrix": [
        [
          %d,
          %d
        ],
        [
          %d,
          %d
        ]
      ],
"""
_GENERATOR_JSON_TAIL = """\
      "kind": %s,
      "order": %s
    }"""


def _system_json(system: GeneratingSystem) -> str:
    """``json.dumps(system.to_json(), indent=2)``, byte for byte.

    The system must hold at least one generator, as every system from
    ``independent_system`` does (T is always there).
    """
    # kinds and orders take a handful of values: one template per pair, its
    # tail filled in, so a generator costs one % over its matrix entries
    templates: dict[tuple[str, int | None], str] = {}
    parts = []
    for g in system.generators:
        m = g.matrix
        template = templates.get((g.kind, g.order))
        if template is None:
            tail = _GENERATOR_JSON_TAIL % (json.dumps(g.kind), json.dumps(g.order))
            template = templates[g.kind, g.order] = _GENERATOR_JSON_HEAD + tail.replace("%", "%%")
        parts.append(template % (m.a, m.b, m.c, m.d))
    body = ",\n".join(parts)
    return f'{{\n  "n": {system.n:d},\n  "generators": [\n{body}\n  ]\n}}'


def _cmd_generators(args) -> int:
    P, expectations = _auto_polygon(args.n)
    sys_ = independent_system(P)
    if args.json:
        print(_system_json(sys_))
    else:
        for g in sys_.generators:
            (a, b), (c, d) = g.matrix.rows()
            order = g.order if g.order is not None else "inf"
            print(f"[[{a},{b}],[{c},{d}]]  kind={g.kind} order={order}")
    if args.verify:
        rep = verify_system(sys_, **expectations)
        if rep.ok:
            print(f"verify: ok ({len(sys_.generators)} generators)")
        else:
            for msg in rep.failures:
                print(f"verify: FAIL {msg}", file=sys.stderr)
            return 1
    return 0


def _cmd_bounds(args) -> int:
    if args.max_bound is not None and not args.exact:
        raise ValueError("--max-bound needs --exact")
    if args.max_bound is not None and args.max_bound < 0:
        raise ValueError("--max-bound must be >= 0")
    lower, lower_is_exact, upper = m_bounds(args.n)
    payload = {
        "n": args.n,
        "lower": lower,
        "lower_is_exact": lower_is_exact,
        "upper": upper,
    }
    code = 0
    if args.exact:
        try:
            payload["exact"] = m_exact_search(args.n, max_bound=args.max_bound)
        except SearchExhausted as exc:
            payload["exact"] = None
            payload["error"] = str(exc)
            code = 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        upper_text = "n/a" if upper is None else str(upper)
        line = f"lower {lower} ({'exact' if lower_is_exact else 'not exact'}), upper {upper_text}"
        if "exact" in payload:
            line += f", exact {payload['exact'] if payload['exact'] is not None else 'exhausted'}"
        print(line)
        if payload.get("error"):
            print(payload["error"], file=sys.stderr)
    return code


def _cmd_cashew(args) -> int:
    if args.all_certificates:
        certs = cashew_certificates(args.n)
        print(json.dumps([c.to_json() for c in certs], indent=2))
        return 0
    cert = cashew_certificate(args.n)
    print(json.dumps(cert.to_json() if cert else None, indent=2))
    return 0


_SWEEP_CHUNK = 32


def _sweep_row(n: int, exact_budget: int | None, k: int | None) -> dict:
    """One level's row; k(n) is counted here when the batch did not supply it."""
    row: dict = {"n": n}
    try:
        inv = group_invariants(n)
        row.update(inv.to_json())
        lower, phi, lower_is_exact = _lower_bound(n, inv.u)
        upper = _upper_bound(n)
        row["phi_sqrt"] = phi
        row["k"] = triple_count(n) if k is None else k
        row["lower"] = lower
        row["lower_is_exact"] = lower_is_exact
        row["upper"] = upper
        row["cashew"] = cashew_certificate(n) is not None
        if exact_budget is not None:
            row["m_exact"] = m_exact_search(n, max_bound=exact_budget)
        row["error"] = ""
    except Exception as exc:  # report the level, keep the sweep alive
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_chunk(task: tuple[list[int], int | None]) -> list[dict]:
    """Rows for a run of levels, with k(n) for all of them from one scan.

    Should the batch raise, each level counts its own k(n), so the error
    lands on the row of the level that caused it and the others keep their
    values.
    """
    levels, exact_budget = task
    try:
        ks = triple_counts(levels)
    except Exception:
        ks = [None] * len(levels)
    return [_sweep_row(n, exact_budget, k) for n, k in zip(levels, ks)]


def _sweep_chunks(tasks: list, jobs: int) -> list[list[dict]]:
    """``[_sweep_chunk(t) for t in tasks]``, computed by up to ``jobs`` processes.

    The worker count is capped at the CPU and chunk counts.  Share k is
    ``tasks[k::jobs]``, interleaved so that shares stay balanced while row
    cost grows with n.  Shares 0 .. jobs - 2 go to forked children, which
    pickle their chunks into a pipe; this process computes the last share,
    then reads each pipe to EOF and reaps its child.  A child leaves only
    through ``os._exit``, so it never returns into the caller, flushes no
    stdio or ``--output`` buffer it inherited and runs no atexit handler.
    Whatever happens, no child outlives the call.  A fork copies only the
    calling thread, so the caller must be single-threaded, as the CLI is.
    """
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs < 2 or not hasattr(os, "fork"):  # no tasks leave jobs at 0
        return [_sweep_chunk(t) for t in tasks]
    import pickle
    import signal

    chunks: list = [None] * len(tasks)
    pids, pipes = {}, {}  # by share: children not yet reaped, read ends not yet closed
    try:
        for k in range(jobs - 1):
            pipes[k], w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        os.close(pipes[k])
                        with open(w, "wb") as pipe:
                            pickle.dump([_sweep_chunk(t) for t in tasks[k::jobs]], pipe)
                        code = 0
                    finally:
                        os._exit(code)
                pids[k] = pid
            finally:
                os.close(w)  # a later child must not hold it, or the read never ends
        chunks[jobs - 1 :: jobs] = [_sweep_chunk(t) for t in tasks[jobs - 1 :: jobs]]
        for k in range(jobs - 1):
            with open(pipes.pop(k), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pids.pop(k), 0)[1]
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"sweep share {k} of {jobs} failed: worker exit code {code}")
            chunks[k::jobs] = pickle.loads(data)
    finally:
        for fd in pipes.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return chunks


_SWEEP_COLUMNS = (
    "n index v_inf v2 v3 genus u phi_sqrt k lower lower_is_exact upper m_exact cashew error"
).split()


def _keep(n: int, mode: str) -> bool:
    if mode == "all":
        return True
    if mode == "primes":
        return is_prime(n)
    if mode == "prime-squares":
        r = isqrt(n)
        return r * r == n and is_prime(r)
    return twin_factors(n) is not None  # twin-pq


def _cmd_sweep(args) -> int:
    if args.start > args.end:
        raise ValueError("empty sweep range")
    jobs = args.jobs
    env = os.environ.get("GAMMA0_THREADS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"GAMMA0_THREADS must be an integer, not {env!r}") from None
    if jobs < 1:
        raise ValueError("worker count must be >= 1")
    if args.exact_m is not None and args.exact_m < 0:
        raise ValueError("--exact-m must be >= 0")
    levels = [n for n in range(args.start, args.end + 1) if _keep(n, args.filter)]
    tasks = [
        (levels[i : i + _SWEEP_CHUNK], args.exact_m) for i in range(0, len(levels), _SWEEP_CHUNK)
    ]
    # open the output first, so a bad path fails before any level is computed
    out = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
    try:
        rows = [row for chunk in _sweep_chunks(tasks, jobs) for row in chunk]
        if args.format == "json":
            json.dump(rows, out, indent=2)
            out.write("\n")
        else:
            writer = csv.DictWriter(out, fieldnames=_SWEEP_COLUMNS, restval="")
            writer.writeheader()
            writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def _level(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("level must be an integer >= 2")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="gamma0", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="index, cusp/torsion counts, genus, u")
    p.add_argument("n", type=_level)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("polygon", help="maximal polygon (Farey symbol) for a level")
    p.add_argument("n", type=_level)
    p.add_argument(
        "--strategy",
        choices=tuple(GROWTH_STRATEGIES) + ("optimal", "twin"),
        default="leftmost",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("generators", help="independent generating system")
    p.add_argument("n", type=_level)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("bounds", help="lower/upper bounds for m, optionally exact")
    p.add_argument("n", type=_level)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--max-bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cashew", help="certificate that the upper bound is attained")
    p.add_argument("n", type=_level)
    p.add_argument("--all-certificates", action="store_true")
    p.set_defaults(func=_cmd_cashew)

    p = sub.add_parser("sweep", help="per-level report over an inclusive range")
    p.add_argument("start", type=_level)
    p.add_argument("end", type=_level)
    p.add_argument("--filter", choices=("all", "primes", "prime-squares", "twin-pq"), default="all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", metavar="PATH")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--exact-m", type=int, default=None, metavar="BUDGET")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # cusps and matrices from leftmost growth pass Python's default limit of
    # 4300 digits per printed int; lift it after parsing (the level argument
    # is read under the caller's limit) and give the caller its limit back
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: stdout goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
