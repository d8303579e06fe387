"""Command-line front end: generation, detection, coloring, decomposition,
packing/covering, certificate verification, and the corpus harness.

Exit codes: 0 = success, 2 = odd-minor certificate produced, 3 = size guard
tripped, 4 = input error.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
import time
from typing import NoReturn, Optional

import click

from . import certificates as certs
from .coloring import OddMinorFoundError, bound_N, color_clustered, color_defective
from .erdosposa import odd_s_paths_dichotomy
from .generators import (
    chorded_subdivision,
    complete_bipartite,
    cycle,
    join_subdivision,
    random_graph,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    SizeLimitError,
    complete,
    parse_graph,
    to_dimacs,
    to_edgelist,
    to_graph6,
)
from .oddminor import find_odd_clique_minor
from .signed import find_signed_minor
from .structure import Decomposition, structure_theorem
from .subdivision import find_bipartite_join_subdivision

EXIT_CERTIFICATE = 2
EXIT_SIZE_GUARD = 3
EXIT_INPUT_ERROR = 4

_WRITERS = {"graph6": to_graph6, "dimacs": to_dimacs, "edgelist": to_edgelist}
_FORMATS = click.Choice(list(_WRITERS))


def _read_graph(source: str, format: str) -> Graph:
    try:
        if source == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                data = fh.read()
        return parse_graph(data, format)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read graph: {e}") from e


def _write(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e}") from e
    else:
        click.echo(text)


def _certificate_exit(cert: certs.Certificate, out: Optional[str]) -> NoReturn:
    """Write the certificate of a substructure found and exit 2."""
    _write(certs.serialize_certificate(cert), out)
    sys.exit(EXIT_CERTIFICATE)


class _Main(click.Group):
    """The one place where an exception becomes an exit code.

    SizeLimitError exits 3 and ValueError (GraphError, CertificateError,
    HypothesisUnmetError, JSONDecodeError) exits 4, each with its message on
    stderr. Click's usage errors (a missing option, a bad value, an unknown
    command) exit 4, not click's 2, which here means "odd minor found". Any
    other exception is a bug and keeps its traceback.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT_ERROR
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT_ERROR
            raise
        except SizeLimitError as e:
            click.echo(f"size guard: {e}", err=True)
            sys.exit(EXIT_SIZE_GUARD)
        except ValueError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_INPUT_ERROR)


@click.group(cls=_Main)
def main() -> None:
    """Odd-minor detection, parity-breaking path dichotomies, structure
    decomposition, and bounded-palette improper coloring."""


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


# each family's parameters; a bracketed one may be left out
_GEN_PARAMS = {"complete": "N", "complete_bipartite": "M N", "cycle": "N", "random": "N P",
               "join_subdivision": "S T [COUNT]", "chorded_subdivision": "S T CHORDS"}


def _numbers(names: list[str], fields, message: str) -> list:
    """The fields as numbers, a P field a float and the rest ints; a field
    that is not one raises ValueError(message)."""
    try:
        return [float(x) if name == "P" else int(x) for name, x in zip(names, fields)]
    except ValueError:
        raise ValueError(message) from None


def _gen_params(family: str, params: tuple[str, ...]) -> tuple[list, int]:
    """PARAMS of `gen FAMILY` as numbers, with COUNT filled in, and the most
    vertices they can build."""
    if family not in _GEN_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    names = _GEN_PARAMS[family].split()
    takes = f"{family} takes parameters {' '.join(names)}, got"
    if not sum(not p.startswith("[") for p in names) <= len(params) <= len(names):
        raise ValueError(f"{takes} {len(params)}")
    nums = _numbers([p.strip("[]") for p in names], params,
                    f"{takes} {' '.join(params)!r}")
    if family == "join_subdivision" and len(nums) == 2:
        nums.append(1)
    if family in ("complete", "cycle", "random"):
        return nums, nums[0]
    if family == "complete_bipartite":
        return nums, nums[0] + nums[1]
    # negative sizes are the generator's error to report, not a huge count
    s, t = max(nums[0], 0), max(nums[1], 0)
    pattern_edges = s * (s - 1) // 2 + s * t
    if family == "join_subdivision":
        return nums, s + t + pattern_edges * max(nums[2], 0)
    # each pattern edge gets 1 or 3 subdivision vertices, each chord 0 or 2
    return nums, s + t + 3 * pattern_edges + 2 * nums[2]


@main.command()
@click.argument("family")
@click.argument("params", nargs=-1)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--out", type=str, default=None,
              help="write the graph here; embedding certificates go to OUT.cert.json")
def gen(family: str, params: tuple[str, ...], seed: int, fmt: str, out: Optional[str]):
    """Generate an instance.

    Families: complete N | complete_bipartite M N | cycle N | random N P |
    join_subdivision S T [COUNT] | chorded_subdivision S T CHORDS
    """
    nums, n = _gen_params(family, params)
    if n > MAX_VERTICES:
        raise ValueError(f"{family} would have up to {n} vertices, "
                         f"more than the limit of {MAX_VERTICES}")
    cert = None
    if family == "complete":
        G = complete(*nums)
    elif family == "complete_bipartite":
        G = complete_bipartite(*nums)
    elif family == "cycle":
        G = cycle(*nums)
    elif family == "random":
        G = random_graph(*nums, seed)
    else:
        G, emb = (join_subdivision(*nums) if family == "join_subdivision"
                  else chorded_subdivision(*nums, seed)[:2])
        cert = certs.certify_subdivision(G, emb)
    _write(_WRITERS[fmt](G), out)
    if cert is not None:
        _write(certs.serialize_certificate(cert), out and out + ".cert.json")


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def _kt_signature(text: str, t: int) -> list[tuple[int, int]]:
    """Parse --sigma, a JSON list of edges of K_t, each listed once, without
    building K_t. JSON true reads as a bool, which Python counts as an int
    but is no vertex id."""
    sig = json.loads(text)
    if not isinstance(sig, list):
        raise ValueError("--sigma must be a JSON list of edges")
    seen = set()
    for e in sig:
        if not (isinstance(e, list) and len(e) == 2 and e[0] != e[1]
                and all(type(v) is int and 0 <= v < t for v in e)):
            raise ValueError(f"signature edge {e} not in K_{t}")
        if frozenset(e) in seen:
            raise ValueError(f"signature edge {e} is listed twice")
        seen.add(frozenset(e))
    return [tuple(e) for e in sig]


@main.command()
@click.argument("graph", type=str)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--mode", type=click.Choice(["odd-clique", "subdivision", "signed"]),
              default="odd-clique", show_default=True)
@click.option("--t", "t", type=int, required=True,
              help="clique order (odd-clique/signed) or stable-set size (subdivision)")
@click.option("--s", "s", type=int, default=None,
              help="clique side of the join pattern (subdivision mode)")
@click.option("--sigma", type=str, default="[]",
              help="signed mode: JSON list of negative pattern edges")
@click.option("--limit", type=int, default=None, help="size-guard override")
@click.option("--out", type=str, default=None)
def detect(graph: str, fmt: str, mode: str, t: int, s: Optional[int],
           sigma: str, limit: Optional[int], out: Optional[str]):
    """Search exhaustively for the requested substructure. The odd-clique
    and signed modes run these passes in order, and the first that decides
    answers:

    \b
    1. the least model size L = t + tau, where tau is the fewest pattern
       vertices meeting every triangle with an even number of negative
       edges (tau = 0 for odd K_t, and t - 2 for t >= 2 under the default
       all-positive --sigma): a host with fewer than L vertices is absent,
       so all-positive K_7 in K_10 takes a fraction of a second;
    2. when L = t, the size-h pass: the first t vertices of the host, in
       vertex order, adjacent wherever the pattern has an edge, found with
       bitmasks over every vertex and colored only once found; it builds
       no subset table and reads no block, so odd K_5 in K_20 (--limit 20)
       takes a fraction of a second;
    3. if it finds none, or when L > t, for t >= 3 the blocks of the host:
       one with fewer than L vertices, or a bipartite one for an unbalanced
       pattern, cannot hold a smallest model, and a host with no other
       block is absent; beside it, for t >= 4, a host with no unsigned K_t
       minor is absent, tested on its series-parallel core: with no subset
       table at t = 4 (odd K_4 on a 14-vertex fan takes a fraction of a
       second) and with its own, which no later step reads, at t >= 5;
    4. when L > t, the L pass, which caps a model's size at L, reads the
       connected subsets of the kept blocks with at most L - t + 1
       vertices, and answers with its first model;
    5. if no model of size L was found, the connected-subset table of the
       kept blocks and one branch-and-bound pass that stops at its first
       model of the least size still possible, L + 1.

    Prints a certificate (exit 2) or "absent" (exit 0).
    """
    G = _read_graph(graph, fmt)
    cert = None
    if mode == "odd-clique":
        model = find_odd_clique_minor(G, t, limit=limit)
        if model is not None:
            cert = certs.certify_odd_minor_model(G, complete(t), model)
    elif mode == "subdivision":
        if s is None:
            raise ValueError("subdivision mode needs --s")
        emb = find_bipartite_join_subdivision(G, s, t, limit=limit)
        if emb is not None:
            cert = certs.certify_subdivision(G, emb)
    else:
        sig = _kt_signature(sigma, t)
        # K_t has ~t^2/2 edges: answer before building a pattern G cannot hold
        if t <= G.n:
            Kt = complete(t)
            model = find_signed_minor(G, Kt, sig, limit=limit)
            if model is not None:
                cert = certs.certify_signed_minor_model(G, Kt, sig, model)
    if cert is None:
        _write("absent", out)
    else:
        _certificate_exit(cert, out)


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------


def _color_once(G: Graph, t: int, mode: str, want_trace: bool):
    trace: Optional[list] = [] if want_trace else None
    if mode == "defective":
        assignment, value = color_defective(G, t, trace=trace)
        bound = 6 * t - 9
    else:
        assignment, value = color_clustered(G, t, trace=trace)
        bound = 10 * t - 13
    return assignment, value, bound, trace


@main.command()
@click.argument("graph", type=str)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--mode", type=click.Choice(["defective", "clustered"]),
              default="defective", show_default=True)
@click.option("--trace", is_flag=True, help="include the recursion trace in the report")
@click.option("--out", type=str, default=None)
def color(graph: str, fmt: str, t: int, mode: str, trace: bool, out: Optional[str]):
    """Color with at most 6t-9 (defective) or 10t-13 (clustered) colors.

    Emits the coloring certificate plus a JSON report (with --out, the
    certificate goes to the file and the report to stdout); if an odd K_t
    minor surfaces, emits its certificate instead and exits 2.
    """
    G = _read_graph(graph, fmt)
    try:
        assignment, value, bound, tr = _color_once(G, t, mode, trace)
    except OddMinorFoundError as e:
        _certificate_exit(certs.certify_odd_minor_model(G, complete(t), e.model), out)
    cert = certs.certify_coloring(G, assignment, mode, t, bound, value)
    try:
        bound_n = bound_N(2 * t - 2, t)
    except OverflowError:  # from t = 43 up the bound passes the float range
        bound_n = None
    report = {
        "palette_used": assignment.palette_size,
        "bound_palette": bound,
        ("defect_achieved" if mode == "defective" else "cluster_achieved"): value,
        "bound_N": bound_n,
    }
    if tr is not None:
        report["recursion_trace"] = tr
    _write(certs.serialize_certificate(cert), out)
    # the report stays on stdout so that --out holds a certificate alone
    click.echo(json.dumps(report, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


@main.command()
@click.argument("graph", type=str)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--limit", type=int, default=None)
@click.option("--out", type=str, default=None)
def decompose(graph: str, fmt: str, t: int, limit: Optional[int], out: Optional[str]):
    """Apply the structure dichotomy: odd K_t model (exit 2) or apex set +
    bipartite block (exit 0)."""
    G = _read_graph(graph, fmt)
    result = structure_theorem(G, t, limit=limit)
    if isinstance(result, Decomposition):
        _write(certs.serialize_certificate(certs.certify_decomposition(G, t, result)), out)
    else:
        _certificate_exit(certs.certify_odd_minor_model(G, complete(t), result), out)


# ---------------------------------------------------------------------------
# ep (odd S-path packing/covering)
# ---------------------------------------------------------------------------


@main.command()
@click.argument("graph", type=str)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--s-set", "s_set", type=str, required=True,
              help="comma-separated vertex ids forming S")
@click.option("--l", "l", type=int, required=True)
@click.option("--limit", type=int, default=None)
@click.option("--out", type=str, default=None)
def ep(graph: str, fmt: str, s_set: str, l: int, limit: Optional[int],
       out: Optional[str]):
    """Odd S-path dichotomy: l disjoint odd S-paths, or a cover of at most
    2l-2 vertices."""
    G = _read_graph(graph, fmt)
    S = [int(x) for x in s_set.split(",") if x.strip() != ""]
    res = odd_s_paths_dichotomy(G, S, l, limit=limit)
    if res.is_packing:
        cert = certs.certify_packing(G, S, l, res.packing)
    else:
        cert = certs.certify_cover(G, S, l, res.cover)
    _write(certs.serialize_certificate(cert), out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@click.argument("graph", type=str)
@click.argument("certificate", type=str)
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
def verify(graph: str, certificate: str, fmt: str):
    """Re-verify a certificate against a graph; prints true/false + reason."""
    G = _read_graph(graph, fmt)
    try:
        with open(certificate) as fh:
            text = fh.read()
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read certificate: {e}") from e
    ok, reason = certs.verify_certificate(G, certs.parse_certificate(text))
    click.echo(f"{'true' if ok else 'false'} {reason}")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

_CSV_COLUMNS = [
    "instance", "n", "m", "t", "mode", "outcome",
    "palette_used", "bound_palette", "achieved", "seconds",
]


# each sweep kind's shape; complete_bipartite:M,N sweeps all 1<=m<=M, 1<=n<=N
_SWEEP_SHAPES = {"complete_bipartite": "M,N", "cycle": "A-B", "random": "N,P,COUNT"}


def _sweep_instances(sweep: str, seed: int):
    """Parse a sweep spec into (most vertices, lazy (label, Graph) pairs);
    the count comes from the spec alone, before any graph is built."""
    kind, _, arg = sweep.partition(":")
    if kind not in _SWEEP_SHAPES:
        raise ValueError(f"unknown sweep spec {sweep!r}")
    shape = _SWEEP_SHAPES[kind]
    sep = "-" if kind == "cycle" else ","
    fields, names = arg.split(sep), shape.split(sep)
    needs = f"sweep spec {sweep!r} needs the shape {kind}:{shape}"
    if len(fields) != len(names):
        raise ValueError(needs)
    nums = _numbers(names, fields, needs)
    if kind == "complete_bipartite":
        M, N = nums
        return M + N, ((f"complete_bipartite({m},{n})", complete_bipartite(m, n))
                       for m in range(1, M + 1) for n in range(1, N + 1))
    if kind == "cycle":
        a, b = nums
        return b, ((f"cycle({n})", cycle(n)) for n in range(a, b + 1))
    n, p, count = nums
    # the label keeps N and P as written
    return n, ((f"random({fields[0]},{fields[1]},seed={seed + i})",
                random_graph(n, p, seed + i))
               for i in range(count))


@main.command()
@click.argument("graphs", nargs=-1, type=str)
@click.option("--sweep", type=str, multiple=True,
              help="complete_bipartite:M,N | cycle:A-B | random:N,P,COUNT; "
                   "may be repeated")
@click.option("--format", "fmt", type=_FORMATS, default="graph6", show_default=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--mode", type=click.Choice(["defective", "clustered"]),
              default="defective", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None)
def corpus(graphs: tuple[str, ...], sweep: tuple[str, ...], fmt: str, t: int,
           mode: str, seed: int, out: Optional[str]):
    """Run the colorer over many instances and summarize as CSV.

    Instances come from graph files and/or --sweep specs; every coloring is
    re-verified before its row is recorded, and per-instance failures are
    recorded without stopping the run.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    specs = [(sw, *_sweep_instances(sw, seed)) for sw in sweep]
    for sw, n, _ in specs:
        if n > MAX_VERTICES:
            raise ValueError(f"sweep {sw} would have up to {n} vertices, "
                             f"more than the limit of {MAX_VERTICES}")
    instances = [(path, _read_graph(path, fmt)) for path in graphs]
    sweeps = []
    for sw, _, pairs in specs:
        # a sweep's first graph fails iff one of its graphs would, so
        # building it checks the spec; the rest are built when due
        first = next(pairs, None)
        if first is None:
            raise ValueError(f"sweep spec {sw!r} builds no graph")
        sweeps.append(itertools.chain([first], pairs))
    bound = 6 * t - 9 if mode == "defective" else 10 * t - 13
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for label, G in itertools.chain(instances, *sweeps):
        t0 = time.perf_counter()
        palette = achieved = ""
        try:
            assignment, value, _, _ = _color_once(G, t, mode, False)
            cert = certs.certify_coloring(G, assignment, mode, t, bound, value)
            ok, reason = certs.verify_certificate(G, cert)
            if not ok:
                outcome = f"verify-failed:{reason}"
            else:
                outcome = "colored"
                palette = assignment.palette_size
                achieved = value
        except OddMinorFoundError:
            outcome = "odd-minor-found"
        except SizeLimitError:
            outcome = "size-guard"
        except Exception as e:  # recorded, run continues
            outcome = f"error:{type(e).__name__}"
        writer.writerow([
            label, G.n, G.m, t, mode, outcome,
            palette, bound, achieved, f"{time.perf_counter() - t0:.6g}",
        ])
    _write(buf.getvalue().rstrip("\n"), out)


if __name__ == "__main__":
    main()
