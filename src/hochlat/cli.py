"""Command line front end: constructions and checks as subcommands.

Output conventions: data on stdout, diagnostics on stderr, byte-identical
across runs.  Exit 0 on success or a verified check, 1 when a check fails,
2 on usage or size-guard problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import TRIANGLE_CHECKS, face_vector_ok, run_all, run_checks
from .complexes import SimplicialComplex, cjc, shedding_witness
from .errors import HochlatError, SizeBound
from .galois import galois_graph, max_ortho_pairs_lattice, reconstruction_isomorphic
from .hochschild import (
    build_hoch,
    enumerate_triwords,
    format_triword,
    irreducible_of_triword,
    l1,
)
from .lattice import build_bool, clo, jsd_labeling
from .limits import check_n
from .shuffles import render_word, shuffle_lattice, sigma
from .triangles import (
    char_poly_closed,
    f_closed,
    face_vector,
    g_conjecture_check,
    h_closed,
    m_closed,
    rank_poly_closed,
)

SCHEMA = "hochlat/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, one stderr line and exit 2, for the subparsers as well
        raise UsageError(" ".join(message.splitlines()))


def _emit(text):
    if not text.endswith("\n"):
        text += "\n"
    sys.stdout.write(text)


def _emit_json(payload):
    _emit(json.dumps({"schema": SCHEMA, **payload}, indent=2))


# -- structure selection -------------------------------------------------------


def _add_selector(sub, families, default=None):
    sub.add_argument("--family", choices=families, default=default, required=default is None)
    sub.add_argument("--n", type=int, help="size for hoch/bool")
    sub.add_argument("--a", type=int, help="first shuffle size")
    sub.add_argument("--b", type=int, help="second shuffle size")
    if "clo-of" in families or "galois-of" in families:
        sub.add_argument(
            "--of",
            choices=["hoch", "shuffle", "bool"],
            default="hoch",
            help="inner family for clo-of / galois-of",
        )


def _base_structure(family, args):
    """Resolve a base family to (structure as built, its Lattice, slug)."""
    if family == "hoch":
        if args.n is None:
            raise UsageError("family hoch needs --n")
        h = build_hoch(args.n)
        return h, h.lattice, f"hoch_{args.n}"
    if family == "bool":
        if args.n is None:
            raise UsageError("family bool needs --n")
        lat = build_bool(args.n)
        return lat, lat, f"bool_{args.n}"
    if args.a is None or args.b is None:  # shuffle, the last of the choices argparse admits
        raise UsageError("family shuffle needs --a and --b")
    sl = shuffle_lattice(args.a, args.b)
    return sl, sl.lattice, f"shuffle_{args.a}_{args.b}"


def _select(family, of, args):
    """Resolve a family to ("poset"|"digraph", object, slug); ``of`` is the inner family of
    clo-of and galois-of."""
    if family in ("hoch", "bool", "shuffle"):
        _, lat, slug = _base_structure(family, args)
        return "poset", lat.poset, slug
    _, lat, slug = _base_structure(of, args)
    if family == "clo-of":
        return "poset", clo(lat), f"clo_of_{slug}"
    return "digraph", galois_graph(lat).graph, f"galois_of_{slug}"  # galois-of


# -- shared renderers -----------------------------------------------------------


def _poset_text(p):
    lines = [f"elements: {p.n}", f"covers: {len(p.covers)}"]
    lines += [f"  {p.labels[a]} -> {p.labels[b]}" for a, b in p.covers]
    return "\n".join(lines)


def _graph_text(g):
    lines = [f"vertices: {g.k}"]
    lines += [f"  {lbl}" for lbl in g.labels]
    edges = sorted(g.edges)
    lines.append(f"edges: {len(edges)}")
    lines += [f"  {g.labels[s]} -> {g.labels[t]}" for s, t in edges]
    return "\n".join(lines)


def _sigma_table_lines(n, ascii_mode):
    rows = [("u", "tau(u)", "l1(u)", "sigma(u)")]
    for u in enumerate_triwords(n):
        tau = tuple(i for i in range(2, n + 1) if u[i - 1] != 2)
        rows.append(
            (
                format_triword(u),
                render_word(tau, ascii_mode),
                str(l1(u)),
                render_word(sigma(u), ascii_mode),
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    out = []
    for row in rows:
        cells = [row[c].ljust(widths[c]) for c in range(3)] + [row[3]]
        out.append("  ".join(cells).rstrip())
    return out


def _render(kind, obj, slug, fmt, verdict=()):
    """Emit a poset or digraph; json and text add the (key, value, text line) triples of verdict."""
    if fmt == "dot":
        _emit(obj.to_dot(name=slug))
    elif fmt == "json":
        _emit_json({"kind": kind, **obj.to_json(), **{key: value for key, value, _ in verdict}})
    else:
        lines = [_poset_text(obj) if kind == "poset" else _graph_text(obj)]
        _emit("\n".join(lines + [line for _, _, line in verdict]))


def _witness_tree(w, label):
    """A shedding witness as the JSON tree; _witness_lines renders the tree as text."""
    if w[0] == "simplex":
        return {"simplex": sorted(label(v) for v in w[1])}
    _, v, link_w, del_w = w
    return {
        "shed": label(v),
        "link": _witness_tree(link_w, label),
        "deletion": _witness_tree(del_w, label),
    }


def _witness_lines(tree, indent=""):
    if "simplex" in tree:
        return [f"{indent}simplex: {' '.join(tree['simplex']) or '(empty)'}"]
    out = [f"{indent}shed {tree['shed']}", f"{indent}  link:"]
    out += _witness_lines(tree["link"], indent + "    ")
    out.append(f"{indent}  deletion:")
    return out + _witness_lines(tree["deletion"], indent + "    ")


# -- subcommand handlers ----------------------------------------------------------


def _cmd_build(args):
    _render(*_select(args.family, args.of, args), args.format)
    return 0


def _irr_namer(args, structure, lat):
    if args.family == "hoch":
        return lambda e: str(irreducible_of_triword(structure.triword(e)))
    return lambda e: str(lat.poset.labels[e])


def _cmd_irr(args):
    structure, lat, _ = _base_structure(args.family, args)
    name, text, atomset = _irr_namer(args, structure, lat), [str(x) for x in lat.poset.labels], set(lat.atoms())
    irr_rows = [{"name": name(j), "element": text[j], "lower_cover": text[lat.j_star(j)], "atom": j in atomset}
                for j in lat.join_irreducibles()]
    cover_rows = [{"lower": text[a], "upper": text[b], "label": name(j)} for (a, b), j in jsd_labeling(lat).items()]
    if args.format == "json":
        _emit_json({"join_irreducibles": irr_rows, "cover_labels": cover_rows})
        return 0
    lines = [f"join irreducibles: {len(irr_rows)}"]
    lines += [
        f"  {r['name']} = {r['element']}  lower cover {r['lower_cover']}"
        + ("  atom" if r["atom"] else "")
        for r in irr_rows
    ]
    lines.append(f"cover labels: {len(cover_rows)}")
    lines += [f"  {r['lower']} -> {r['upper']}  {r['label']}" for r in cover_rows]
    _emit("\n".join(lines))
    return 0


def _cmd_cjc(args):
    structure, lat, _ = _base_structure(args.family, args)
    cx = cjc(lat)
    name = _irr_namer(args, structure, lat)
    cx = SimplicialComplex(cx.facets, labels={v: name(v) for v in cx.vertices})
    witness = shedding_witness(cx)
    decomposable = witness is not None
    if args.format == "off":
        _emit(cx.to_off_text())
        return 0
    if args.format == "json":
        payload = {
            **cx.to_json(),
            "faces": [sorted(cx.label(v) for v in f) for f in cx.faces()],
            "vertex_decomposable": decomposable,
        }
        if decomposable:
            payload["shedding"] = _witness_tree(witness, cx.label)
        _emit_json(payload)
        return 0
    lines = [f"facets: {len(cx.facets)}"]
    lines += ["  " + " ".join(sorted(cx.label(v) for v in f)) for f in cx.facets]
    lines.append(f"vertex decomposable: {'yes' if decomposable else 'no'}")
    if decomposable:
        lines.append("shedding:")
        lines += _witness_lines(_witness_tree(witness, cx.label), "  ")
    _emit("\n".join(lines))
    return 0


def _cmd_clo(args):
    if args.table:
        if args.family != "hoch":
            raise UsageError("--table is defined for the hoch family")
        if args.format != "text":
            raise UsageError(f"--table prints text only, not --format {args.format}")
        if args.n is None:
            raise UsageError("family hoch needs --n")
        _emit("\n".join(_sigma_table_lines(args.n, args.ascii)))
        return 0
    _render(*_select("clo-of", args.family, args), args.format)
    return 0


def _cmd_galois(args):
    _, lat, slug = _base_structure(args.family, args)
    geo = galois_graph(lat)
    verdict, iso = [], True
    if args.mo:
        mo = max_ortho_pairs_lattice(geo.graph)
        iso = reconstruction_isomorphic(lat, geo, mo)
        verdict = [
            ("orthogonal_pairs", mo.poset.n, f"orthogonal pairs: {mo.poset.n}"),
            ("reconstruction_isomorphic", iso, f"reconstruction isomorphic: {'yes' if iso else 'no'}"),
        ]
    _render("digraph", geo.graph, f"galois_of_{slug}", args.format, verdict)
    return 0 if iso else 1


def _triangle_polys(n, which):
    table = {"m": m_closed, "f": f_closed, "h": h_closed, "rank": rank_poly_closed, "char": char_poly_closed}
    picked = list(table) if which == "all" else [which]
    return {w: table[w](n) for w in picked}


def _cmd_triangles(args):
    if args.n is None:
        raise UsageError("triangles needs --n")
    n = args.n
    check_n(n)
    if args.check:
        return 0 if run_checks(n, TRIANGLE_CHECKS, write=_emit) else 1
    polys = _triangle_polys(n, args.which)
    if args.format == "json":
        _emit_json({"n": n, **{w: p.to_json() for w, p in polys.items()}})
        return 0
    if args.which != "all":
        _emit(polys[args.which].to_str())
        return 0
    _emit("\n".join(f"{w} = {p.to_str()}" for w, p in polys.items()))
    return 0


def _cmd_faces(args):
    if args.n is None:
        raise UsageError("faces needs --n")
    got = face_vector(args.n)
    if not face_vector_ok(args.n, got):
        print(f"counted face vector {got} fails the face-vector check", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"n": args.n, "face_vector": got})
    else:
        _emit(" ".join(str(f) for f in got))
    return 0


def _cmd_conjecture(args):
    if args.n is None:
        raise UsageError("conjecture needs --n")
    report = g_conjecture_check(args.n)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "match": report["match"],
                "computed": report["computed"].to_json(),
                "conjectured": report["conjectured"].to_json(),
            }
        )
        return 0
    _emit(
        "\n".join(
            [
                f"computed:    {report['computed'].to_str()}",
                f"conjectured: {report['conjectured'].to_str()}",
                f"verdict: {'match' if report['match'] else 'MISMATCH'}",
            ]
        )
    )
    return 0


def _cmd_check(args):
    if args.n is None:
        raise UsageError("check needs --n")
    return 0 if run_all(args.n, write=_emit) else 1


# -- parser ------------------------------------------------------------------------


def _build_parser():
    parser = _Parser(
        prog="hochlat",
        description="Triword lattices, their satellites, and exact cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit the selected structure")
    _add_selector(p_build, ["hoch", "shuffle", "bool", "clo-of", "galois-of"])
    p_build.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_build.set_defaults(fn=_cmd_build)

    p_irr = sub.add_parser("irr", help="join irreducibles and cover labels")
    _add_selector(p_irr, ["hoch", "shuffle", "bool"], default="hoch")
    p_irr.add_argument("--format", choices=["text", "json"], default="text")
    p_irr.set_defaults(fn=_cmd_irr)

    p_cjc = sub.add_parser("cjc", help="canonical join complex and decomposability")
    _add_selector(p_cjc, ["hoch", "bool"], default="hoch")
    p_cjc.add_argument("--format", choices=["text", "json", "off"], default="text")
    p_cjc.set_defaults(fn=_cmd_cjc)

    p_clo = sub.add_parser("clo", help="core label order; --table for the sigma table")
    _add_selector(p_clo, ["hoch", "bool"], default="hoch")
    p_clo.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_clo.add_argument("--table", action="store_true")
    p_clo.add_argument("--ascii", action="store_true", help="ascii word rendering")
    p_clo.set_defaults(fn=_cmd_clo)

    p_gal = sub.add_parser("galois", help="galois graph; --mo reconstructs from it")
    _add_selector(p_gal, ["hoch", "shuffle", "bool"], default="hoch")
    p_gal.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_gal.add_argument("--mo", action="store_true")
    p_gal.set_defaults(fn=_cmd_galois)

    p_tri = sub.add_parser("triangles", help="M/F/H and friends; --check cross-verifies")
    _add_selector(p_tri, ["hoch"], default="hoch")
    p_tri.add_argument("--which", choices=["m", "f", "h", "rank", "char", "all"], default="all")
    p_tri.add_argument("--format", choices=["text", "json"], default="text")
    p_tri.add_argument("--check", action="store_true")
    p_tri.set_defaults(fn=_cmd_triangles)

    p_faces = sub.add_parser("faces", help="freehedron face vector")
    p_faces.add_argument("--n", type=int)
    p_faces.add_argument("--format", choices=["text", "json"], default="text")
    p_faces.set_defaults(fn=_cmd_faces)

    p_conj = sub.add_parser("conjecture", help="report a conjecture verdict")
    p_conj.add_argument("target", choices=["g"])
    p_conj.add_argument("--n", type=int)
    p_conj.add_argument("--format", choices=["text", "json"], default="text")
    p_conj.set_defaults(fn=_cmd_conjecture)

    p_check = sub.add_parser("check", help="run the property battery at one size")
    p_check.add_argument("target", choices=["all"])
    p_check.add_argument("--n", type=int)
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:  # the reader left; exit 1 would claim a failed check
        sys.stdout = open(os.devnull, "w")  # the flush at exit writes here, not to the pipe
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except SizeBound as e:
        print(f"size bound exceeded: {e}", file=sys.stderr)
        return 2
    except HochlatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
