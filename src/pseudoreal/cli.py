"""Command-line interface.

Every invocation prints one document: inputs echoed in canonical form,
results, witnesses (Moebius maps as four canonical coefficients plus an
anti flag), and diagnostics.  `--output structured` emits JSON with sorted
keys, so identical invocations are byte-identical.  Exit codes: 0 success,
1 domain rejection (including a conductor above MAX_CONDUCTOR, clause
conductor_limit, and an element expression above MAX_SIZE_BITS or a
result too large to print, clause size_limit), 2 usage error, 3 internal
error (a failed internal cross-check, reported with status and error kind
internal_error).  Every exit-1 document has status rejected.  The
environment variable PSEUDOREAL_APPROX_BITS (default 64) sets the
precision of the certified decimal approximations included in reports; a
value that is not an integer or exceeds MAX_APPROX_BITS is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cyclotomic import CycElt, CycError, GaloisElement, LimitError, \
    ParseError, approx, format_poly, make_element
from .moebius import INF, Moebius, SpherePoint, _triple_index, \
    cross_ratio, g_orbit
from .configurations import OmegaError, concircular_quadruples, equivalent, \
    make_config, symmetries, u_orbit
from .family import ParameterError, analyze, genus, validate
from .moduli import _row_targets, classify_sigma, field_of_moduli, \
    stabilizer
from .descent import check_order, extend_cyclic, cocycle_check, \
    lift_to_monomial

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# the largest PSEUDOREAL_APPROX_BITS: a crossratio query at MAX_CONDUCTOR
# takes about 0.4 s there, and the enclosure's cost grows faster than the
# bits (a million bits did not finish in 20 s)
MAX_APPROX_BITS = 16384


def _approx_bits() -> int:
    """PSEUDOREAL_APPROX_BITS (default 64, at least 8); ValueError if it is
    not an integer or exceeds MAX_APPROX_BITS."""
    raw = os.environ.get("PSEUDOREAL_APPROX_BITS", "64")
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(
            f"PSEUDOREAL_APPROX_BITS must be an integer, got {raw!r}") from None
    if bits > MAX_APPROX_BITS:
        raise ValueError(f"PSEUDOREAL_APPROX_BITS must be at most "
                         f"{MAX_APPROX_BITS}, got {bits}")
    return max(bits, 8)


def _elt_doc(e: CycElt, bits: int) -> dict:
    return {"canonical": str(e), "conductor": e.n,
            "approx": str(approx(e, bits))}


def _map_doc(m: Moebius) -> dict:
    a, b, c, d = m.coefficients()
    return {"a": str(a), "b": str(b), "c": str(c), "d": str(d),
            "anti": m.conj_first, "display": str(m)}


def _subfield_doc(sf) -> dict:
    return {
        "conductor": sf.conductor,
        "fixing_subgroup": sorted(sf.subgroup),
        "degree": sf.degree,
        "primitive": str(sf.primitive),
        "minpoly": format_poly(sf.minpoly),
    }


def _parse_point(text: str, n: int) -> SpherePoint:
    if text.strip() == "inf":
        return INF
    return SpherePoint.of(make_element(text, n))


# -- subcommand handlers; each returns (exit_code, document) ---------------


def _cmd_crossratio(args):
    n = args.conductor
    pts = [_parse_point(t, n) for t in args.points]
    value = cross_ratio(*pts)
    orbit = g_orbit(value)
    return EXIT_OK, {
        "inputs": {"conductor": n, "points": [str(p) for p in pts]},
        "result": {
            "cross_ratio": _elt_doc(value, args.approx_bits),
            "real": value.conjugate() == value,
            "orbit": [str(v) for v in orbit],
        },
    }


def _cmd_circles(args):
    cfg = _config_from(args)
    quads = concircular_quadruples(cfg)
    return EXIT_OK, {
        "inputs": _config_inputs(args, cfg),
        "result": {
            "count": len(quads),
            "concircular_quadruples": [[str(p) for p in q]
                                       for q in quads],
        },
    }


def _cmd_orbit(args):
    cfg = _config_from(args)
    orbit = u_orbit(cfg)
    return EXIT_OK, {
        "inputs": _config_inputs(args, cfg),
        "result": {
            "size": len(orbit),
            "triples": [[str(v) for v in t] for t in orbit],
        },
    }


def _cmd_equiv(args):
    n = args.conductor
    c1 = make_config(*(make_element(t, n) for t in args.first))
    c2 = make_config(*(make_element(t, n) for t in args.second))
    witness = equivalent(c1, c2)
    return EXIT_OK, {
        "inputs": {"conductor": n,
                   "first": [str(v) for v in c1.triple()],
                   "second": [str(v) for v in c2.triple()]},
        "result": {
            "equivalent": witness is not None,
            "witness": _map_doc(witness) if witness is not None else None,
        },
    }


def _cmd_symmetries(args):
    cfg = _config_from(args)
    sym = symmetries(cfg)
    return EXIT_OK, {
        "inputs": _config_inputs(args, cfg),
        "result": {
            "conformal": [_map_doc(m) for m in sym.conformal],
            "anticonformal": [_map_doc(m) for m in sym.anticonformal],
            "anticonformal_squares": [_map_doc(m)
                                      for m in sym.anticonformal_squares],
        },
    }


def _cmd_validate(args):
    p = _family_from(args)
    return EXIT_OK, {
        "inputs": _family_inputs(args),
        "result": {"valid": True, "lambda": str(p.lam), "mu": str(p.mu),
                   "k": p.k},
    }


def _cmd_genus(args):
    return EXIT_OK, {
        "inputs": {"k": args.k},
        "result": {"genus": genus(args.k)},
    }


def _cmd_analyze(args):
    p = _family_from(args)
    rep = analyze(p)
    return EXIT_OK, {
        "inputs": _family_inputs(args),
        "result": {
            "aut_trivial": rep.aut_trivial,
            "anticonformal": [_map_doc(m) for m in rep.anti_symmetries],
            "pseudo_real": rep.pseudo_real,
            "genus": rep.genus,
            "alpha_power_constraints": {
                f"alpha{i}^{p.k}": str(v)
                for i, v in sorted(rep.alpha_constraints.items())},
            "obstruction": rep.obstruction,
        },
    }


def _cmd_classify(args):
    p = _family_from(args)
    cls = classify_sigma(p, GaloisElement(args.conductor, args.sigma))
    return EXIT_OK, {
        "inputs": {**_family_inputs(args), "sigma": args.sigma},
        "result": {
            "sigma_lambda": str(cls.sigma_lambda),
            "sigma_mu": str(cls.sigma_mu),
            "matched_rows": [str(r) for r in cls.matched_rows],
            "in_stabilizer": cls.in_stabilizer,
            "witness": _map_doc(cls.witness) if cls.witness else None,
            "brute_force_agree": cls.brute_force_agree,
        },
    }


def _cmd_stabilizer(args):
    p = _family_from(args)
    stab = stabilizer(p, args.conductor)
    return EXIT_OK, {
        "inputs": _family_inputs(args),
        "result": {"stabilizer": sorted(stab),
                   "order": len(stab)},
    }


def _cmd_moduli(args):
    p = _family_from(args)
    res = field_of_moduli(p, args.conductor)
    return EXIT_OK, {
        "inputs": _family_inputs(args),
        "result": {
            "stabilizer": sorted(res.stabilizer),
            "moduli_field": _subfield_doc(res.moduli_field),
            "hypothesis_r4_rational": res.hypothesis_r4_rational,
            "hypothesis_no_negation": res.hypothesis_no_negation,
            "min_def_field": _subfield_doc(res.min_def_field),
            "degree_over_moduli": res.degree_over_moduli,
        },
    }


def _lift_witness(p, g, inputs, message):
    """Classify sigma_g and lift its Moebius witness over Q(zeta_n):
    (witness, lift, None), or (None, None, the no_witness rejection)."""
    cls = classify_sigma(p, g)
    if cls.witness is None:
        return None, None, (EXIT_REJECTED, {
            "inputs": inputs,
            "error": {"kind": "no_witness", "message": message}})
    return cls.witness, lift_to_monomial(cls.witness, p, g, g.conductor), None


def _cmd_lift(args):
    p = _family_from(args)
    g = GaloisElement(args.conductor, args.sigma)
    inputs = {**_family_inputs(args), "sigma": args.sigma}
    witness, lift, rejected = _lift_witness(
        p, g, inputs, "sigma does not preserve the configuration class; "
                      "nothing to lift")
    if rejected:
        return rejected
    return EXIT_OK, {
        "inputs": inputs,
        "result": {
            "mobius_witness": _map_doc(witness),
            "coordinate_permutation": [i + 1 for i in lift.perm],
            "scale_powers": [str(v) for v in lift.powers],
            "count": len(lift.isos),
            "isomorphisms": [str(f) for f in lift.isos],
            "missing_roots": [str(msg) for msg in lift.missing],
        },
    }


def _cmd_weil_check(args):
    n = args.conductor
    p = _family_from(args)
    g = GaloisElement(n, args.generator)
    check_order(args.generator, args.order, n)
    inputs = {**_family_inputs(args), "generator": args.generator,
              "order": args.order}
    witness, lift, rejected = _lift_witness(
        p, g, inputs, "generator does not preserve the configuration class")
    if rejected:
        return rejected
    candidates = []
    closing = 0
    for f in lift.isos:
        datum = extend_cyclic(f, args.generator, args.order, p, n)
        chk = cocycle_check(datum)
        closing += 1 if chk.ok else 0
        candidates.append({
            "map": str(f),
            "closes": datum.closes,
            "cocycle_ok": chk.ok,
            "failing_pair": list(chk.failing) if chk.failing else None,
        })
    return EXIT_OK, {
        "inputs": inputs,
        "result": {
            "mobius_witness": _map_doc(witness),
            "candidates": candidates,
            "candidate_count": len(candidates),
            "closing_count": closing,
            "missing_roots": [str(msg) for msg in lift.missing],
            "descends": closing > 0,
        },
    }


def _config_from(args):
    n = args.conductor
    return make_config(make_element(args.lambda1, n),
                       make_element(args.lambda2, n),
                       make_element(args.lambda3, n))


def _family_from(args):
    n = args.conductor
    return validate(make_element(args.lam, n), make_element(args.mu, n),
                    args.k)


def _config_inputs(args, cfg):
    return {"conductor": args.conductor,
            "lambda1": str(cfg.lambda1), "lambda2": str(cfg.lambda2),
            "lambda3": str(cfg.lambda3)}


def _family_inputs(args):
    return {"conductor": args.conductor, "k": args.k,
            "lambda": args.lam, "mu": args.mu}


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pseudoreal",
        description="Exact computations on six-branch-point configurations, "
                    "their moduli fields, and Galois descent data.")
    top.add_argument("--output", choices=("human", "structured"),
                     default="human", help="report format")
    sub = top.add_subparsers(dest="command", required=True)

    def add_conductor(p):
        p.add_argument("--conductor", type=int, required=True,
                       help="ambient cyclotomic field Q(zeta_n)")

    def add_family(p):
        add_conductor(p)
        p.add_argument("--k", type=int, required=True,
                       help="even exponent k >= 2")
        p.add_argument("--lambda", dest="lam", required=True,
                       help="element expression for lambda = -r^2")
        p.add_argument("--mu", required=True,
                       help="element expression for mu = r e^(i theta)")

    def add_config(p):
        add_conductor(p)
        for i in (1, 2, 3):
            p.add_argument(f"--lambda{i}", dest=f"lambda{i}", required=True)

    p = sub.add_parser("crossratio", help="cross-ratio of four points")
    add_conductor(p)
    p.add_argument("points", nargs=4,
                   help="four points (element expressions or 'inf')")
    p.set_defaults(handler=_cmd_crossratio)

    p = sub.add_parser("circles",
                       help="concircular four-point subsets of a configuration")
    add_config(p)
    p.set_defaults(handler=_cmd_circles)

    p = sub.add_parser("orbit", help="relabeling orbit of a configuration")
    add_config(p)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("equiv",
                       help="conformal equivalence of two configurations")
    add_conductor(p)
    p.add_argument("first", nargs=3, help="lambda1 lambda2 lambda3")
    p.add_argument("second", nargs=3, help="lambda1 lambda2 lambda3")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("symmetries",
                       help="maps preserving the six-point set")
    add_config(p)
    p.set_defaults(handler=_cmd_symmetries)

    p = sub.add_parser("validate", help="check family parameters")
    add_family(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("genus", help="genus of the curve for exponent k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("analyze",
                       help="symmetry and pseudo-reality report")
    add_family(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("classify",
                       help="match one Galois element against the table")
    add_family(p)
    p.add_argument("--sigma", type=int, required=True,
                   help="exponent a of zeta -> zeta^a")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("stabilizer",
                       help="Galois exponents preserving the class")
    add_family(p)
    p.set_defaults(handler=_cmd_stabilizer)

    p = sub.add_parser("moduli",
                       help="field of moduli and minimal definition field")
    add_family(p)
    p.set_defaults(handler=_cmd_moduli)

    p = sub.add_parser("lift",
                       help="monomial isomorphisms over the witness map")
    add_family(p)
    p.add_argument("--sigma", type=int, required=True)
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("weil-check",
                       help="extend a lift along a cyclic group and verify "
                            "the descent cocycle")
    add_family(p)
    p.add_argument("--generator", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_weil_check)

    return top


def _emit_human(doc: dict, out):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)):
                    out.write(f"{pad}{key}:\n")
                    walk(val, indent + 1)
                else:
                    out.write(f"{pad}{key}: {val}\n")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    out.write(f"{pad}-\n")
                    walk(val, indent + 1)
                else:
                    out.write(f"{pad}- {val}\n")
        else:
            out.write(f"{pad}{obj}\n")

    walk(doc)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        bits = _approx_bits()
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"pseudoreal: {exc}\n")
    args = parser.parse_args(argv)
    args.approx_bits = bits
    # one query, one process: nothing is remembered from an earlier query
    _triple_index.cache_clear()
    _row_targets.cache_clear()
    try:
        code, doc = args.handler(args)
    except (ParseError, ZeroDivisionError) as exc:
        parser.exit(EXIT_USAGE, f"pseudoreal: bad element expression: {exc}\n")
    except (OmegaError, ParameterError, LimitError) as exc:
        doc = {"command": args.command,
               "error": {"kind": exc.clause, "message": str(exc)},
               "status": "rejected"}
        code = EXIT_REJECTED
    except AssertionError as exc:  # OracleDisagreement included
        doc = {"command": args.command,
               "error": {"kind": "internal_error",
                         "message": f"{type(exc).__name__}: {exc}"},
               "status": "internal_error"}
        code = EXIT_INTERNAL
    except (CycError, ValueError) as exc:
        doc = {"command": args.command,
               "error": {"kind": "domain", "message": str(exc)},
               "status": "rejected"}
        code = EXIT_REJECTED
    else:
        status = "ok" if code == EXIT_OK else "rejected"
        doc = {"command": args.command, "status": status, **doc}

    if args.output == "structured":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _emit_human(doc, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
