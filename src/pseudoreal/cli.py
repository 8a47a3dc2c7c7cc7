"""Command-line interface.

Each subcommand is declared once, in SUBCOMMANDS.  Every invocation
prints one document: inputs echoed in canonical form, results, witnesses
(Moebius maps as four canonical coefficients plus an anti flag), and
diagnostics.  `--output structured` emits JSON with sorted keys, so
identical invocations are byte-identical.  Exit codes: 0 success, 1 domain
rejection (including a conductor above MAX_CONDUCTOR, clause
conductor_limit, checked before any operand, and an element expression
above MAX_SIZE_BITS or a result too large to print, integers in the
document included, clause size_limit, a lift of more than MAX_LIFTS
maps, clause lift_limit, and a k-th root search past the factorization
bounds of `kth_roots`, clause root_limit), 2 usage error, 3 internal
error (a failed internal cross-check, reported with status and error
kind internal_error).  Every exit-1 document has status rejected.
`weil-check`'s `descends` is `closing_count > 0`: with missing roots it
reads false, which says only that no monomial datum is defined over
Q(zeta_n), not that the curve has no model over the fixed field.  The
environment variable PSEUDOREAL_APPROX_BITS (default 64) sets the
precision of the certified decimal approximations included in reports; a
value that is not an integer or exceeds MAX_APPROX_BITS is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cyclotomic import CycError, GaloisElement, ParseError, \
    _print_limit, approx, check_conductor, format_poly, make_element
from .moebius import INF, Moebius, SpherePoint, cross_ratio, g_orbit
from .configurations import concircular_quadruples, equivalent, \
    make_config, symmetries, u_orbit
from .family import analyze, genus, validate
from .moduli import classify_sigma, field_of_moduli, stabilizer
from .descent import check_order, extend_cyclic, cocycle_check, \
    lift_to_monomial, torsor_verdicts

__all__ = ["main", "build_parser", "SUBCOMMANDS"]

_escape = json.encoder.encode_basestring_ascii

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


# -- operands: each kind is (prelude, its arguments...); the prelude parses
# the arguments into (operand, inputs echo) ---------------------------------


def _arg(*flags, **spec):
    """One argument, as the parts of its add_argument call."""
    return flags, spec


_CONDUCTOR = _arg("--conductor", type=int, required=True,
                  help="ambient cyclotomic field Q(zeta_n)")


def _family(args):
    """The validated family; its echo keeps the expressions as given."""
    n = args.conductor
    p = validate(make_element(args.lam, n), make_element(args.mu, n), args.k)
    return p, {"conductor": n, "k": args.k, "lambda": args.lam, "mu": args.mu}


def _config(args):
    n = args.conductor
    cfg = make_config(make_element(args.lambda1, n),
                      make_element(args.lambda2, n),
                      make_element(args.lambda3, n))
    return cfg, {"conductor": n, "lambda1": str(cfg.lambda1),
                 "lambda2": str(cfg.lambda2), "lambda3": str(cfg.lambda3)}


def _config_pair(args):
    n = args.conductor
    pair = [make_config(*(make_element(t, n) for t in triple))
            for triple in (args.first, args.second)]
    return pair, {"conductor": n,
                  "first": [str(v) for v in pair[0].triple()],
                  "second": [str(v) for v in pair[1].triple()]}


def _points(args):
    n = args.conductor
    pts = [INF if t.strip() == "inf" else SpherePoint.of(make_element(t, n))
           for t in args.points]
    return pts, {"conductor": n, "points": [str(p) for p in pts]}


_FAMILY = (_family, _CONDUCTOR,
           _arg("--k", type=int, required=True, help="even exponent k >= 2"),
           _arg("--lambda", dest="lam", required=True,
                help="element expression for lambda = -r^2"),
           _arg("--mu", required=True,
                help="element expression for mu = r e^(i theta)"))
_CONFIG = (_config, _CONDUCTOR,
           *(_arg(f"--lambda{i}", required=True) for i in (1, 2, 3)))
_CONFIG_PAIR = (_config_pair, _CONDUCTOR,
                *(_arg(name, nargs=3, help="lambda1 lambda2 lambda3")
                  for name in ("first", "second")))
_POINTS = (_points, _CONDUCTOR,
           _arg("points", nargs=4,
                help="four points (element expressions or 'inf')"))
_EXPONENT = (lambda args: (args.k, {"k": args.k}),
             _arg("--k", type=int, required=True))
_SIGMA = _arg("--sigma", type=int, required=True,
              help="exponent a of zeta -> zeta^a")


# -- subcommand handlers; each takes its operand and returns its result -----


class _NoWitness(Exception):
    """The Galois element does not preserve the configuration class."""


def _cmd_crossratio(pts, args):
    value = cross_ratio(*pts)
    orbit = g_orbit(value)
    return {"cross_ratio": {"canonical": str(value), "conductor": value.n,
                            "approx": str(approx(value, args.approx_bits))},
            "real": value.conjugate() == value,
            "orbit": [str(v) for v in orbit]}


def _cmd_circles(cfg, args):
    quads = concircular_quadruples(cfg)
    return {"count": len(quads),
            "concircular_quadruples": [[str(p) for p in q] for q in quads]}


def _cmd_orbit(cfg, args):
    orbit = u_orbit(cfg)
    # the triples share at most 90 elements: print each once
    distinct = {id(v): v for t in orbit for v in t}
    text = {i: str(v) for i, v in distinct.items()}
    return {"size": len(orbit),
            "triples": [[text[id(v)] for v in t] for t in orbit]}


def _cmd_equiv(pair, args):
    witness = equivalent(*pair)
    return {"equivalent": witness is not None,
            "witness": _map_doc(witness) if witness is not None else None}


def _cmd_symmetries(cfg, args):
    sym = symmetries(cfg)
    return {"conformal": [_map_doc(m) for m in sym.conformal],
            "anticonformal": [_map_doc(m) for m in sym.anticonformal],
            "anticonformal_squares": [_map_doc(m)
                                      for m in sym.anticonformal_squares]}


def _cmd_validate(p, args):
    return {"valid": True, "lambda": str(p.lam), "mu": str(p.mu), "k": p.k}


def _cmd_genus(k, args):
    return {"genus": genus(k)}


def _cmd_analyze(p, args):
    rep = analyze(p)
    return {
        "aut_trivial": rep.aut_trivial,
        "anticonformal": [_map_doc(m) for m in rep.anti_symmetries],
        "pseudo_real": rep.pseudo_real,
        "genus": rep.genus,
        "alpha_power_constraints": {
            f"alpha{i}^{p.k}": str(v)
            for i, v in sorted(rep.alpha_constraints.items())},
        "obstruction": rep.obstruction,
    }


def _cmd_classify(p, args):
    cls = classify_sigma(p, GaloisElement(args.conductor, args.sigma))
    return {
        "sigma_lambda": str(cls.sigma_lambda),
        "sigma_mu": str(cls.sigma_mu),
        "matched_rows": [str(r) for r in cls.matched_rows],
        "in_stabilizer": cls.in_stabilizer,
        "witness": _map_doc(cls.witness) if cls.witness else None,
        "brute_force_agree": cls.brute_force_agree,
    }


def _cmd_stabilizer(p, args):
    stab = stabilizer(p, args.conductor)
    return {"stabilizer": sorted(stab), "order": len(stab)}


def _cmd_moduli(p, args):
    res = field_of_moduli(p, args.conductor)
    return {
        "stabilizer": sorted(res.stabilizer),
        "moduli_field": _subfield_doc(res.moduli_field),
        "hypothesis_r4_rational": res.hypothesis_r4_rational,
        "hypothesis_no_negation": res.hypothesis_no_negation,
        "min_def_field": _subfield_doc(res.min_def_field),
        "degree_over_moduli": res.degree_over_moduli,
    }


def _lift_witness(p, g, message):
    """Classify sigma_g and lift its Moebius witness over Q(zeta_n):
    (witness, lift); _NoWitness(message) when there is no witness."""
    cls = classify_sigma(p, g)
    if cls.witness is None:
        raise _NoWitness(message)
    return cls.witness, lift_to_monomial(cls.witness, p, g, g.conductor)


def _cmd_lift(p, args):
    witness, lift = _lift_witness(
        p, GaloisElement(args.conductor, args.sigma),
        "sigma does not preserve the configuration class; nothing to lift")
    return {
        "mobius_witness": _map_doc(witness),
        "coordinate_permutation": [i + 1 for i in lift.perm],
        "scale_powers": [str(v) for v in lift.powers],
        "count": len(lift.isos),
        "isomorphisms": lift.texts(),
        "missing_roots": [str(msg) for msg in lift.missing],
    }


def _cmd_weil_check(p, args):
    n, g, d = args.conductor, args.generator, args.order
    sigma = GaloisElement(n, g)
    check_order(g, d, n)
    witness, lift = _lift_witness(
        p, sigma, "generator does not preserve the configuration class")
    verdicts = []
    if lift.isos:
        # the datum of f0, the first map, certifies f_g's transport and gives
        # the closure that every verdict is read from; its cocycle check
        # decides f0 again
        datum = extend_cyclic(lift.isos[0], g, d, p, n)
        verdicts = torsor_verdicts(lift, datum)
        chk = cocycle_check(datum)
        if (datum.closes, chk.ok, chk.failing) != verdicts[0]:
            raise AssertionError(
                f"the deck-group verdict {verdicts[0]} disagrees with the "
                f"cocycle check of the first candidate's datum")
    candidates = [{
        "map": text,
        "closes": closes,
        "cocycle_ok": ok,
        "failing_pair": list(pair) if pair else None,
    } for text, (closes, ok, pair) in zip(lift.texts(), verdicts)]
    closing = sum(c["cocycle_ok"] for c in candidates)
    return {
        "mobius_witness": _map_doc(witness),
        "candidates": candidates,
        "candidate_count": len(candidates),
        "closing_count": closing,
        "missing_roots": [str(msg) for msg in lift.missing],
        "descends": closing > 0,
    }


# -- argument parsing --------------------------------------------------------

# Every subcommand, declared once: (name, help, arguments, handler).  The
# arguments are an operand kind, then the subcommand's own options, each
# echoed as given under its name.  The handlers look library functions up
# in this module's globals when they run, so that a re-bound name (a
# tracer's span, a test's stub) is the one called.
SUBCOMMANDS = (
    ("crossratio", "cross-ratio of four points", (_POINTS,),
     _cmd_crossratio),
    ("circles", "concircular four-point subsets of a configuration",
     (_CONFIG,), _cmd_circles),
    ("orbit", "relabeling orbit of a configuration", (_CONFIG,), _cmd_orbit),
    ("equiv", "conformal equivalence of two configurations",
     (_CONFIG_PAIR,), _cmd_equiv),
    ("symmetries", "maps preserving the six-point set", (_CONFIG,),
     _cmd_symmetries),
    ("validate", "check family parameters", (_FAMILY,), _cmd_validate),
    ("genus", "genus of the curve for exponent k", (_EXPONENT,), _cmd_genus),
    ("analyze", "symmetry and pseudo-reality report", (_FAMILY,),
     _cmd_analyze),
    ("classify", "match one Galois element against the table",
     (_FAMILY, _SIGMA), _cmd_classify),
    ("stabilizer", "Galois exponents preserving the class", (_FAMILY,),
     _cmd_stabilizer),
    ("moduli", "field of moduli and minimal definition field", (_FAMILY,),
     _cmd_moduli),
    ("lift", "monomial isomorphisms over the witness map",
     (_FAMILY, _SIGMA), _cmd_lift),
    ("weil-check", "extend a lift along a cyclic group and verify the "
                   "descent cocycle",
     (_FAMILY, _arg("--generator", type=int, required=True),
      _arg("--order", type=int, required=True)), _cmd_weil_check),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of SUBCOMMANDS, built once per process and shared by
    every call of main."""
    top = argparse.ArgumentParser(
        prog="pseudoreal",
        description="Exact computations on six-branch-point configurations, "
                    "their moduli fields, and Galois descent data.")
    top.add_argument("--output", choices=("human", "structured"),
                     default="human", help="report format")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        (prelude, *operand_arguments), *options = arguments
        for flags, spec in (*operand_arguments, *options):
            p.add_argument(*flags, **spec)
        p.set_defaults(prelude=prelude, options=options, handler=handler)
    return top


def _human(doc: dict) -> str:
    """Indented `key: value` and `- item` lines, in key insertion order."""
    lines = []

    def walk(obj, pad):
        labelled = (((f"{key}:", val) for key, val in obj.items())
                    if isinstance(obj, dict) else (("-", val) for val in obj))
        for label, val in labelled:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{label}\n")
                walk(val, pad + "  ")
            else:
                lines.append(f"{pad}{label} {val}\n")

    walk(doc, "")
    return "".join(lines)


def _structured(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, at the
    indentation `pad`.  With `indent` set, json runs its pure-Python
    encoder; this writer takes json's own type dispatch for dicts with str
    keys, lists and tuples, str (through json's C-accelerated escaper),
    None, bools and ints, and hands any other value to json.dumps."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # a str item is escaped in place, without a call per leaf
        items = [_escape(v) if type(v) is str else _structured(v, inner)
                 for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        items = [f"{_escape(k)}: {_structured(obj[k], inner)}"
                 for k in sorted(obj)]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    # json escapes every newline inside a string, so each one here starts
    # a line to indent
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _render(doc: dict, output: str) -> str:
    if output == "structured":
        return _structured(doc) + "\n"
    return _human(doc)


def _error_doc(command: str, kind: str, message: str, status: str) -> dict:
    return {"command": command, "error": {"kind": kind, "message": message},
            "status": status}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        bits = _approx_bits()
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"pseudoreal: {exc}\n")
    args = parser.parse_args(argv)
    args.approx_bits = bits
    try:
        if "conductor" in args:  # before any operand is parsed
            check_conductor(args.conductor)
        operand, inputs = args.prelude(args)
        for flags, _ in args.options:
            name = flags[0].lstrip("-")
            inputs[name] = getattr(args, name)
        code, doc = EXIT_OK, {"command": args.command, "status": "ok",
                              "inputs": inputs,
                              "result": args.handler(operand, args)}
    except (ParseError, ZeroDivisionError) as exc:
        parser.exit(EXIT_USAGE, f"pseudoreal: bad element expression: {exc}\n")
    except AssertionError as exc:  # OracleDisagreement included
        code, doc = EXIT_INTERNAL, _error_doc(
            args.command, "internal_error", f"{type(exc).__name__}: {exc}",
            "internal_error")
    except _NoWitness as exc:
        code, doc = EXIT_REJECTED, {
            "command": args.command, "status": "rejected", "inputs": inputs,
            "error": {"kind": "no_witness", "message": str(exc)}}
    except (CycError, ValueError) as exc:  # OmegaError, ParameterError too
        # the kind is the error's clause, or domain when it names none
        code, doc = EXIT_REJECTED, _error_doc(
            args.command, getattr(exc, "clause", "domain"), str(exc),
            "rejected")
    try:
        text = _render(doc, args.output)
    except ValueError:  # an integer past Python's int-to-string limit
        exc = _print_limit("an integer")
        code, doc = EXIT_REJECTED, _error_doc(args.command, exc.clause,
                                              str(exc), "rejected")
        text = _render(doc, args.output)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
