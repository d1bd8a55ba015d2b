"""Command line front end.

Every subcommand wraps exactly one library operation (verify-all wraps
the acceptance suite).  --json switches to the documented JSON schemas.
Exit codes: 0 success, 1 domain/validation error (non-member matrix,
coset cap, out-of-domain parameter), 2 malformed input (bad word syntax,
undecodable JSON, unknown subcommand, a --max-cosets below 1, an option
the call does not read).  For a JSON argument, wrong types exit 2 and
wrong values exit 1: a document is an object holding only objects, lists
and integers, so any other leaf, a missing field or a field of the wrong
container or length exits 2, while a wrong determinant, an out-of-range
value, a repeat or mismatched sizes exit 1.  Every malformed-input error
is an errors.ParseError.  Each handler imports the one module it runs, so
a call loads only what it needs: `json` only when it reads a JSON
argument or prints --json output.  A well-formed call is read straight
from _SUBCOMMANDS, and `argparse` loads only to print help or a usage
error.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import ParseError


class ParseInputError(ParseError):
    pass


def _load_json(text: str) -> dict:
    """The JSON object in `text`; every leaf must be an integer."""
    import json

    # an integer past the digit limit raises ValueError, nesting past the
    # recursion limit RecursionError; both are undecodable documents
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseInputError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseInputError("expected a JSON object")
    todo = [data]
    for value in todo:
        if isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, list):
            todo.extend(value)
        # bool is an int subclass, so true/false would pass every integer check
        elif isinstance(value, bool):
            raise ParseInputError("JSON booleans are not accepted; use 0 and 1")
        elif not isinstance(value, int):
            raise ParseInputError(f"expected an integer, got {json.dumps(value)}")
    return data


def _list(data: dict, key: str, rows: bool = False) -> tuple:
    value = data.get(key)
    if not isinstance(value, list) or rows and not all(isinstance(r, list) for r in value):
        raise ParseInputError(f"expected a JSON list{' of lists' if rows else ''} at {key!r}")
    return tuple(tuple(r) for r in value) if rows else tuple(value)


def _refinement_from_json(text: str) -> f2_forms.QuadraticRefinement:
    from . import f2_forms

    data = _load_json(text)
    values = _list(data, "basis_values")
    if "gram" in data:
        space = f2_forms.SymplecticSpaceF2(_list(data, "gram", rows=True))
    else:
        if len(values) % 2:
            raise ParseInputError("basis_values length must be even")
        space = f2_forms.standard_space(len(values) // 2)
    return f2_forms.QuadraticRefinement(space, values)


def _group_from_arg(text: str) -> smallgrp.MulTableGroup:
    """Named shorthand (cyclic:n, dihedral:n, quaternion:8, klein, trivial,
    e-even) or a JSON table {"table": [[...]]}."""
    from . import smallgrp

    if text.lstrip().startswith("{"):
        return smallgrp.MulTableGroup(_list(_load_json(text), "table", rows=True))
    name, colon, arg = text.partition(":")
    builders = {"klein": smallgrp.klein, "trivial": lambda: smallgrp.cyclic(1),
                "e-even": smallgrp.build_E_even}
    if name in builders and not colon:
        return builders[name]()
    sized = {"cyclic": smallgrp.cyclic, "dihedral": smallgrp.dihedral,
             "quaternion": smallgrp.quaternion}
    if name in sized and colon:
        try:
            n = int(arg)
        except ValueError:
            raise ParseInputError(f"bad group size in {text!r}") from None
        return sized[name](n)
    raise ParseInputError(f"unknown group shorthand {text!r}")


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload))


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        _print_json(payload)
    else:
        print(text)


def cmd_arf(args) -> int:
    from . import f2_forms

    q = _refinement_from_json(args.refinement)
    value = f2_forms.arf(q)
    _emit(args, {"arf": value}, str(value))
    return 0


def _print_elements(args, elems, payload: dict, listed: bool) -> None:
    """Print the order and, if listed, the matrices: one a line, or under "elements"."""
    payload["order"] = len(elems)
    if args.json:
        if listed:
            payload["elements"] = [[list(row) for row in s.matrix] for s in elems]
        _print_json(payload)
    else:
        print(f"order {len(elems)}")
        for s in elems if listed else ():
            print(" / ".join(" ".join(str(e) for e in row) for row in s.matrix))


def cmd_stabilizer(args) -> int:
    from . import f2_forms

    q = _refinement_from_json(args.refinement)
    _print_elements(args, f2_forms.stabilizer(q), {}, True)
    return 0


def cmd_orbit(args) -> int:
    from . import f2_forms

    q = _refinement_from_json(args.refinement)
    elems = f2_forms.orbit(q)
    values = [list(t.basis_values) for t in elems]
    if args.json:
        _print_json({"order": len(elems), "elements": values})
    else:
        print(f"order {len(elems)}")
        for v in values:
            print(" ".join(str(e) for e in v))
    return 0


def cmd_enumerate_sp(args) -> int:
    from . import f2_forms

    _print_elements(args, f2_forms.enumerate_sp(args.k), {"k": args.k}, not args.count)
    return 0


def cmd_member(args) -> int:
    from . import sl2z

    m = sl2z.UniModMat2.from_json(_load_json(args.matrix))
    result = sl2z.is_member(m)
    _emit(args, {"member": result}, "true" if result else "false")
    return 0


def cmd_mod2(args) -> int:
    from . import sl2z

    m = sl2z.UniModMat2.from_json(_load_json(args.matrix))
    cls = sl2z.reduce_mod2(m)
    _emit(args, {"class": cls}, cls)
    return 0


def cmd_decompose(args) -> int:
    from . import sl2z

    word = sl2z.decompose(sl2z.UniModMat2.from_json(_load_json(args.matrix)))
    _emit(args, {"word": str(word), "sign": word.sign,
                 "tokens": [[g, e] for g, e in word.tokens]}, str(word))
    return 0


def cmd_eval_word(args) -> int:
    from . import sl2z

    word = sl2z.parse_word(args.word)
    m = sl2z.eval_word(word)
    _emit(args, m.to_json(), f"{m.a} {m.b} / {m.c} {m.d}")
    return 0


def cmd_coset_enum(args) -> int:
    from . import smallgrp

    if args.max_cosets < 1:
        raise ParseInputError(f"--max-cosets must be positive, got {args.max_cosets}")
    pres = smallgrp.parse_presentation(args.presentation)
    group = smallgrp.todd_coxeter(pres, max_cosets=args.max_cosets)
    _emit(args, {"order": group.order, "generators": list(pres.generators)},
          f"order {group.order}")
    return 0


def cmd_isomorphic(args) -> int:
    from . import smallgrp

    g = _group_from_arg(args.first)
    h = _group_from_arg(args.second)
    ok, witness = smallgrp.is_isomorphic(g, h)
    _emit(args, {"isomorphic": ok,
                 "witness": list(witness) if witness else None},
          "true" if ok else "false")
    return 0


def _build_variant(variant: str, p: int, q: int | None) -> ambient_geom.SignedPermMatrix:
    from . import ambient_geom

    if variant == "plain":
        return ambient_geom.build_omega(p)
    if variant == "hat":
        return ambient_geom.build_omega_hat(p)
    return ambient_geom.build_omega_prime(p, q if q is not None else p)


def cmd_build_omega(args) -> int:
    if args.q is not None and args.variant != "prime":
        raise ParseInputError(f"--q is read only with --variant prime, not {args.variant}")
    m = _build_variant(args.variant, args.p, args.q)
    if args.json:
        _print_json(m.to_json())
    else:
        print(f"size {m.size}, determinant {m.determinant()}, order {m.order()}")
        for row, (col, sign) in enumerate(m.image):
            print(f"{row} -> {col} ({'+' if sign > 0 else '-'})")
    return 0


def cmd_induced_action(args) -> int:
    from . import ambient_geom

    if args.matrix is None and args.variant is None:
        raise ParseInputError("give a sparse matrix JSON or --variant")
    if args.matrix is not None and args.variant is not None:
        raise ParseInputError("give a sparse matrix JSON or --variant, not both")
    if args.p is None:
        raise ParseInputError("--p is required with "
                              + ("--variant" if args.matrix is None else "an explicit matrix"))
    if args.matrix is None:
        m = _build_variant(args.variant, args.p, args.q)
    else:
        m = ambient_geom.SignedPermMatrix.from_json(_load_json(args.matrix))
    desc = ambient_geom.restrict_to_product(m, args.p, args.p if args.q is None else args.q)
    action = ambient_geom.induced_homology_action(desc)
    _emit(args, {"rows": [list(r) for r in action.rows]},
          " / ".join(" ".join(str(e) for e in row) for row in action.rows))
    return 0


# --family value -> the flags that give its dimensions, in order; also the
# --family choices
FAMILIES = {
    "unknot-sphere": ("n",),
    "equal-product": ("p",),
    "unequal-product": ("p", "q"),
    "adjacent-product": ("p",),
}


def cmd_classify(args) -> int:
    from . import classifier

    flags = FAMILIES[args.family]
    values = [getattr(args, f) for f in flags]
    if None in values:
        names = " and ".join(f"--{f}" for f in flags)
        raise ParseInputError(
            f"{names} {'are' if len(flags) > 1 else 'is'} required for {args.family}")
    unread = [f"--{f}" for f in ("n", "p", "q") if f not in flags and getattr(args, f) is not None]
    if unread:
        raise ParseInputError(f"{args.family} does not read {' or '.join(unread)}")
    family = classifier.KnotFamily(args.family, values)
    result = classifier.classify(family).to_json()
    if args.json:
        _print_json(result)
    else:
        print(result["manifold"])
        for label in ("image", "kernel", "total"):
            value = result[label]
            extra = f" ({result[label + '_reason']})" if value is None else ""
            print(f"  {label}: {value if value is not None else 'unknown'}{extra}")
        splits = result["splits"]
        print(f"  splits: {'unknown' if splits is None else splits}")
        print(f"  citations: {', '.join(result['citations'])}")
    return 0


def cmd_verify_all(args) -> int:
    from . import verify

    results = verify.run_all()
    if args.json:
        _print_json([{"name": r.name, "passed": r.passed,
                      "detail": r.detail, "citations": list(r.citations)}
                     for r in results])
    else:
        print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_VARIANTS = ("plain", "hat", "prime")

# subcommand -> (help text, its arguments besides --json); the handler is
# cmd_<name with "_" for "-">, looked up when a call is read
_SUBCOMMANDS = {
    "arf": ("Arf invariant of a quadratic refinement",
            [_arg("refinement", help='{"basis_values": [...], "gram": optional}')]),
    "stabilizer": ("symplectic stabilizer of a refinement", [_arg("refinement")]),
    "orbit": ("symplectic orbit of a refinement", [_arg("refinement")]),
    "enumerate-sp": ("list Sp(2k,2)",
                     [_arg("--k", type=int, required=True),
                      _arg("--count", action="store_true", help="order only")]),
    "member": ("row products both even?",
               [_arg("matrix", help='{"rows": [[a, b], [c, d]]}')]),
    "mod2": ("congruence class mod 2 (Id, V or Other)", [_arg("matrix")]),
    "decompose": ("normal-form word for a member matrix", [_arg("matrix")]),
    "eval-word": ("multiply out a word in V and T",
                  [_arg("word", help="e.g. 'V T^2' or '- V T^-1' or 'e'")]),
    "coset-enum": ("order of a finitely presented group",
                   [_arg("presentation", help="'gens: a,b; rels: a^2, [a,b]'"),
                    _arg("--max-cosets", type=int, default=100_000)]),
    "isomorphic": ("isomorphism test for small groups",
                   [_arg("first", help="cyclic:n, dihedral:n, quaternion:8, klein, "
                                       "trivial, e-even, or JSON table"),
                    _arg("second")]),
    "build-omega": ("ambient rotation matrices",
                    [_arg("--p", type=int, required=True), _arg("--q", type=int),
                     _arg("--variant", choices=_VARIANTS, default="plain")]),
    "induced-action": ("2x2 homology action",
                       [_arg("matrix", nargs="?", help="sparse signed permutation JSON"),
                        _arg("--p", type=int), _arg("--q", type=int),
                        _arg("--variant", choices=_VARIANTS)]),
    "classify": ("image / kernel / total classification",
                 [_arg("--family", required=True, choices=tuple(FAMILIES)),
                  _arg("--n", type=int), _arg("--p", type=int), _arg("--q", type=int)]),
    "verify-all": ("run the acceptance checks", []),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser: it prints help and usage errors, and it is the
    reference _read_argv follows."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="extmcg",
        description="exact algebra for extendable mapping class groups of "
                    "sphere products")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() would return for a well-formed call,
    read straight from _SUBCOMMANDS, or None for anything else: help, an
    abbreviated or unknown option, `--opt=value`, `--`, a repeated option,
    a value that starts with "-" or fails int() or choices, a missing
    required option or a wrong number of positionals."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    name = argv[0]
    options = {"--json": ("json", {"action": "store_true"})}
    positionals = []
    for (flag,), kwargs in _SUBCOMMANDS[name][1]:
        if flag.startswith("-"):
            options[flag] = (flag[2:].replace("-", "_"), kwargs)
        else:
            positionals.append((flag, kwargs))
    args, given = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        # argparse reads a "-" token as an argument when its name (before any
        # "=") holds a space, unless it is "-h" joined to a value; "-", "--"
        # and negative numbers are left to argparse
        if token[:1] != "-" or " " in token.split("=", 1)[0] and token[:2] != "-h":
            given.append(token)
            continue
        if token not in options or options[token][0] in args:
            return None
        dest, spec = options[token]
        if spec.get("action") == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused like "-x"
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if value not in spec.get("choices", (value,)):
            return None
        args[dest] = value
    for dest, spec in options.values():
        if dest not in args:
            if spec.get("required"):
                return None
            args[dest] = False if spec.get("action") == "store_true" else spec.get("default")
    if len(given) > len(positionals):
        return None
    for i, (dest, spec) in enumerate(positionals):
        if i >= len(given) and spec.get("nargs") != "?":
            return None
        args[dest] = given[i] if i < len(given) else spec.get("default")
    return SimpleNamespace(command=name, fn=globals()["cmd_" + name.replace("-", "_")],
                           **args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:  # help, a usage error, or a form only argparse reads
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
