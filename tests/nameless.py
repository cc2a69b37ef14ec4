"""Independent nameless-index (de Bruijn) encoding used as a test oracle.

Terms convert to nested tuples where bound variables are indices counted
from the nearest enclosing binder and free variables stay as names. With
that split, substituting a term for a free name needs no index shifting,
which makes the oracle substitution too simple to share bugs with the
kernel's capture-avoiding named substitution.
"""
from __future__ import annotations

from pielang import App, Constr, Fix, Ind, Lam, Match, Name, Pi, Term, Universe, Var


def _key(n: Name) -> tuple[str, int]:
    return (n.text, n.fresh_tag)


def to_nameless(t: Term, env: dict | None = None, depth: int = 0):
    """Convert a named term to the tuple encoding. env maps each bound
    name to the depth at which its binder was entered."""
    if env is None:
        env = {}
    match t:
        case Var(name=n):
            if n in env:
                return ("b", depth - env[n] - 1)
            return ("f", _key(n))
        case Universe(level=i):
            return ("u", i)
        case Lam(binder=x, domain=d, body=b):
            inner = {**env, x: depth}
            return ("lam", to_nameless(d, env, depth), to_nameless(b, inner, depth + 1))
        case Pi(binder=x, domain=d, body=b):
            inner = {**env, x: depth}
            return ("pi", to_nameless(d, env, depth), to_nameless(b, inner, depth + 1))
        case App(fn=f, arg=a):
            return ("app", to_nameless(f, env, depth), to_nameless(a, env, depth))
        case Ind(name=n, arity=a, constructors=cs):
            inner = {**env, n: depth}
            return (
                "ind",
                to_nameless(a, env, depth),
                tuple(
                    (_key(cn), to_nameless(ct, inner, depth + 1)) for cn, ct in cs
                ),
            )
        case Constr(index=i, inductive=ind):
            return ("constr", i, to_nameless(ind, env, depth))
        case Match(carrier=c, scrutinee=s, branches=bs):
            return (
                "match",
                to_nameless(c, env, depth),
                to_nameless(s, env, depth),
                tuple((_key(bn), to_nameless(bb, env, depth)) for bn, bb in bs),
            )
        case Fix(name=n, dec_index=k, signature=s, body=b):
            inner = {**env, n: depth}
            return (
                "fix",
                k,
                to_nameless(s, env, depth),
                to_nameless(b, inner, depth + 1),
            )
    raise TypeError(f"not a term: {t!r}")


def nameless_subst(target: tuple[str, int], replacement, t):
    """Replace every free occurrence of target in the tuple encoding.
    Bound variables are indices, so no capture or shifting can occur."""
    match t:
        case ("f", key):
            return replacement if key == target else t
        case ("b", _) | ("u", _):
            return t
        case ("lam", d, b):
            return ("lam", nameless_subst(target, replacement, d),
                    nameless_subst(target, replacement, b))
        case ("pi", d, b):
            return ("pi", nameless_subst(target, replacement, d),
                    nameless_subst(target, replacement, b))
        case ("app", f, a):
            return ("app", nameless_subst(target, replacement, f),
                    nameless_subst(target, replacement, a))
        case ("ind", a, cs):
            return ("ind", nameless_subst(target, replacement, a),
                    tuple((cn, nameless_subst(target, replacement, ct)) for cn, ct in cs))
        case ("constr", i, ind):
            return ("constr", i, nameless_subst(target, replacement, ind))
        case ("match", c, s, bs):
            return ("match", nameless_subst(target, replacement, c),
                    nameless_subst(target, replacement, s),
                    tuple((bn, nameless_subst(target, replacement, bb)) for bn, bb in bs))
        case ("fix", k, s, b):
            return ("fix", k, nameless_subst(target, replacement, s),
                    nameless_subst(target, replacement, b))
    raise TypeError(f"not a nameless term: {t!r}")


def oracle_subst(x: Name, s: Term, t: Term):
    """What subst(x, s, t) should convert to, per the oracle."""
    return nameless_subst(_key(x), to_nameless(s), to_nameless(t))


def nameless_free(t) -> set[tuple[str, int]]:
    """The keys of the free names in the tuple encoding."""
    match t:
        case ("f", key):
            return {key}
        case ("b", _) | ("u", _):
            return set()
        case ("lam", d, b) | ("pi", d, b) | ("app", d, b):
            return nameless_free(d) | nameless_free(b)
        case ("ind", a, cs):
            return nameless_free(a).union(*(nameless_free(ct) for _, ct in cs))
        case ("constr", _, ind):
            return nameless_free(ind)
        case ("match", c, s, bs):
            return nameless_free(c).union(nameless_free(s), *(nameless_free(bb) for _, bb in bs))
        case ("fix", _, s, b):
            return nameless_free(s) | nameless_free(b)
    raise TypeError(f"not a nameless term: {t!r}")
