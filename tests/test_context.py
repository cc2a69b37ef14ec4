"""Typing environment: persistence, shadowing, value bindings, top-level names."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pielang import Binding, Context, Name, Universe, Var

x, y = Name("x"), Name("y")


def test_lookup_after_extend():
    ctxt = Context().extend_type(x, Universe(0))
    assert ctxt.lookup_type(x) == Universe(0)


def test_missing_name_is_none():
    ctxt = Context().extend_type(x, Universe(0))
    assert ctxt.lookup_type(y) is None
    assert y not in ctxt


def test_innermost_binding_wins():
    ctxt = Context().extend_type(x, Universe(0)).extend_type(x, Universe(1))
    assert ctxt.lookup_type(x) == Universe(1)


def test_extension_is_persistent():
    base = Context().extend_type(x, Universe(0))
    base.extend_type(y, Universe(1))
    assert y not in base


def test_value_binding():
    ctxt = Context().extend_type_value(x, Universe(1), Universe(0))
    assert ctxt.lookup_val(x) == Universe(0)
    assert ctxt.lookup_type(x) == Universe(1)


def test_type_only_binding_has_no_value():
    ctxt = Context().extend_type(x, Universe(0))
    assert ctxt.lookup_val(x) is None


def test_shadowing_hides_the_value():
    ctxt = (
        Context()
        .extend_type_value(x, Universe(1), Universe(0))
        .extend_type(x, Var(y))
    )
    assert ctxt.lookup_val(x) is None
    assert ctxt.lookup_type(x) == Var(y)


def test_local_shadows_a_top_level_name_until_it_is_gone():
    top = Context().declare(x, Universe(1), Universe(0))
    inner = top.extend_type(x, Var(y))
    assert inner.lookup_type(x) == Var(y)
    assert inner.lookup_val(x) is None
    assert top.lookup_type(x) == Universe(1)
    assert top.lookup_val(x) == Universe(0)


def test_a_later_declaration_shadows_a_local():
    ctxt = Context().extend_type(x, Var(y)).declare(x, Universe(1), Universe(0))
    assert ctxt.lookup_type(x) == Universe(1)
    assert ctxt.lookup_val(x) == Universe(0)


def test_declare_leaves_its_receiver_unchanged():
    base = Context().declare(x, Universe(0))
    declared = base.declare(y, Universe(1))
    assert y not in base
    assert declared.lookup_type(y) == Universe(1)
    assert declared.lookup_type(x) == Universe(0)


def test_declare_keeps_the_local_binders():
    inner = Context().extend_type(x, Universe(0)).declare(y, Universe(1))
    assert inner.lookup_type(x) == Universe(0)
    assert inner.lookup_type(y) == Universe(1)


def test_later_duplicate_binding_wins():
    ctxt = Context((Binding(x, Universe(0)), Binding(x, Universe(1), Var(y))))
    assert ctxt.lookup_type(x) == Universe(1)
    assert ctxt.lookup_val(x) == Var(y)


def test_bindings_lists_every_binding_in_order():
    z = Name("z")
    ctxt = (
        Context()
        .declare(x, Universe(0))
        .declare(y, Universe(1), Universe(0))
        .extend_type(z, Var(x))
    )
    assert ctxt.bindings == (
        Binding(x, Universe(0)),
        Binding(y, Universe(1), Universe(0)),
        Binding(z, Var(x)),
    )
    assert Context(ctxt.bindings).bindings == ctxt.bindings


# A model of a context: its bindings as one tuple, scanned from the end.

def _model_lookup(model: tuple[Binding, ...], name: Name) -> Binding | None:
    for b in reversed(model):
        if b.name == name:
            return b
    return None


def _model_bindings(model: tuple[Binding, ...]) -> tuple[Binding, ...]:
    """Each name's last binding, at the place of its first one."""
    order = []
    for b in model:
        if b.name not in order:
            order.append(b.name)
    return tuple(_model_lookup(model, name) for name in order)


_NAMES = (x, y, Name("z"))
_OPS = ("declare", "extend_type", "extend_type_value", "query")
_steps = st.lists(
    st.tuples(st.sampled_from(_OPS), st.integers(0, 10**6),
              st.sampled_from(_NAMES), st.integers(0, 2)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_steps, st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_NAMES))))
def test_every_version_of_a_context_tree_matches_the_model(steps, queries):
    """Extend random earlier versions, reading random versions in between
    (each read can move the shared dict), then read them in random order."""
    versions, models = [Context()], [()]

    def check(i: int, name: Name) -> None:
        ctxt, model = versions[i], models[i]
        b = _model_lookup(model, name)
        assert ctxt.lookup_type(name) == (b.type if b else None)
        assert ctxt.lookup_val(name) == (b.value if b else None)
        assert (name in ctxt) == (b is not None)
        assert ctxt.bindings == _model_bindings(model)

    for op, pick, name, level in steps:
        i = pick % len(versions)
        if op == "query":
            check(i, name)
            continue
        ctxt, model = versions[i], models[i]
        type_, value = Universe(level), (None if op == "extend_type" else Var(name))
        if op == "declare":
            versions.append(ctxt.declare(name, type_, value))
        elif op == "extend_type":
            versions.append(ctxt.extend_type(name, type_))
        else:
            versions.append(ctxt.extend_type_value(name, type_, value))
        models.append((*model, Binding(name, type_, value)))
    for pick, name in queries:
        check(pick % len(versions), name)
