"""Typing environment: persistence, shadowing, value bindings, top-level names."""
from __future__ import annotations

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
