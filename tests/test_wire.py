"""The JSON wire format: literal encodings, round trips, registry, errors."""

import json
import math

import pytest

from interpolab import wire
from interpolab.applications import (GrandLp, SmallLp, UltraLp, LinfQBeta,
                                     GGamma, AType, BType, AppSpace,
                                     get_scenario, scenario_names)
from interpolab.grid import RiSpace
from interpolab.holmstedt import DEFAULT_CASES
from interpolab.reiteration import reiterate
from interpolab.spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace,
                               RSpace, LLSpace, RRSpace, Intersection,
                               AppMember, Over, SpaceDescriptor, UNIT,
                               space_from_obj)
from interpolab.sv import (SvExpr, Const, EllPow, BrokenEll, IteratedEll,
                           ExpLogPow, Product, Power, InverseArg, NormTail,
                           ComposeWithRho, ONE)

INF = math.inf

# (object, its JSON): one per tag plus E = L_q; the bytes are the format
LITERALS = [
    (Const(2.0), '{"c": 2.0, "kind": "const"}'),
    (EllPow(0.5), '{"alpha": 0.5, "kind": "ell"}'),
    (BrokenEll(1.0, -2.0),
     '{"alpha": 1.0, "beta": -2.0, "kind": "broken_ell"}'),
    (IteratedEll(3, 0.5),
     '{"alpha": 0.5, "depth": 3, "kind": "iterated_ell"}'),
    (ExpLogPow(0.5), '{"alpha": 0.5, "kind": "exp_log_pow"}'),
    (Product(EllPow(0.5), Const(2.0)),
     '{"args": [{"alpha": 0.5, "kind": "ell"}, {"c": 2.0, "kind": "const"}],'
     ' "kind": "product"}'),
    (Power(EllPow(0.5), -1.5),
     '{"base": {"alpha": 0.5, "kind": "ell"}, "kind": "power", "r": -1.5}'),
    (InverseArg(BrokenEll(1.0, 2.0)),
     '{"inner": {"alpha": 1.0, "beta": 2.0, "kind": "broken_ell"},'
     ' "kind": "inverse_arg"}'),
    (NormTail(EllPow(-1.0), RiSpace(INF), "lower"),
     '{"E": {"q": "inf"}, "b": {"alpha": -1.0, "kind": "ell"},'
     ' "kind": "norm_tail", "side": "lower"}'),
    (ComposeWithRho(EllPow(-1.0), 0.5, EllPow(0.25)),
     '{"gamma": 0.5, "inner": {"alpha": 0.25, "kind": "ell"},'
     ' "kind": "compose_rho", "outer": {"alpha": -1.0, "kind": "ell"}}'),
    (EndpointX0(), '{"kind": "x0", "setting": "full"}'),
    (EndpointX1(UNIT), '{"kind": "x1", "setting": "unit"}'),
    (ThetaSpace(0.5, EllPow(0.5), RiSpace(2.0)),
     '{"E": {"q": 2.0}, "b": {"alpha": 0.5, "kind": "ell"},'
     ' "kind": "theta", "setting": "full", "theta": 0.5}'),
    (LSpace(0.0, EllPow(-1.0), RiSpace(1.0), ONE, RiSpace(INF), UNIT),
     '{"E": {"q": 1.0}, "F": {"q": "inf"}, "a": {"c": 1.0, "kind": "const"},'
     ' "b": {"alpha": -1.0, "kind": "ell"}, "kind": "L", "setting": "unit",'
     ' "theta": 0.0}'),
    (RSpace(1.0, EllPow(-1.0), RiSpace(INF), ONE, RiSpace(2.0)),
     '{"E": {"q": "inf"}, "F": {"q": 2.0}, "a": {"c": 1.0, "kind": "const"},'
     ' "b": {"alpha": -1.0, "kind": "ell"}, "kind": "R", "setting": "full",'
     ' "theta": 1.0}'),
    (LLSpace(0.25, Const(3.0), RiSpace(2.0), EllPow(-0.5), RiSpace(INF),
             ONE, RiSpace(1.0)),
     '{"E": {"q": 2.0}, "F": {"q": "inf"}, "G": {"q": 1.0},'
     ' "a": {"c": 1.0, "kind": "const"}, "b": {"alpha": -0.5, "kind": "ell"},'
     ' "c": {"c": 3.0, "kind": "const"}, "kind": "LL", "setting": "full",'
     ' "theta": 0.25}'),
    (RRSpace(1.0, EllPow(-1.0), RiSpace(INF), EllPow(-0.25), RiSpace(INF),
             ONE, RiSpace(4.0), UNIT),
     '{"E": {"q": "inf"}, "F": {"q": "inf"}, "G": {"q": 4.0},'
     ' "a": {"c": 1.0, "kind": "const"}, "b": {"alpha": -0.25, "kind": "ell"},'
     ' "c": {"alpha": -1.0, "kind": "ell"}, "kind": "RR", "setting": "unit",'
     ' "theta": 1.0}'),
    (Intersection((EndpointX0(), ThetaSpace(0.5, ONE, RiSpace(2.0)))),
     '{"kind": "intersection", "members": [{"kind": "x0", "setting": "full"},'
     ' {"E": {"q": 2.0}, "b": {"c": 1.0, "kind": "const"}, "kind": "theta",'
     ' "setting": "full", "theta": 0.5}]}'),
    (AppMember(GrandLp(2.0, 1.0)),
     '{"kind": "app", "setting": "unit",'
     ' "space": {"alpha": 1.0, "kind": "grand", "p": 2.0}}'),
    (Over((EndpointX0(), EndpointX1()), ThetaSpace(0.5, ONE, RiSpace(2.0))),
     '{"couple": [{"kind": "x0", "setting": "full"},'
     ' {"kind": "x1", "setting": "full"}], "desc": {"E": {"q": 2.0},'
     ' "b": {"c": 1.0, "kind": "const"}, "kind": "theta", "setting": "full",'
     ' "theta": 0.5}, "kind": "over"}'),
    (GrandLp(2.0, 1.0), '{"alpha": 1.0, "kind": "grand", "p": 2.0}'),
    (SmallLp(3.0, 0.5), '{"alpha": 0.5, "kind": "small", "p": 3.0}'),
    (UltraLp(2.0, EllPow(-0.5), RiSpace(INF)),
     '{"E": {"q": "inf"}, "b": {"alpha": -0.5, "kind": "ell"},'
     ' "kind": "ultra", "p": 2.0}'),
    (LinfQBeta(INF, -1.0), '{"beta": -1.0, "kind": "linfq", "q": "inf"}'),
    (GGamma(2.0, 3.0, -1.0, EllPow(-3.0), 0.0, ONE),
     '{"kind": "ggamma", "p": 2.0, "q": 3.0, "w1pow": -1.0,'
     ' "w1sv": {"alpha": -3.0, "kind": "ell"}, "w2pow": 0.0,'
     ' "w2sv": {"c": 1.0, "kind": "const"}}'),
    (AType(4.0, 0.0, RiSpace(2.0)),
     '{"E": {"q": 2.0}, "alpha": 0.0, "kind": "atype", "p": 4.0}'),
    (BType(2.0, 0.0, RiSpace(2.0)),
     '{"E": {"q": 2.0}, "alpha": 0.0, "kind": "btype", "p": 2.0}'),
    (RiSpace(INF), '{"q": "inf"}'),
    (RiSpace(2.0), '{"q": 2.0}'),
]

BASES = (SvExpr, SpaceDescriptor, AppSpace, RiSpace)


def _base(obj):
    return next(b for b in BASES if isinstance(obj, b))


@pytest.mark.parametrize("obj,text", LITERALS,
                         ids=[type(o).__name__ for o, _ in LITERALS])
def test_literal_encoding(obj, text):
    assert wire.to_json(obj) == text
    assert _base(obj).from_obj(json.loads(text)) == obj


def test_literals_cover_every_tag():
    tags = {o._kind for o, _ in LITERALS} - {None}
    assert tags == set(wire._TAGS)
    assert len(tags) == 27


def test_public_wrappers_match_codec():
    for obj, text in LITERALS:
        if isinstance(obj, SpaceDescriptor):
            assert obj.to_obj() == json.loads(text)
            assert space_from_obj(json.loads(text)) == obj
        elif isinstance(obj, AppSpace):
            assert obj.to_obj() == json.loads(text)
            assert AppSpace.from_obj(json.loads(text)) == obj


def _concrete_subclasses(base):
    out = []
    for sub in base.__subclasses__():
        out.append(sub)
        out.extend(_concrete_subclasses(sub))
    return out


@pytest.mark.parametrize("base", [SvExpr, SpaceDescriptor, AppSpace])
def test_every_concrete_class_has_a_tag(base):
    subs = _concrete_subclasses(base)
    assert subs
    for cls in subs:
        assert cls._kind is not None, cls.__name__
        assert wire._TAGS[cls._kind] is cls


def _descriptors(d):
    """d and every descriptor and concrete space nested in it."""
    nested = d.members if isinstance(d, Intersection) else \
        (*d.couple, d.desc) if isinstance(d, Over) else ()
    for m in nested:
        yield from _descriptors(m)
    if isinstance(d, AppMember):
        yield d.space
    yield d


def _built_objects():
    objs = []
    for name in scenario_names():
        sc = get_scenario(name)
        objs.extend(_descriptors(sc.lhs))
        objs.extend(_descriptors(sc.rhs))
    for case in DEFAULT_CASES.values():
        objs.extend((case.y0, case.y1))
        objs.append(case.rho_params()[1])
        for theta in (0.0, 0.5, 1.0):
            for b, E in ((ONE, RiSpace(INF)), (EllPow(-1.0), RiSpace(2.0))):
                objs.extend(_descriptors(reiterate(Over(
                    (case.y0, case.y1), ThetaSpace(theta, b, E)))))
    return objs


def test_round_trip_of_built_descriptors():
    objs = _built_objects()
    assert len(objs) > 150
    kinds = set()
    for obj in objs:
        text = wire.to_json(obj)
        assert _base(obj).from_obj(json.loads(text)) == obj
        kinds.add(obj._kind)
    assert {"x0", "x1", "theta", "L", "R", "LL", "RR", "intersection",
            "app", "over", "product"} <= kinds


def test_product_reads_any_number_of_args():
    ell = {"kind": "ell", "alpha": 0.5}
    const = {"kind": "const", "c": 2.0}
    three = {"kind": "product", "args": [ell, const, ell]}
    assert SvExpr.from_obj(three) == Product(Product(EllPow(0.5), Const(2.0)),
                                             EllPow(0.5))
    one = {"kind": "product", "args": [const]}
    assert SvExpr.from_obj(one) == Const(2.0)


def test_infinite_parameter_written_as_inf():
    assert wire.to_json(EllPow(INF)) == '{"alpha": "inf", "kind": "ell"}'
    assert SvExpr.from_obj(json.loads('{"alpha": "inf", "kind": "ell"}')) \
        == EllPow(INF)
    assert SvExpr.from_obj(json.loads('{"alpha": Infinity, "kind": "ell"}')) \
        == EllPow(INF)


def test_numbers_are_coerced():
    d = space_from_obj({"kind": "theta", "theta": "0.5", "E": {"q": 2},
                        "b": {"kind": "iterated_ell", "depth": 2.0,
                              "alpha": 1}})
    assert d == ThetaSpace(0.5, IteratedEll(2, 1.0), RiSpace(2.0))
    assert isinstance(d.theta, float) and isinstance(d.b.depth, int)


@pytest.mark.parametrize("obj", [
    {"kind": "ell", "alpha": "nan"},
    {"kind": "ell", "alpha": math.nan},
    {"kind": "power", "base": {"kind": "ell", "alpha": 1}, "r": "nan"},
    {"kind": "iterated_ell", "depth": 2.7, "alpha": 1},
    {"kind": "iterated_ell", "depth": "inf", "alpha": 1},
])
def test_nan_and_fractional_integers_are_refused(obj):
    with pytest.raises(ValueError):
        SvExpr.from_obj(obj)


def test_missing_setting_takes_class_default():
    grand = {"kind": "grand", "p": 2, "alpha": 1}
    assert space_from_obj({"kind": "app", "space": grand}).setting == UNIT
    assert space_from_obj({"kind": "x0"}).setting == "full"


@pytest.mark.parametrize("obj", [
    {"kind": "app", "setting": "full",
     "space": {"kind": "grand", "p": 2, "alpha": 1}},
    {"kind": "intersection", "members": []},
    {"kind": "theta", "theta": 0.5, "E": {"q": 2},
     "b": {"kind": "product", "args": []}},
    {"kind": "pentagon"},
    {"kind": "ell", "alpha": 1.0},
    {"kind": "theta", "theta": 0.5, "E": {"q": 2}, "b": {"kind": "x0"}},
    {"kind": "app", "space": {"kind": "ell", "alpha": 1.0}},
], ids=["app-full", "empty-intersection", "empty-product", "unknown-kind",
        "sv-as-space", "space-as-sv", "sv-as-app"])
def test_malformed_descriptor_raises_value_error(obj):
    with pytest.raises(ValueError):
        space_from_obj(obj)


def test_missing_required_field_raises_type_error():
    with pytest.raises(TypeError):
        space_from_obj({"kind": "theta", "theta": 0.5, "E": {"q": 2}})
