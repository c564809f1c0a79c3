"""The kernel and the star DP stay on integers: the functions below work
on integer pairs of the scaled table (a rate as `rate_pq`, a collateral
as `CollateralMatrix.on_scale`), and a value leaves it as a Fraction only
through `model.need_value`, the documented exit (or a caller such as
`star.star_solution` or `network._search`'s results).  So none of them
names `Fraction`, the Fraction view `least_collateral`, the Fraction need
`edge_need`, a Fraction's `numerator` or `denominator`, or a `rate`."""
import ast
from pathlib import Path

import pytest

import collat

PACKAGE = Path(collat.__file__).resolve().parent

ON_INTEGERS = {
    "model": ("cascade", "need_pair", "eliminate", "least_collateral_pair", "is_profitable"),
    "star": ("_unit_price", "suffix_dp", "cheapest", "price_star", "close_star",
             "minimal_in_order"),
    "network": ("_subset_dp",),
    "analysis": ("iterated_elimination", "_minimal_along", "is_large_alpha",
                 "zero_collateral_condition", "full_collateral_condition"),
}
FRACTION_NAMES = frozenset({"Fraction", "least_collateral", "edge_need", "numerator",
                            "denominator", "rate"})


def fraction_names(source, functions):
    """(function, line, name) of each name of `FRACTION_NAMES` that the
    top-level `functions` of `source` read, as a name or an attribute."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else (
                    sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in FRACTION_NAMES:
                    found.append((node.name, sub.lineno, name))
    return found


@pytest.mark.parametrize("source, expected", [
    ("def f(a):\n    return Fraction(a, 2)", [("f", 2, "Fraction")]),
    ("def f(a):\n    return fractions.Fraction(a)", [("f", 2, "Fraction")]),
    ("def f(a):\n    return model.least_collateral(a, 1, 1, 1)", [("f", 2, "least_collateral")]),
    ("def f(c):\n    return c.numerator * c.denominator", [("f", 2, "numerator"),
                                                          ("f", 2, "denominator")]),
    ("def f(net, k):\n    return net.rate[k] > 1", [("f", 2, "rate")]),
    ("def f(a, rate):\n    return a * rate", [("f", 2, "rate")]),
    ("def f(net, k):\n    p, q = net.rate_pq[k]\n    return p > q", []),
    ("def f(net):\n    x = edge_need\n    return need_value(net, 0, (0, 1))", [("f", 2, "edge_need")]),
    ('def f(a):\n    """A Fraction in words."""\n    return need_value(a)', []),
    ("def g(a):\n    return Fraction(a)", []),
])
def test_the_check_finds_fraction_names(source, expected):
    assert fraction_names(source, ("f",)) == expected


@pytest.mark.parametrize("module", sorted(ON_INTEGERS))
def test_the_integer_functions_name_no_fraction(module):
    source = (PACKAGE / ("%s.py" % module)).read_text(encoding="utf-8")
    functions = ON_INTEGERS[module]
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(functions) <= defined
    assert fraction_names(source, functions) == []
