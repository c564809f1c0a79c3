"""Instance generators and the JSON network document format.

Documents carry rationals as "p/q" (or integer) strings; float literals are
rejected so exactness can never be silently lost.  This module owns the
grammar of a rational string (`_RATIONAL`, ASCII only, the same on every
Python): surrounding whitespace, an optional sign, then "p", "p/q" with no
space around the "/", or a decimal with an optional exponent; `Fraction`'s
own string parser is never used.  Generators embed their parameters in the
document metadata so reports are self-describing.

A document is read as bytes (`loads_network`; `load_network` reads the
file once and calls it), so the CLI digests and parses the same bytes.
`loads_json` decodes them as `json.loads` does (UTF-8 with JSON's
UTF-16/32 detection, a UTF-8 BOM accepted) and turns undecodable or
too-deeply nested input into a `DocumentError`.  `parse_document` parses
each distinct rational string once per document, and so does
`loads_collaterals`, the parser of `collat verify`'s collateral document.
`dumps_document` writes a document directly, with the bytes of
`json.dumps(doc, indent=2, sort_keys=True)` and a final newline; a str or
int member goes out with its key or separator, with no call of its own.

This module builds the records its parsers read back: `edge_refs` is the
one spelling of an edge reference (network documents and reports) and
`collateral_rows` builds a solve report's `collaterals` rows, which
`loads_collaterals` reads.  A rational has at most `MAX_DIGITS` digits in
its numerator and in its denominator, read (`parse_rational`) or written
(`format_rational`); one within that bound that the interpreter's
int_max_str_digits setting forbids is an error naming the setting.
"""
from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_string

from .model import CollateralMatrix, InvestmentNetwork
from .star import StarInstance

SCHEMA_VERSION = 1
# a rational's numerator and denominator have at most this many digits:
# Python's default int_max_str_digits, held fixed rather than read from the
# interpreter's setting
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS
# the grammar of a rational string (see the module docstring)
_RATIONAL = re.compile(r"""
    \s*(?P<sign>[-+]?)
    (?=\.?\d)                            # a digit first, or a point and a digit
    (?P<num>\d*)
    (?:/(?P<den>0*[1-9]\d*)              # a denominator is not zero
     | (?:\.(?P<decimal>\d*))?(?:[eE](?P<exp>[-+]?\d+))?
    )\s*\Z""", re.VERBOSE | re.ASCII)
# `int` reads a digit string this long under any int_max_str_digits setting
_FAST_DIGITS = sys.int_info.str_digits_check_threshold


class DocumentError(ValueError):
    """A malformed network document; `path` points at the offending field."""

    def __init__(self, message, path="$"):
        super().__init__("%s: %s" % (path, message))
        self.path = path


class RationalTooLongError(ValueError):
    """A rational with more than `MAX_DIGITS` digits in its numerator or
    denominator: a document cannot hold it."""


def format_rational(value):
    """The value as "p/q", or as "p" if it is an integer: what
    `parse_rational` reads back, so a longer value raises
    `RationalTooLongError`, as does one the interpreter's
    int_max_str_digits keeps `str` from writing (naming that setting)."""
    f = value if type(value) is Fraction else Fraction(value)
    try:
        text = str(f)
    except ValueError:  # an int longer than the interpreter writes
        text = None
    if text is None or len(text) > MAX_DIGITS and _too_long(f):
        raise RationalTooLongError("a rational of more than %s is too long to write"
                                   % _bound(_too_long(f)))
    return text


def parse_rational(value, path="$"):
    """The Fraction a document value stands for: an int, or a string of
    the grammar `_RATIONAL`, with at most `MAX_DIGITS` digits in its
    numerator and in its denominator, counted as `_fraction` counts them."""
    if isinstance(value, bool):
        raise DocumentError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return _bounded(Fraction(value), path)
    if isinstance(value, float):
        raise DocumentError(
            "float literals are not allowed; write an exact rational such as '1/2'", path
        )
    if isinstance(value, str):
        # "p" and "p/q" in ASCII digits with q > 0, the forms `format_rational`
        # writes, skip the pattern if `int` reads them under any digit limit
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and len(num) <= _FAST_DIGITS:
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and den.strip("0") and len(den) <= _FAST_DIGITS:
                return Fraction(int(num), int(den))
        match = _RATIONAL.match(value)
        if match is None:
            quoted = repr(value) if len(value) <= 40 else "%r (%d characters)" % (
                value[:32] + "...", len(value))
            raise DocumentError("cannot parse rational %s" % quoted, path)
        return _bounded(_fraction(match, path), path)
    raise DocumentError("expected a rational string or integer", path)


def _fraction(match, path):
    """The Fraction of a `_RATIONAL` match, or a `DocumentError` at `path`
    if it is too long or `int` cannot read a digit string under the
    interpreter's int_max_str_digits, decided on digit counts before any
    `int()` runs.  Too long: a numerator or denominator of more than
    `MAX_DIGITS` digits, leading zeros aside; a decimal whose mantissa m
    (its digits without leading and trailing zeros) has more; or a decimal
    m * 10**e whose numerator, len(m) + e digits for e >= 0, has more, or
    whose denominator, above 10**(-e - len(m)) for e < 0, does, decided
    without building it."""
    num, den = match["num"].lstrip("0"), match["den"]
    if den is not None:
        den = den.lstrip("0")
        longest = max(len(num), len(den))
    else:
        decimal = match["decimal"] or ""
        mantissa = (num + decimal).lstrip("0")
        num = mantissa.rstrip("0")
        if not num:
            return Fraction(0)
        exp = match["exp"] or "0"
        e = exp.lstrip("+-").lstrip("0")
        # an exponent of more than 20 digits is beyond any text's length
        e = int(e or "0") if len(e) <= 20 else 10 ** 20
        e = (-e if exp[0] == "-" else e) + len(mantissa) - len(num) - len(decimal)
        too_long = len(num) + e > MAX_DIGITS or -e - len(num) >= MAX_DIGITS
        longest = MAX_DIGITS + 1 if too_long else len(num)
    limit = sys.get_int_max_str_digits() or MAX_DIGITS
    if longest > min(limit, MAX_DIGITS):
        raise DocumentError("rational has more than %s" % _bound(longest > MAX_DIGITS), path)
    num = int(match["sign"] + (num or "0"))
    if den is not None:
        return Fraction(num, int(den))
    return Fraction(num * 10 ** e) if e >= 0 else Fraction(num, 10 ** -e)


def _bound(beyond_max):
    """The digit bound broken: `MAX_DIGITS`, or else the interpreter's
    int_max_str_digits, named."""
    if beyond_max:
        return "%d digits" % MAX_DIGITS
    return "%d digits (the interpreter's int_max_str_digits)" % sys.get_int_max_str_digits()


def _bounded(f, path):
    if _too_long(f):
        raise DocumentError("rational has more than %d digits" % MAX_DIGITS, path)
    return f


def _too_long(f):
    return abs(f.numerator) >= _TOO_LONG or f.denominator >= _TOO_LONG


def rational_memo():
    """A per-document `parse_rational`: `rational(value, path, pos, field)`
    parses each distinct string or int once, and words the JSONPath
    (`path % pos`, then the field) only to parse a new value.  Only a `str`
    or `int` is a key, so `true` (equal to 1, and hashed alike) never hits
    the entry for `1`."""
    memo = {}

    def rational(value, path, pos, field):
        if type(value) is str or type(value) is int:
            f = memo.get(value)
            if f is None:
                f = memo[value] = parse_rational(value, "%s.%s" % (path % pos, field))
            return f
        return parse_rational(value, "%s.%s" % (path % pos, field))

    return rational


def _check_keys(obj, allowed, required, path):
    """Raise the `DocumentError` for the first wrong key of `obj`: it must
    be an object with every `required` key and (unless `allowed` is None)
    no other key than the `allowed` ones."""
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", path)
    for key in obj:
        if allowed is not None and key not in allowed:
            raise DocumentError("unknown field %r" % key, path)
    for key in required:
        if key not in obj:
            raise DocumentError("missing field %r" % key, path)


# required keys iterate in document order: a set's order varies per process
_VERTEX_KEYS = frozenset(("id", "z", "alpha"))
_EDGE_KEYS = dict.fromkeys(("enterprise", "investor", "amount")).keys()
_COLLATERAL_KEYS = dict.fromkeys(("enterprise", "investor", "collateral")).keys()
# a solve report's `collaterals` row, in the order of `collat solve --out csv`'s columns
COLLATERAL_FIELDS = ("enterprise", "investor", "amount", "collateral")


def parse_document(doc):
    """Parse a network document (dict) into an InvestmentNetwork.

    A record's keys are checked as one set comparison, each distinct
    rational string is parsed once (`rational_memo`), and a JSONPath is
    worded only for an error."""
    _check_keys(doc, {"version", "vertices", "edges", "meta"}, ("version", "vertices", "edges"), "$")
    if type(doc["version"]) is not int or doc["version"] != SCHEMA_VERSION:  # not a bool
        raise DocumentError("unsupported version %r" % (doc["version"],), "$.version")
    if not isinstance(doc["vertices"], list):
        raise DocumentError("expected a list", "$.vertices")
    rational = rational_memo()
    ids = []
    cost = []
    rate = []
    index = {}
    path = "$.vertices[%d]"
    for pos, rec in enumerate(doc["vertices"]):
        if not (isinstance(rec, dict) and "id" in rec and rec.keys() <= _VERTEX_KEYS):
            _check_keys(rec, _VERTEX_KEYS, ("id",), path % pos)
        vid = rec["id"]
        if not isinstance(vid, (str, int)) or isinstance(vid, bool):
            raise DocumentError("vertex id must be a string or integer", path % pos + ".id")
        if vid in index:
            raise DocumentError("duplicate vertex id %r" % (vid,), path % pos + ".id")
        index[vid] = pos
        ids.append(vid)
        cost.append(rational(rec.get("z", 0), path, pos, "z"))
        rate.append(rational(rec.get("alpha", 0), path, pos, "alpha"))
    if not isinstance(doc["edges"], list):
        raise DocumentError("expected a list", "$.edges")
    edges = []
    seen = set()
    path = "$.edges[%d]"
    for pos, rec in enumerate(doc["edges"]):
        if not (isinstance(rec, dict) and rec.keys() == _EDGE_KEYS):
            _check_keys(rec, _EDGE_KEYS, _EDGE_KEYS, path % pos)
        k = _vertex(index, rec, "enterprise", path, pos)
        i = _vertex(index, rec, "investor", path, pos)
        if (k, i) in seen:
            raise DocumentError("duplicate edge (%r, %r)" % (rec["enterprise"], rec["investor"]),
                                path % pos)
        seen.add((k, i))
        edges.append((k, i, rational(rec["amount"], path, pos, "amount")))
    return InvestmentNetwork(len(ids), edges, cost=cost, rate=rate, ids=ids)


def loads_collaterals(net, data):
    """The `CollateralMatrix` on `net` of a collateral document's bytes (0 on an
    edge it omits).  A float is refused per value: a solve report's timing is one."""
    doc = loads_json(data)
    rows = doc.get("collaterals") if isinstance(doc, dict) else None
    if rows is None:
        raise DocumentError("missing 'collaterals' list", "$")
    if not isinstance(rows, list):
        raise DocumentError("expected a list", "$.collaterals")
    index = {vid: v for v, vid in enumerate(net.ids)}
    rational = rational_memo()
    amounts = {}
    path = "$.collaterals[%d]"
    for pos, rec in enumerate(rows):
        if not (isinstance(rec, dict) and _COLLATERAL_KEYS <= rec.keys()):
            _check_keys(rec, None, _COLLATERAL_KEYS, path % pos)
        k = _vertex(index, rec, "enterprise", path, pos)
        i = _vertex(index, rec, "investor", path, pos)
        edge = net.edge_index.get((k, i))
        if edge is None:
            raise DocumentError("collateral on a non-edge", path % pos)
        if edge in amounts:
            raise DocumentError("second collateral for the same edge", path % pos)
        amounts[edge] = rational(rec["collateral"], path, pos, "collateral")
        if amounts[edge].numerator < 0:
            raise DocumentError("collateral must be nonnegative", path % pos + ".collateral")
    return CollateralMatrix(net, amounts)


def collateral_rows(net, refs, collaterals):
    """A solve report's `collaterals` rows, which `loads_collaterals` reads
    back: each edge's reference (`edge_refs`) with its amount and collateral."""
    return [dict(ref, amount=format_rational(e.amount), collateral=format_rational(c))
            for ref, e, c in zip(refs, net.edges, collaterals)]


def _vertex(index, rec, field, path, pos):
    """The vertex `rec[field]` names in `index` (id -> vertex): only a str or
    non-bool int does; `true` and `1.0` equal 1 as keys but are no ids.  An
    error's JSONPath is `path % pos`, then the field."""
    vid = rec[field]
    if isinstance(vid, (str, int)) and not isinstance(vid, bool) and vid in index:
        return index[vid]
    raise DocumentError("unknown %s id %r" % (field, vid), "%s.%s" % (path % pos, field))


def serialize_network(net, meta=None):
    """Serialize to a document dict; round-trips losslessly through
    `parse_document` up to key ordering."""
    doc = {
        "version": SCHEMA_VERSION,
        "vertices": [
            {
                "id": net.ids[v],
                "z": format_rational(net.cost[v]),
                "alpha": format_rational(net.rate[v]),
            }
            for v in range(net.n)
        ],
        "edges": [dict(ref, amount=format_rational(e.amount))
                  for ref, e in zip(edge_refs(net), net.edges)],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def edge_refs(net):
    """Each edge's reference `{"enterprise": id, "investor": id}`, in edge
    order: an edge's one spelling in network documents and reports."""
    ids = net.ids
    return [{"enterprise": ids[e.enterprise], "investor": ids[e.investor]} for e in net.edges]


def dumps_document(doc):
    """`json.dumps(doc, indent=2, sort_keys=True)` and a newline, byte for
    byte, written directly: the stdlib pretty-prints in pure Python.  A
    value `json.dumps` rejects raises its TypeError; there is no check for
    a container holding itself."""
    out = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, indent, out):
    """Write `value` as `json.dumps(indent=2, sort_keys=True)` does, at the
    nesting whose line break and indentation is `indent`.  A list's or a
    dict's members share one loop: a str or int goes out in one call with
    its separator and key, any other member recurses."""
    if isinstance(value, str):
        out(_encode_string(value))
    elif isinstance(value, (list, tuple, dict)):
        keyed = isinstance(value, dict)
        brackets = "{}" if keyed else "[]"
        if not value:
            out(brackets)
            return
        inner = indent + "  "
        sep, comma = brackets[0] + inner, "," + inner
        for key, item in sorted(value.items()) if keyed else enumerate(value):
            head = (sep + _encode_string(key if isinstance(key, str) else _key(key)) + ": "
                    if keyed else sep)
            if type(item) is str:
                out(head + _encode_string(item))
            elif type(item) is int:
                out(head + int.__repr__(item))
            else:
                out(head)
                _write(item, inner, out)
            sep = comma
        out(indent + brackets[1])
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)
        out(text)


def _scalar(value):
    """json's text for null, a boolean or a number; None for anything else."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _key(key):
    """json's text for a dict key that is not a string."""
    text = _scalar(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, not %s" % type(key).__name__)
    return text


def loads_json(data, parse_float=None):
    """`json.loads` of a document's bytes (UTF-8, or UTF-16/32 by JSON's
    detection; a UTF-8 BOM is accepted), with invalid, undecodable or
    too-deeply nested input, or an integer literal longer than Python
    reads, as a `DocumentError`."""
    try:
        return json.loads(data, parse_float=parse_float)
    except DocumentError:  # parse_float's
        raise
    except (ValueError, RecursionError) as exc:  # an int literal over Python's digit limit too
        raise DocumentError("invalid JSON: %s" % exc, "$") from None


def loads_network(data):
    """Parse a network document from its bytes (see `loads_json`)."""
    return parse_document(loads_json(data, parse_float=_reject_float))


def load_network(path):
    with open(path, "rb") as handle:
        return loads_network(handle.read())


def _reject_float(text):
    raise DocumentError(
        "float literal %r is not allowed; write an exact rational such as '1/2'" % text
    )


def save_network(net, path, meta=None):
    with open(path, "w") as handle:
        handle.write(dumps_document(serialize_network(net, meta)))


# ---------------------------------------------------------------------------
# generators


def gen_cycle_family(k):
    """The 9-vertex cycle family: three enterprises A, B, C in a directed
    cycle of unit investments, each with two external investors of weights 1
    and k, Z = k+1 and alpha = 2k.  The network optimum is k+5 against a
    star-decomposition sum of 6, so the premium (k+5)/6 grows without bound.
    """
    if k < 3:
        raise ValueError("cycle family requires k >= 3")
    ids = ["A", "B", "C", "a1", "a2", "b1", "b2", "c1", "c2"]
    a_vertex, b_vertex, c_vertex = 0, 1, 2
    edges = [
        (a_vertex, b_vertex, 1),
        (b_vertex, c_vertex, 1),
        (c_vertex, a_vertex, 1),
        (a_vertex, 3, 1),
        (a_vertex, 4, k),
        (b_vertex, 5, 1),
        (b_vertex, 6, k),
        (c_vertex, 7, 1),
        (c_vertex, 8, k),
    ]
    cost = {v: k + 1 for v in (a_vertex, b_vertex, c_vertex)}
    rate = {v: 2 * k for v in (a_vertex, b_vertex, c_vertex)}
    return InvestmentNetwork(9, edges, cost=cost, rate=rate, ids=ids)


def gen_fvs_gadget(graph_edges):
    """A gadget network on a directed graph, named for the feedback vertex
    set reduction; its optimum counts sink components, not a minimum FVS.

    Vertices with zero out-degree are stripped iteratively (they are on no
    cycle); surviving edges get unit weight; every surviving vertex gets two
    spike investors of weights 1 and k, with k = 1 + the input graph's
    maximum out-degree, Z = k+1 and alpha = 2k.  A DAG input yields the
    empty network.  A self-loop, a repeated arc or a graph vertex named as
    a spike raises ValueError: `collat check` would reject the network.

    The optimum is 2|V| + (k-1)S, for V the surviving vertices and S the
    sink strongly connected components of the stripped graph: an arc (v, u)
    resolves only once u is solvent, a star pays 2 once one arc-investor
    is (its 1-spike and that arc in full make its k-spike free), else k+1
    (both spikes), and the first vertex of a sink component to turn
    solvent has none.
    """
    graph_edges = [(str(u), str(v)) for u, v in graph_edges]
    for pos, (u, v) in enumerate(graph_edges):
        if u == v:
            raise ValueError("graph edge %s-%s is a self-loop" % (u, v))
        if (u, v) in graph_edges[:pos]:
            raise ValueError("graph edge %s-%s is repeated" % (u, v))
    out_deg = {}
    vertices = set()
    for u, v in graph_edges:
        vertices.update((u, v))
        out_deg[u] = out_deg.get(u, 0) + 1
    k = 1 + max(out_deg.values(), default=0)
    surviving = set(vertices)
    edges = list(graph_edges)
    while True:
        dead = {v for v in surviving if not any(u == v for u, _ in edges)}
        if not dead:
            break
        surviving -= dead
        edges = [(u, v) for u, v in edges if u not in dead and v not in dead]
    ids = sorted(surviving)
    index = {v: i for i, v in enumerate(ids)}
    net_edges = [(index[u], index[v], 1) for u, v in edges]
    cost = {}
    rate = {}
    n = len(ids)
    for v in list(ids):
        for weight, suffix in ((1, "s1"), (k, "sk")):
            spike = "%s_%s" % (v, suffix)
            if spike in surviving:
                raise ValueError("graph vertex %s is also the name of a spike of %s" % (spike, v))
            ids.append(spike)
            net_edges.append((index[v], n, weight))
            n += 1
        cost[index[v]] = k + 1
        rate[index[v]] = 2 * k
    return InvestmentNetwork(n, net_edges, cost=cost, rate=rate, ids=ids)


def gen_knapsack_star(xs, t):
    """Reduction star for the inverse knapsack instance (xs, t): the items
    plus one extra player of size max(xs)+1, Z = max(xs)+1+t, alpha = 2Z.

    The domain is at least one item, every item positive, and
    0 <= t <= sum(xs) - max(xs); anything else raises ValueError naming the
    offending item or bound.
    """
    xs = [int(x) for x in xs]
    t = int(t)
    if not xs:
        raise ValueError("need at least one item")
    for pos, x in enumerate(xs):
        if x <= 0:
            raise ValueError("item xs[%d] = %d must be positive" % (pos, x))
    if t < 0:
        raise ValueError("t must be >= 0, got %d" % t)
    if t > sum(xs) - max(xs):
        raise ValueError("requires t <= sum(xs) - max(xs)")
    x_max = max(xs) + 1
    z = x_max + t
    return StarInstance(xs + [x_max], z, 2 * z)


class NoSolutionError(ValueError):
    pass


def inverse_knapsack_brute(xs, t):
    """Minimum-sum index set with sum strictly above t, by exhaustive
    enumeration; testing oracle only."""
    xs = list(xs)
    if len(xs) > 20:
        raise ValueError("brute-force guard is 20 items")
    if sum(xs) <= t:
        raise NoSolutionError("total %s does not exceed threshold %s" % (sum(xs), t))
    best = None
    for mask in range(1 << len(xs)):
        subset = tuple(i for i in range(len(xs)) if mask >> i & 1)
        total = sum(xs[i] for i in subset)
        if total > t:
            key = (total, subset)
            if best is None or key < best:
                best = key
    return frozenset(best[1])


def random_network(n, max_out_degree, acyclic=False, weight_range=(1, 9), seed=0,
                   large_alpha=False):
    """Seeded, reproducible random network.

    Weights are integers from `weight_range`; costs are sampled strictly
    below each enterprise's inflow and rates are pushed high enough that
    every enterprise is profitable.  With `acyclic` the edges follow a
    random topological order.  With `large_alpha` rates are integers above
    the cost, landing in the 0/full regime.  The domain is n >= 0,
    max_out_degree >= 0 and a `weight_range` with 1 <= lo <= hi; anything
    else raises ValueError naming the parameter.
    """
    lo, hi = weight_range
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    if max_out_degree < 0:
        raise ValueError("max_out_degree must be >= 0, got %d" % max_out_degree)
    if not 1 <= lo <= hi:
        raise ValueError("weight_range must satisfy 1 <= lo <= hi, got %s,%s" % (lo, hi))
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    position = {v: pos for pos, v in enumerate(order)}
    edges = []
    used = set()
    for k in range(n):
        candidates = [v for v in range(n) if v != k]
        if acyclic:
            candidates = [v for v in candidates if position[v] > position[k]]
        rng.shuffle(candidates)
        for i in candidates[: rng.randint(0, max_out_degree)]:
            if (k, i) not in used:
                used.add((k, i))
                edges.append((k, i, rng.randint(lo, hi)))
    cost = {}
    rate = {}
    for k in {e[0] for e in edges}:
        x_total = sum(x for kk, _, x in edges if kk == k)
        z = rng.randint(0, x_total - 1)
        if large_alpha:
            # smallest integer rate meeting profitability, then above the cost
            alpha_min = -(-z // (x_total - z))
            alpha = max(z + 1, alpha_min, 1) + rng.randint(0, 3)
        else:
            alpha = Fraction(z, x_total - z) + Fraction(rng.randint(1, 8), rng.randint(1, 4))
        cost[k] = z
        rate[k] = alpha
    return InvestmentNetwork(n, edges, cost=cost, rate=rate)
