import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collat import (
    DocumentError,
    InvestmentNetwork,
    RationalTooLongError,
    gen_cycle_family,
    gen_fvs_gadget,
    gen_knapsack_star,
    inverse_knapsack_brute,
    load_network,
    parse_document,
    random_network,
    save_network,
    serialize_network,
    solve,
    solve_star,
    validate_network,
)
from collat import instances
from collat.instances import NoSolutionError, dumps_document, parse_rational


def minimal_doc():
    return {
        "version": 1,
        "vertices": [
            {"id": "E", "z": "2", "alpha": "3/2"},
            {"id": "p"},
            {"id": "q"},
        ],
        "edges": [
            {"enterprise": "E", "investor": "p", "amount": "3"},
            {"enterprise": "E", "investor": "q", "amount": "5/2"},
        ],
    }


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def networks(draw):
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.one_of(st.integers(-9, 99), st.text("abcxyz_1", min_size=1, max_size=4)),
                        min_size=n, max_size=n, unique=True))
    pairs = []
    if n > 1:  # (k, k + shift mod n): no self-edges
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
                              .map(lambda p: (p[0], (p[0] + p[1]) % n)), unique=True, max_size=12))
    amounts = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)
    edges = [(k, i, draw(amounts)) for k, i in pairs]
    cost = draw(st.lists(rationals, min_size=n, max_size=n))
    rate = draw(st.lists(rationals, min_size=n, max_size=n))
    return InvestmentNetwork(n, edges, cost=cost, rate=rate, ids=ids)


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                        st.text(max_size=5), st.sampled_from(["1/2", "0", "x", "E", "p"]))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=6)


def _field_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _field_paths(item, path + (key,))
    elif isinstance(value, list):
        for pos, item in enumerate(value):
            yield from _field_paths(item, path + (pos,))


class TestDocumentProperties:
    @settings(deadline=None)
    @given(networks())
    def test_serialize_parse_round_trip(self, net):
        for doc in (serialize_network(net), json.loads(dumps_document(serialize_network(net)))):
            again = parse_document(doc)
            assert again.n == net.n
            assert again.edges == net.edges
            assert again.cost == net.cost
            assert again.rate == net.rate
            assert again.ids == net.ids

    @settings(deadline=None)
    @given(st.data())
    def test_malformed_field_is_a_document_error(self, data):
        # any one field of a valid document replaced by an arbitrary JSON
        # value either parses or raises DocumentError, never anything else
        doc = minimal_doc()
        path = data.draw(st.sampled_from(list(_field_paths(doc))[1:]))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(_json_values())
        try:
            parse_document(doc)
        except DocumentError as exc:
            assert str(exc).startswith("$")


class TestDocumentFormat:
    def test_parse_minimal(self):
        net = parse_document(minimal_doc())
        assert net.n == 3
        assert net.cost[0] == 2 and net.rate[0] == Fraction(3, 2)
        assert net.edges[1].amount == Fraction(5, 2)
        assert net.ids == ("E", "p", "q")

    def test_round_trip(self):
        net = parse_document(minimal_doc())
        again = parse_document(serialize_network(net))
        assert again.edges == net.edges
        assert again.cost == net.cost and again.rate == net.rate
        assert again.ids == net.ids

    def test_file_round_trip(self, tmp_path):
        net = gen_cycle_family(3)
        path = tmp_path / "net.json"
        save_network(net, path, meta={"family": "cycle", "k": 3})
        again = load_network(path)
        assert again.edges == net.edges
        assert again.ids == net.ids

    def test_unknown_field_rejected(self):
        doc = minimal_doc()
        doc["edges"][0]["weight"] = "3"
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.edges[0]"

    def test_missing_amount_rejected(self):
        doc = minimal_doc()
        del doc["edges"][1]["amount"]
        with pytest.raises(DocumentError):
            parse_document(doc)

    @pytest.mark.parametrize("doc, message", [
        ({}, "$: missing field 'version'"),
        ({"version": 1}, "$: missing field 'vertices'"),
        ({"version": 1, "vertices": [{"id": "E"}], "edges": [{"enterprise": "E"}]},
         "$.edges[0]: missing field 'investor'"),
    ], ids=["document", "vertices", "edge"])
    def test_missing_fields_are_named_in_document_order_under_any_hash_seed(self, doc, message):
        # set iteration order depends on PYTHONHASHSEED, which is fixed per
        # process, so each seed needs a fresh interpreter
        script = (
            "import json, sys\n"
            "from collat.instances import DocumentError, parse_document\n"
            "try:\n"
            "    parse_document(json.loads(sys.argv[1]))\n"
            "except DocumentError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outputs = {
            subprocess.run([sys.executable, "-c", script, json.dumps(doc)], capture_output=True,
                           text=True, env=dict(env, PYTHONHASHSEED=str(seed)), check=True).stdout
            for seed in (1, 2, 3)
        }
        assert outputs == {message + "\n"}

    def test_float_rejected_with_path(self):
        doc = minimal_doc()
        doc["vertices"][0]["z"] = 1.5
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.vertices[0].z"
        assert "1/2" in str(err.value)

    def test_float_literal_in_json_text_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        text = json.dumps(minimal_doc())
        path.write_text(text.replace('"3"', "3.0"))
        with pytest.raises(DocumentError):
            load_network(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            load_network(path)

    def test_duplicate_vertex_rejected(self):
        doc = minimal_doc()
        doc["vertices"].append({"id": "E"})
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.vertices[3].id"

    def test_duplicate_edge_rejected(self):
        doc = minimal_doc()
        doc["edges"].append({"enterprise": "E", "investor": "p", "amount": "1"})
        with pytest.raises(DocumentError):
            parse_document(doc)

    def test_unknown_endpoint_rejected(self):
        doc = minimal_doc()
        doc["edges"][0]["investor"] = "ghost"
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.edges[0].investor"

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"], ids=["two", "true", "float", "string"])
    def test_wrong_version_rejected(self, version):
        # true and 1.0 equal 1, but the schema version is an integer
        doc = minimal_doc()
        doc["version"] = version
        with pytest.raises(DocumentError, match="^%s$" % re.escape(
                "$.version: unsupported version %r" % (version,))):
            parse_document(doc)
        with pytest.raises(DocumentError):
            instances.loads_network(json.dumps(doc).encode())

    @pytest.mark.parametrize("field, ref", [
        ("enterprise", True), ("investor", False), ("enterprise", 1.0), ("investor", 0.0),
    ], ids=["true", "false", "float-enterprise", "float-investor"])
    def test_vertex_reference_is_a_string_or_integer(self, field, ref):
        # true, false and 1.0 equal the ids 1, 0 and 1 as dict keys
        doc = {"version": 1, "vertices": [{"id": 0}, {"id": 1, "z": "1", "alpha": "1"}],
               "edges": [{"enterprise": 1, "investor": 0, "amount": "3"}]}
        parse_document(doc)
        doc["edges"][0][field] = ref
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.edges[0].%s" % field

    def test_boolean_is_not_a_rational(self):
        doc = minimal_doc()
        doc["vertices"][0]["z"] = True
        with pytest.raises(DocumentError):
            parse_document(doc)

    @pytest.mark.parametrize("text", [
        "7", "007", "5/2", "10/4", "-3/4", "+3", " 3 ", " 5/2", "2.5", "1e3",
    ])
    def test_rational_string_is_read_as_fraction_reads_it(self, text):
        value = parse_rational(text, "$.x")
        assert type(value) is Fraction and value == Fraction(text)

    # each of these is read by `Fraction` on some Python: "1_000" from 3.11,
    # " 1 / 2 " from 3.12, and the digits of any script; the document
    # grammar is ASCII digits with no "_" and no space around the "/"
    @pytest.mark.parametrize("text", ["1_000", " 1 / 2 ", "\u0663", "١e١٠٠٠٠٠٠٠"],
                             ids=["underscore", "spaced-slash", "arabic-indic-digit",
                                  "arabic-indic-digits"])
    def test_outside_the_grammar_on_every_python(self, text):
        with pytest.raises(DocumentError) as err:
            parse_rational(text, "$.x")
        assert str(err.value) == "$.x: cannot parse rational %r" % text

    # "²".isdigit() is true, but it is no ASCII digit: the fast path must
    # leave it to the grammar, which rejects it
    @pytest.mark.parametrize("text", ["0/0", "1/0", "3/-4", "\u00b2", "", "/", "3/"])
    def test_rational_string_fraction_rejects_is_a_document_error(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
        with pytest.raises(DocumentError) as err:
            parse_rational(text, "$.x")
        assert err.value.path == "$.x"
        assert str(err.value) == "$.x: cannot parse rational %r" % text


class TestCycleFamily:
    def test_structure(self):
        net = gen_cycle_family(7)
        assert net.n == 9
        assert net.ids[:3] == ("A", "B", "C")
        assert net.enterprise_set == {0, 1, 2}
        for k in range(3):
            assert net.cost[k] == 8 and net.rate[k] == 14
            weights = sorted(net.edges[e].amount for e in net.out_edges[k])
            assert weights == [1, 1, 7]
        assert validate_network(net).ok

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            gen_cycle_family(2)


class TestFvsGadget:
    def test_three_cycle(self):
        net = gen_fvs_gadget([(0, 1), (1, 2), (2, 0)])
        assert net.n == 9
        assert len(net.edges) == 9
        assert all(net.cost[k] == 3 and net.rate[k] == 4 for k in net.enterprise_set)
        assert validate_network(net).ok
        # one sink component: one star pays k+1 = 3, the others 2
        assert solve(net).total == 7

    def test_dead_branches_stripped(self):
        net = gen_fvs_gadget([(0, 1), (1, 2), (2, 0), (0, 3)])
        # k reflects the input graph's degrees, but vertex 3 is on no cycle:
        # one sink component on 3 vertices, 2 * 3 + (k-1) with k = 3
        assert sorted(i for i in net.ids if "_" not in str(i)) == ["0", "1", "2"]
        assert all(net.cost[k] == 4 for k in net.enterprise_set)
        assert solve(net).total == 8

    def test_dag_input_gives_empty_network(self):
        net = gen_fvs_gadget([(0, 1), (1, 2)])
        assert net.n == 0 and not net.edges

    def test_two_disjoint_cycles(self):
        net = gen_fvs_gadget([(0, 1), (1, 0), (2, 3), (3, 2)])
        # two sink components: 2 * (k+1) + 2 * 2 with k = 2
        assert solve(net).total == 10
        assert sorted(solve(net).star_totals.values()) == [2, 2, 3, 3]

    @staticmethod
    def _stripped_and_sinks(arcs):
        """The vertices left after stripping out-degree 0 ones, and the
        number of sink strongly connected components (none of whose arcs
        leave it) of the stripped digraph."""
        arcs = set(arcs)
        while True:
            tails = {u for u, _ in arcs}
            kept = {(u, v) for u, v in arcs if v in tails}
            if kept == arcs:
                break
            arcs = kept
        vertices = {u for u, _ in arcs}
        reach = {}
        for v in vertices:  # depth-first: everything v reaches
            seen, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for a, b in arcs:
                    if a == u and b not in seen:
                        seen.add(b)
                        stack.append(b)
            reach[v] = frozenset(seen)
        # v lies in a sink component iff all it reaches reaches it back;
        # that component is then all it reaches
        sinks = {reach[v] for v in vertices if all(v in reach[u] for u in reach[v])}
        return vertices, len(sinks)

    def test_the_optimum_counts_sink_components_not_a_feedback_vertex_set(self):
        # complete digraph on 3 vertices: a minimum feedback vertex set has
        # 2 vertices (2 * 3 + 2 * 2 = 10), but one sink component gives 8
        cases = [[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]]
        rng = random.Random("fvs-gadget")
        for _ in range(47):
            # 3-8 vertices cut into 1-3 runs, dense inside a run, sparse
            # from a run to a later one, none back: sink components of
            # several counts
            n = rng.randint(3, 8)
            cuts = rng.sample(range(1, n), rng.randint(0, 2))
            run = [sum(v >= c for c in cuts) for v in range(n)]
            cases.append([(u, v) for u in range(n) for v in range(n) if u != v and rng.random()
                          < (0.5 if run[u] == run[v] else 0.05 if run[u] < run[v] else 0)])
        for arcs in cases:
            vertices, sinks = self._stripped_and_sinks(arcs)
            k = 1 + max([sum(u == w for u, _ in arcs) for w, _ in arcs], default=0)
            assert solve(gen_fvs_gadget(arcs)).total == 2 * len(vertices) + (k - 1) * sinks, arcs
        assert solve(gen_fvs_gadget(cases[0])).total == 8

    def test_a_vertex_named_as_a_spike_is_rejected(self):
        # a's first spike would share its id with the graph vertex a_s1
        with pytest.raises(ValueError, match="graph vertex a_s1 "):
            gen_fvs_gadget([("a", "a_s1"), ("a_s1", "a")])
        # a stripped vertex is not in the network, so its name is free
        assert validate_network(gen_fvs_gadget([("a", "b"), ("b", "a"), ("a", "a_s1")])).ok


class TestKnapsack:
    def test_reduction_star_shape(self):
        star = gen_knapsack_star([3, 2, 2], 4)
        assert star.amounts == (3, 2, 2, 4)
        assert star.cost == 8 and star.rate == 16
        assert star.is_profitable()

    def test_precondition(self):
        with pytest.raises(ValueError):
            gen_knapsack_star([3, 2], 3)

    def test_brute_force_examples(self):
        assert inverse_knapsack_brute([3, 2, 2], 4) in ({0, 1}, {0, 2})
        assert sum([3, 2, 2][i] for i in inverse_knapsack_brute([3, 2, 2], 4)) == 5
        assert inverse_knapsack_brute([5, 1], 0) == {1}

    def test_brute_force_no_solution(self):
        with pytest.raises(NoSolutionError):
            inverse_knapsack_brute([1, 1], 2)

    def test_star_optimum_matches_knapsack(self):
        xs, t = [3, 2, 2], 4
        sol = solve_star(gen_knapsack_star(xs, t))
        full_sum = sum(sol.collaterals[i] for i in sol.full_set)
        best = inverse_knapsack_brute(xs, t)
        assert full_sum == sum(xs[i] for i in best) == 5
        assert sol.total == 5


class TestRandomNetwork:
    def test_deterministic_documents(self):
        a = random_network(8, 3, seed=42)
        b = random_network(8, 3, seed=42)
        assert dumps_document(serialize_network(a)) == dumps_document(serialize_network(b))
        c = random_network(8, 3, seed=43)
        assert dumps_document(serialize_network(a)) != dumps_document(serialize_network(c))

    def test_always_profitable(self):
        rng = random.Random(5)
        for trial in range(40):
            net = random_network(
                rng.randint(2, 9),
                rng.randint(1, 4),
                acyclic=rng.random() < 0.5,
                seed=rng.randint(0, 10**9),
            )
            assert validate_network(net).ok

    def test_acyclic_flag(self):
        from collat.network import is_acyclic

        for seed in range(15):
            assert is_acyclic(random_network(7, 3, acyclic=True, seed=seed))

    def test_large_alpha_flag(self):
        from collat import is_large_alpha

        for seed in range(15):
            net = random_network(6, 3, large_alpha=True, seed=seed)
            if net.edges:
                assert is_large_alpha(net)
                assert validate_network(net).ok


def _writer_values():
    # `_json_values`, plus what the writer must spell as json does: any
    # character (surrogates and controls too), large and negative ints,
    # NaN and the infinities, non-string keys, empty and nested containers
    scalars = st.one_of(
        _json_values(),
        st.text(st.characters(exclude_categories=()), max_size=8),
        st.integers(), st.integers(-10**40, 10**40),
        st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    )
    keys = st.one_of(st.text(st.characters(exclude_categories=()), max_size=6),
                     st.integers(-5, 5), st.floats(), st.booleans(), st.none())
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=2).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(keys, inner, max_size=3)), max_leaves=12)


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class TestWriter:
    """`dumps_document` writes the bytes of `json.dumps(indent=2,
    sort_keys=True)` and a newline, errors included."""

    @settings(deadline=None, max_examples=300)
    @given(_writer_values())
    def test_matches_the_stdlib(self, value):
        # mixed str and int keys fail to sort in both
        assert _outcome(dumps_document, value) == _outcome(_stdlib, value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[]]], "", "\x00\x1f\x7f é 😀 \ud800",
        -10**30, float("nan"), float("-inf"), {1: "x", 2.5: "y"}, {None: 0}, {True: 1},
    ], ids=repr)
    def test_edge_values(self, value):
        assert dumps_document(value) == _stdlib(value)

    @pytest.mark.parametrize("value, message", [
        (Fraction(1, 2), "Object of type Fraction is not JSON serializable"),
        ({"a": [1, {2}]}, "Object of type set is not JSON serializable"),
        ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
        ({"a": 1, 2: 3}, "'<' not supported between instances of 'int' and 'str'"),
    ], ids=["fraction", "set", "tuple-key", "mixed-keys"])
    def test_rejects_what_the_stdlib_rejects(self, value, message):
        with pytest.raises(TypeError) as exc:
            _stdlib(value)
        assert str(exc.value) == message
        with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
            dumps_document(value)

    @pytest.mark.parametrize("net", [
        gen_cycle_family(4), gen_fvs_gadget([("a", "b"), ("b", "c"), ("c", "a")]),
        gen_knapsack_star([3, 5, 7], 4).to_network(), random_network(9, 3, seed=5),
        random_network(8, 3, acyclic=True, seed=2), random_network(7, 2, seed=1, large_alpha=True),
    ], ids=["cycle", "fvs", "knapsack", "random", "acyclic", "large-alpha"])
    def test_documents(self, net):
        doc = serialize_network(net, {"generator": "test", "seed": None, "xs": [1, 2]})
        assert dumps_document(doc) == _stdlib(doc)


class TestRationalMemo:
    """`parse_document` parses each distinct rational once, keyed only by a
    `str` or `int`: `true` equals 1 and hashes alike, but is no rational."""

    @staticmethod
    def _doc(first):
        return {
            "version": 1,
            "vertices": [{"id": "E", "z": first, "alpha": first}, {"id": "F", "z": first, "alpha": first},
                         {"id": "p"}],
            "edges": [{"enterprise": "E", "investor": "p", "amount": first},
                      {"enterprise": "F", "investor": "p", "amount": first}],
        }

    @pytest.mark.parametrize("first", [1, "1"])
    @pytest.mark.parametrize("later, path", [
        (("vertices", 1, "z"), "$.vertices[1].z"),
        (("vertices", 1, "alpha"), "$.vertices[1].alpha"),
        (("edges", 1, "amount"), "$.edges[1].amount"),
    ], ids=["z", "alpha", "amount"])
    def test_true_after_one_is_a_document_error(self, first, later, path):
        doc = self._doc(first)
        assert parse_document(doc).edges[1].amount == 1
        part, pos, field = later
        doc[part][pos][field] = True
        with pytest.raises(DocumentError) as exc:
            parse_document(doc)
        assert exc.value.path == path
        assert str(exc.value) == "%s: expected a rational, got a boolean" % path

    def test_each_distinct_value_is_parsed_once(self, monkeypatch):
        calls = []
        parse = instances.parse_rational
        monkeypatch.setattr(instances, "parse_rational",
                            lambda value, path="$": calls.append(value) or parse(value, path))
        net = parse_document(self._doc("3/2"))
        # "3/2" once, and the default 0 of p's z and alpha once
        assert sorted(calls, key=str) == [0, "3/2"]
        assert net.cost == (Fraction(3, 2), Fraction(3, 2), 0)


class TestReadingBytes:
    """A document is read as bytes: UTF-8, or UTF-16/32 by JSON's
    detection, a UTF-8 BOM accepted; anything undecodable or nested too
    deeply is one `DocumentError`."""

    def test_encodings(self, tmp_path):
        text = dumps_document(minimal_doc())
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode(), text.encode("utf-16"),
                     text.encode("utf-32-le")):
            path = tmp_path / "net.json"
            path.write_bytes(data)
            net = load_network(path)
            assert net.ids == ("E", "p", "q")
            assert net.edges == parse_document(minimal_doc()).edges

    @pytest.mark.parametrize("data", [
        b"\xff\xfe\x00{",
        dumps_document(minimal_doc()).replace('"p"', '"\\u00e9"').encode().replace(b"\\u00e9", b"\xe9"),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["utf-16-garbage", "latin-1-id", "over-deep"])
    def test_undecodable_or_over_deep_is_a_document_error(self, tmp_path, data):
        path = tmp_path / "net.json"
        path.write_bytes(data)
        with pytest.raises(DocumentError, match=r"^\$: invalid JSON: "):
            load_network(path)


class TestDigitBound:
    """A rational has at most 4,300 digits in its numerator and in its
    denominator (Python's default int_max_str_digits, held fixed); one with
    more is a `DocumentError` at its field, decided from an exponent before
    its power of ten is built, and `format_rational` writes none."""

    @pytest.mark.parametrize("text, value", [
        ("1e4299", Fraction(10 ** 4299)), ("1e-4299", Fraction(1, 10 ** 4299)),
        ("-2.5e4298", -25 * Fraction(10 ** 4297)), ("1" * 4300, Fraction(int("1" * 4300))),
        ("3/" + "1" * 4300, Fraction(3, int("1" * 4300))),
        ("0e100000000", 0), (" -0.0E-99999999 ", 0),
    ], ids=["1e4299", "1e-4299", "-2.5e4298", "4300-digits", "4300-digit-denominator",
            "zero-huge-exponent", "zero-huge-negative-exponent"])
    def test_within_the_bound(self, text, value):
        assert parse_rational(text, "$.x") == value

    @pytest.mark.parametrize("value", [
        "1e4300", "1e-4300", "0.1e4301", "-7e+4300", "1e100000000", "1e-100000000",
        "1e99999999999999999999",
        10 ** 4300, -10 ** 4300,
    ], ids=["1e4300", "1e-4300", "0.1e4301", "-7e+4300", "1e100000000", "1e-100000000",
            "1e99999999999999999999", "int", "negative-int"])
    def test_beyond_the_bound_is_a_document_error(self, value):
        with pytest.raises(DocumentError) as err:
            parse_rational(value, "$.x")
        assert str(err.value) == "$.x: rational has more than 4300 digits"

    @pytest.fixture(params=[4300, 0, 640], ids=["default-limit", "no-limit", "lowest-limit"])
    def int_limit(self, request):
        """The interpreter's int_max_str_digits at its default, lifted, then
        at the lowest value Python allows; restored after the test."""
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield request.param
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("text, value", [
        ("0" * 4300 + "1", 1),
        ("-" + "0" * 5000 + "12", -12),
        ("0" * 5000 + "3/" + "0" * 5000 + "7", Fraction(3, 7)),
        ("1." + "0" * 5000, 1),
        ("1" + "0" * 5000 + "e-5000", 1),
        ("0." + "0" * 4298 + "1", Fraction(1, 10 ** 4299)),
        ("1e" + "0" * 5000 + "7", 10 ** 7),
    ], ids=["leading-zeros", "signed-leading-zeros", "leading-zeros-both-sides",
            "decimal-trailing-zeros", "mantissa-trailing-zeros", "4299-decimals",
            "exponent-leading-zeros"])
    def test_significant_digits_decide_whatever_the_int_limit(self, int_limit, text, value):
        assert parse_rational(text, "$.x") == value

    @pytest.mark.parametrize("text", [
        "1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/" + "1" * 4301,
        "0." + "0" * 4300 + "1", "1" * 4301 + "e-4301", "1e" + "1" * 4301,
    ], ids=["numerator", "negative", "denominator", "both", "4301-decimals",
            "long-mantissa", "long-exponent"])
    def test_too_many_significant_digits_whatever_the_int_limit(self, int_limit, text):
        with pytest.raises(DocumentError) as err:
            parse_rational(text, "$.x")
        assert str(err.value) == "$.x: rational has more than 4300 digits"

    def test_a_syntax_error_quotes_a_short_prefix(self, int_limit):
        text = "1" * 4301 + "x"
        with pytest.raises(DocumentError) as err:
            parse_rational(text, "$.x")
        assert str(err.value) == "$.x: cannot parse rational %r (4302 characters)" % (
            "1" * 32 + "...")

    @pytest.mark.parametrize("int_limit", [640], indirect=True)
    def test_a_value_the_int_limit_forbids_names_it_when_read(self, int_limit):
        # 1,000 digits are within the document's bound, not the interpreter's
        with pytest.raises(DocumentError) as err:
            parse_rational("1" * 1000, "$.x")
        assert str(err.value) == (
            "$.x: rational has more than 640 digits (the interpreter's int_max_str_digits)")

    @pytest.mark.parametrize("int_limit", [640], indirect=True)
    def test_a_value_the_int_limit_forbids_names_it_when_written(self, int_limit):
        with pytest.raises(RationalTooLongError) as err:
            instances.format_rational(Fraction(10 ** 1000))
        assert str(err.value) == ("a rational of more than 640 digits (the interpreter's "
                                  "int_max_str_digits) is too long to write")

    def test_a_bad_mantissa_is_still_a_syntax_error(self):
        for text in ("1/2e99999999", "x1e99999999", "1e1__0000000"):
            with pytest.raises(DocumentError, match="cannot parse rational"):
                parse_rational(text, "$.x")

    def test_an_amount_beyond_the_bound_names_its_field(self):
        doc = minimal_doc()
        doc["edges"][1]["amount"] = "1e5000"
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert err.value.path == "$.edges[1].amount"

    def test_integer_literal_longer_than_python_reads(self):
        data = dumps_document(minimal_doc()).replace('"3"', "1" * 5000).encode()
        with pytest.raises(DocumentError):
            instances.loads_network(data)

    def test_format_rational_writes_what_parse_rational_reads(self):
        for value in (Fraction(10 ** 4300 - 1, 7), Fraction(-1, 10 ** 4300 - 1)):
            assert parse_rational(instances.format_rational(value)) == value
        for value in (Fraction(10 ** 4300, 7), Fraction(-1, 10 ** 4300), 10 ** 4300):
            with pytest.raises(RationalTooLongError, match="more than 4300 digits"):
                instances.format_rational(value)


class TestIdsEqualAsStrings:
    def test_parse_keeps_them_apart_and_validation_rejects_them(self):
        doc = minimal_doc()
        doc["vertices"][1]["id"] = doc["edges"][0]["investor"] = 7
        doc["vertices"][2]["id"] = doc["edges"][1]["investor"] = "7"
        net = parse_document(doc)
        assert net.ids == ("E", 7, "7")
        assert validate_network(net).violations == [
            "vertices 1 and 2: ids 7 and '7' are equal as strings"]
