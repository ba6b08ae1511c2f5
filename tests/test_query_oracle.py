"""Randomized equivalence between the engine and a naive oracle.

The oracle evaluates the same subset semantics with none of the engine's
machinery: plain nested loops in textual pattern order, over the constant
predicate's triples or else every triple, a fixpoint-iteration transitive
closure, and dictionary solutions. It shares only ``Graph.match`` with the
engine. Agreement is checked on sorted row multisets.
"""

import random

import pytest

import plexflow.query
from plexflow.cq import CATALOGUE, query_text
from plexflow.fixture import V01, V02
from plexflow.query import (
    BoundTest, Comparison, Filter, Group, Minus, OptionalGroup, RegexTest,
    SelectQuery, TriplePattern, Union, Values, Var, evaluate, explain,
    _Choices, _seed, parse_query,
)
from plexflow.rdf import Graph, IRI, Literal, Triple, iri, lit, nt_term

from conftest import mutated

# ---------------------------------------------------------------------------
# Oracle


def brute_closure(g: Graph, predicate: IRI) -> set[tuple]:
    """One-or-more-hop pairs by fixpoint iteration over the edge set."""
    edges = {(t.s, t.o) for t in g.match(p=predicate)}
    pairs = set(edges)
    while True:
        new = {(a, d) for (a, b) in pairs for (c, d) in edges if b == c}
        if new <= pairs:
            return pairs
        pairs |= new


def _oracle_match(g, pattern, sol):
    def resolve(part):
        if isinstance(part, Var):
            return sol.get(part.name)
        return part

    def unify(sol, bindings):
        out = dict(sol)
        for var, term in bindings:
            if isinstance(var, Var):
                if var.name in out and out[var.name] != term:
                    return None
                out[var.name] = term
            elif var != term:
                return None
        return out

    results = []
    if pattern.plus:
        for a, b in sorted(brute_closure(g, pattern.p),
                           key=lambda p: (nt_term(p[0]), nt_term(p[1]))):
            ext = unify(sol, [(pattern.s, a), (pattern.o, b)])
            if ext is not None:
                results.append(ext)
        return results
    # A constant predicate reads its bucket; otherwise every triple.
    candidates = g.match() if isinstance(pattern.p, Var) else g.match(p=pattern.p)
    for t in candidates:
        ext = unify(sol, [(pattern.s, t.s), (pattern.p, t.p), (pattern.o, t.o)])
        if ext is not None:
            results.append(ext)
    return results


def _oracle_filter(expr, sol):
    def resolve(part):
        return sol.get(part.name) if isinstance(part, Var) else part

    if isinstance(expr, BoundTest):
        return (expr.var.name not in sol) if expr.negated else (expr.var.name in sol)
    if isinstance(expr, RegexTest):
        import re
        term = sol.get(expr.var.name)
        if not isinstance(term, Literal):
            return False
        hit = re.search(expr.pattern, term.lexical) is not None
        return (not hit) if expr.negated else hit
    lhs, rhs = resolve(expr.lhs), resolve(expr.rhs)
    if lhs is None or rhs is None:
        return False
    if expr.op == "=":
        return lhs == rhs
    if expr.op == "!=":
        return lhs != rhs

    def numeric(term):
        if isinstance(term, Literal) and term.lang is None:
            dt = term.datatype
            if dt.startswith("http://www.w3.org/2001/XMLSchema#") and any(
                    dt.endswith(k) for k in ("integer", "decimal", "double",
                                             "float", "int", "long", "short",
                                             "byte", "nonNegativeInteger",
                                             "positiveInteger")):
                try:
                    return float(term.lexical)
                except ValueError:
                    return None
        return None

    ln, rn = numeric(lhs), numeric(rhs)
    if ln is not None and rn is not None:
        return ln < rn if expr.op == "<" else ln > rn
    if (isinstance(lhs, Literal) and isinstance(rhs, Literal)
            and lhs.datatype.endswith("#string") and rhs.datatype.endswith("#string")):
        return (lhs.lexical < rhs.lexical) if expr.op == "<" else (lhs.lexical > rhs.lexical)
    return False


def oracle_group(group: Group, g: Graph) -> list[dict]:
    sols = [dict()]
    for el in group.elements:
        if isinstance(el, Values):
            sols = [ext for sol in sols for term in el.terms
                    for ext in ([dict(sol, **{el.var.name: term})]
                                if sol.get(el.var.name) in (None, term) else [])]
    for el in group.elements:  # patterns and unions in textual order
        if isinstance(el, TriplePattern):
            sols = [ext for sol in sols for ext in _oracle_match(g, el, sol)]
        elif isinstance(el, Union):
            right = [r for branch in el.branches for r in oracle_group(branch, g)]
            sols = [dict(sol, **r) for sol in sols for r in right
                    if all(sol.get(k, v) == v for k, v in r.items())]
    for el in group.elements:
        if isinstance(el, OptionalGroup):
            # LeftJoin(G, P, F): the group's FILTERs test each merged row.
            conditions = [e.expr for e in el.group.elements if isinstance(e, Filter)]
            right = oracle_group(Group([e for e in el.group.elements
                                        if not isinstance(e, Filter)]), g)
            joined = []
            for sol in sols:
                hits = []
                for r in right:
                    if all(sol.get(k, v) == v for k, v in r.items()):
                        merged = dict(sol)
                        merged.update(r)
                        if all(_oracle_filter(c, merged) for c in conditions):
                            hits.append(merged)
                joined.extend(hits if hits else [sol])
            sols = joined
    for el in group.elements:
        if isinstance(el, Minus):
            right = oracle_group(el.group, g)
            kept = []
            for sol in sols:
                removed = False
                for r in right:
                    shared = set(sol) & set(r)
                    if shared and all(sol[k] == r[k] for k in shared):
                        removed = True
                        break
                if not removed:
                    kept.append(sol)
            sols = kept
    for el in group.elements:
        if isinstance(el, Filter):
            sols = [sol for sol in sols if _oracle_filter(el.expr, sol)]
    return sols


def oracle_evaluate(query: SelectQuery, g: Graph) -> list[tuple]:
    sols = oracle_group(query.where, g)
    if query.variables is None:
        names = []

        def collect(grp):
            for el in grp.elements:
                if isinstance(el, TriplePattern):
                    for part in (el.s, el.p, el.o):
                        if isinstance(part, Var) and part.name not in names:
                            names.append(part.name)
                elif isinstance(el, Values):
                    if el.var.name not in names:
                        names.append(el.var.name)
                elif isinstance(el, OptionalGroup):  # no MINUS variable is in scope
                    collect(el.group)
                elif isinstance(el, Union):
                    for branch in el.branches:
                        collect(branch)

        collect(query.where)
    else:
        names = [v.name for v in query.variables]
    rows = [tuple(sol.get(n) for n in names) for sol in sols]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    return rows


def row_multiset(rows) -> list[tuple]:
    return sorted(tuple("" if t is None else nt_term(t) for t in row)
                  for row in rows)


# ---------------------------------------------------------------------------
# Random generators


def random_graph(rng: random.Random, max_triples: int = 60) -> Graph:
    nodes = [iri(f"urn:n{i}") for i in range(rng.randrange(4, 10))]
    preds = [iri(f"urn:p{i}") for i in range(rng.randrange(2, 5))]
    literals = [lit(f"v{i}") for i in range(3)] + [
        lit(str(i), "http://www.w3.org/2001/XMLSchema#integer") for i in range(3)]
    g = Graph()
    for _ in range(rng.randrange(5, max_triples)):
        o = rng.choice(literals) if rng.random() < 0.25 else rng.choice(nodes)
        g.add(Triple(rng.choice(nodes), rng.choice(preds), o))
    return g.freeze()


def random_query(rng: random.Random, g: Graph) -> SelectQuery:
    terms = sorted({t.s for t in g.match()} | {t.o for t in g.match()},
                   key=nt_term)
    preds = sorted({t.p for t in g.match()}, key=nt_term)
    var_names = ["a", "b", "c", "d"]

    def pick_term(allow_literal=True):
        if rng.random() < 0.55:
            return Var(rng.choice(var_names))
        choices = terms if allow_literal else [t for t in terms
                                               if not isinstance(t, Literal)]
        return rng.choice(choices)

    def pattern():
        p = Var(rng.choice(var_names)) if rng.random() < 0.2 else rng.choice(preds)
        plus = isinstance(p, IRI) and rng.random() < 0.2
        s = pick_term(allow_literal=False)
        if isinstance(s, Literal):
            s = Var("a")
        return TriplePattern(s, p, pick_term(), plus)

    elements: list = [pattern() for _ in range(rng.randrange(1, 5))]
    extra = rng.random()
    if extra < 0.25:
        elements.append(Filter(rng.choice([
            Comparison(rng.choice(["=", "!=", "<", ">"]),
                       Var(rng.choice(var_names)),
                       rng.choice(terms)),
            BoundTest(Var(rng.choice(var_names)), rng.random() < 0.5),
            RegexTest(Var(rng.choice(var_names)), "v[0-9]", rng.random() < 0.5),
        ])))
    elif extra < 0.5:
        elements.append(Minus(Group([pattern()
                                     for _ in range(rng.randrange(1, 3))])))
    elif extra < 0.75:
        elements.append(OptionalGroup(Group([pattern()
                                             for _ in range(rng.randrange(1, 3))])))
    else:
        values_var = rng.choice(var_names)
        elements.append(Values(Var(values_var),
                               [rng.choice(terms) for _ in range(rng.randrange(1, 4))]))

    in_scope = []

    def collect(els):
        for el in els:
            if isinstance(el, TriplePattern):
                for part in (el.s, el.p, el.o):
                    if isinstance(part, Var) and part.name not in in_scope:
                        in_scope.append(part.name)
            elif isinstance(el, Values) and el.var.name not in in_scope:
                in_scope.append(el.var.name)
            elif isinstance(el, (Minus, OptionalGroup)):
                collect(el.group.elements)

    collect(elements)
    if not in_scope:
        in_scope = ["a"]
        elements.insert(0, TriplePattern(Var("a"), Var("b"), Var("c")))
        collect(elements)
    projected = None
    if rng.random() < 0.7:
        k = rng.randrange(1, len(in_scope) + 1)
        projected = [Var(n) for n in rng.sample(in_scope, k)]
    return SelectQuery({}, projected, rng.random() < 0.3, Group(elements), [])


# ---------------------------------------------------------------------------
# Tests


def test_engine_matches_nested_loop_oracle_on_100_cases():
    rng = random.Random(2024)
    for case in range(100):
        g = random_graph(rng)
        query = random_query(rng, g)
        mine = row_multiset(evaluate(query, g).rows)
        ref = row_multiset(oracle_evaluate(query, g))
        assert mine == ref, f"case {case} diverged"


def test_join_order_independence():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng)
        query = random_query(rng, g)
        baseline = row_multiset(evaluate(query, g).rows)
        elements = list(query.where.elements)
        patterns = [e for e in elements if isinstance(e, TriplePattern)]
        others = [e for e in elements if not isinstance(e, TriplePattern)]
        rng.shuffle(patterns)
        shuffled = SelectQuery(query.prefixes, query.variables, query.distinct,
                               Group(patterns + others), query.order_by)
        assert row_multiset(evaluate(shuffled, g).rows) == baseline


def test_closure_matches_brute_force_on_random_graphs_at_every_bound_end():
    # DAGs and graphs with cycles (self-loops included), with the subject,
    # the object, both ends or neither bound, and one variable at both ends.
    rng = random.Random(4242)
    pred = iri("urn:next")
    a, b = Var("a"), Var("b")

    def closure(s, o) -> set[tuple]:
        query = SelectQuery({}, None, False, Group([TriplePattern(s, pred, o, True)]), [])
        return set(evaluate(query, g).rows)

    for case in range(100):
        cyclic = case % 2 == 1
        n = rng.randrange(2, 20)
        nodes = [iri(f"urn:v{i}") for i in range(n)]
        g = Graph()
        for _ in range(rng.randrange(1, 40)):
            x, y = rng.randrange(n), rng.randrange(n)
            if cyclic or x < y:  # forward edges only: a DAG by construction
                g.add(Triple(nodes[x], pred, nodes[y]))
        if len(g) == 0:
            g.add(Triple(nodes[0], pred, nodes[1]))
        g.freeze()
        expected = brute_closure(g, pred)
        assert closure(a, b) == expected
        assert closure(a, a) == {(x,) for x, y in expected if x == y}
        for node in nodes:
            assert closure(node, b) == {(y,) for x, y in expected if x == node}
            assert closure(a, node) == {(x,) for x, y in expected if y == node}
            other = rng.choice(nodes)
            assert closure(node, other) == ({()} if (node, other) in expected else set())


def test_distinct_is_set_collapse_of_plain_result():
    rng = random.Random(7321)
    for _ in range(30):
        g = random_graph(rng)
        query = random_query(rng, g)
        plain = SelectQuery(query.prefixes, query.variables, False,
                            query.where, [])
        strict = SelectQuery(query.prefixes, query.variables, True,
                             query.where, [])
        plain_rows = row_multiset(evaluate(plain, g).rows)
        strict_rows = row_multiset(evaluate(strict, g).rows)
        assert sorted(set(plain_rows)) == strict_rows


# ---------------------------------------------------------------------------
# Hash-joined OPTIONAL / MINUS, cost-based join order and closure lookups

JOIN_SHAPES = ("two-optionals", "nested-optionals", "optional-then-minus",
               "values-join", "closure-bound-object")
UNION_SHAPES = ("union", "union-in-minus")


def random_join_query(rng: random.Random, g: Graph, shape: str) -> SelectQuery:
    """A query of one shape that stresses the join paths.

    Variables ``?a``-``?d`` are shared freely across groups, so an OPTIONAL
    often binds a variable only some rows carry; ``?e`` is bound by an
    OPTIONAL alone in the ``optional-then-minus`` shape, and by one UNION
    branch alone in the UNION shapes.
    """
    subjects = sorted({t.s for t in g.match()}, key=nt_term)
    objects = sorted({t.o for t in g.match()}, key=nt_term)
    preds = sorted({t.p for t in g.match()}, key=nt_term)
    names = ["a", "b", "c", "d"]

    def var():
        return Var(rng.choice(names))

    def pattern(s=None, o=None, plus=None):
        p = rng.choice(preds)
        if plus is None:
            plus = rng.random() < 0.2
        if s is None:
            s = var() if rng.random() < 0.8 else rng.choice(subjects)
        if o is None:
            o = var() if rng.random() < 0.7 else rng.choice(objects)
        return TriplePattern(s, p, o, plus)

    def bgp(low, high):
        return [pattern() for _ in range(rng.randrange(low, high + 1))]

    def values(name):
        pool = subjects + objects
        return Values(Var(name), [rng.choice(pool)
                                  for _ in range(rng.randrange(1, 4))])

    elements = bgp(1, 2)
    if shape == "two-optionals":
        elements += [OptionalGroup(Group(bgp(1, 2))), OptionalGroup(Group(bgp(1, 2)))]
    elif shape == "nested-optionals":
        inner = bgp(1, 2) + [OptionalGroup(Group(bgp(1, 2)))]
        if rng.random() < 0.3:
            inner.append(Minus(Group(bgp(1, 1))))
        elements.append(OptionalGroup(Group(inner)))
    elif shape == "optional-then-minus":
        only = Var("e")
        elements.append(OptionalGroup(Group(
            [pattern(s=var(), o=only)] + bgp(0, 1))))
        hit = pattern(s=only) if rng.random() < 0.5 else pattern(o=only)
        elements.append(Minus(Group([hit] + bgp(0, 1))))
    elif shape == "values-join":
        elements.insert(0, values(rng.choice(names)))
        group = bgp(1, 2)
        if rng.random() < 0.5:
            group.append(values(rng.choice(names)))
        kind = OptionalGroup if rng.random() < 0.6 else Minus
        elements.append(kind(Group(group)))
    elif shape in UNION_SHAPES:
        # Two or three branches over different variables: ?e only in the
        # first, so a union row need not bind every branch's variables.
        branches = [Group([pattern(s=var(), o=Var("e"))] + bgp(0, 1))]
        branches += [Group(bgp(1, 2)) for _ in range(rng.randrange(1, 3))]
        if shape == "union":
            if rng.random() < 0.5:
                elements.insert(0, values(rng.choice(names)))
            elements.append(Union(branches))
        else:
            elements.append(Minus(Group([Union(branches)] + bgp(1, 1))))
    else:  # closure-bound-object
        p = rng.choice(preds)
        reached = sorted({t.o for t in g.match(p=p)}, key=nt_term)
        target = Var("b") if rng.random() < 0.6 else rng.choice(reached)
        if isinstance(target, Var) and rng.random() < 0.5:
            elements.insert(0, Values(target, [rng.choice(reached)
                                               for _ in range(rng.randrange(1, 4))]))
        elements.append(TriplePattern(Var("a"), p, target, True))
        if rng.random() < 0.5:
            elements.append(OptionalGroup(Group(
                [pattern(s=var(), o=Var("a"), plus=True)])))
    if rng.random() < 0.25:
        elements.append(Filter(BoundTest(Var(rng.choice(names + ["e"])),
                                         rng.random() < 0.5)))

    in_scope = []

    def collect(els):
        for el in els:
            if isinstance(el, TriplePattern):
                for part in (el.s, el.p, el.o):
                    if isinstance(part, Var) and part.name not in in_scope:
                        in_scope.append(part.name)
            elif isinstance(el, Values) and el.var.name not in in_scope:
                in_scope.append(el.var.name)
            elif isinstance(el, (Minus, OptionalGroup)):
                collect(el.group.elements)
            elif isinstance(el, Union):
                for branch in el.branches:
                    collect(branch.elements)

    collect(elements)
    projected = None
    if in_scope and rng.random() < 0.7:
        k = rng.randrange(1, len(in_scope) + 1)
        projected = [Var(n) for n in rng.sample(in_scope, k)]
    return SelectQuery({}, projected, rng.random() < 0.3, Group(elements), [])


def shuffle_patterns(rng: random.Random, group: Group) -> Group:
    """The group with the triple patterns of it and every nested group in
    a random order."""
    patterns = [e for e in group.elements if isinstance(e, TriplePattern)]
    rng.shuffle(patterns)
    others = []
    for el in group.elements:
        if isinstance(el, OptionalGroup):
            others.append(OptionalGroup(shuffle_patterns(rng, el.group)))
        elif isinstance(el, Minus):
            others.append(Minus(shuffle_patterns(rng, el.group)))
        elif isinstance(el, Union):
            others.append(Union([shuffle_patterns(rng, branch)
                                 for branch in el.branches]))
        elif not isinstance(el, TriplePattern):
            others.append(el)
    return Group(patterns + others)


def check_join_shapes(seed: int, shapes: tuple, cases: int,
                      make=random_join_query):
    rng = random.Random(seed)
    non_empty = dict.fromkeys(shapes, 0)
    for case in range(cases):
        shape = shapes[case % len(shapes)]
        g = random_graph(rng)
        query = make(rng, g, shape)
        table = evaluate(query, g)
        mine = row_multiset(table.rows)
        assert mine == row_multiset(oracle_evaluate(query, g)), \
            f"case {case} ({shape}) diverged from the oracle"
        # Project the same header: SELECT * lists variables in textual order.
        header = [Var(name) for name in table.variables]
        shuffled = SelectQuery(query.prefixes, header, query.distinct,
                               shuffle_patterns(rng, query.where), query.order_by)
        assert row_multiset(evaluate(shuffled, g).rows) == mine, \
            f"case {case} ({shape}) depends on pattern order"
        non_empty[shape] += bool(mine)
    # The cases must reach the joins with rows on both sides, not just agree
    # on empty answers.
    assert all(count >= 15 for count in non_empty.values()), non_empty


def test_join_paths_match_oracle_and_join_order_on_200_cases():
    check_join_shapes(20261018, JOIN_SHAPES, 200)


def test_union_shapes_match_oracle_and_join_order_on_80_cases():
    check_join_shapes(20261019, UNION_SHAPES, 80)


# ---------------------------------------------------------------------------
# OPTIONAL / MINUS groups seeded from the outer rows

SEED_SHAPES = ("filter-outer-var", "union-misses-seed", "nested-seed")


def random_seed_query(rng: random.Random, g: Graph, shape: str) -> SelectQuery:
    """A query of one shape whose OPTIONAL or MINUS group shares variables
    with the outer rows, so the group is seeded from them.

    The outer rows always bind ``?a`` and ``?b``. In ``filter-outer-var``
    the group's patterns never bind ``?b``, and a FILTER in the group names
    it. In ``union-misses-seed`` a UNION of branches anchored on constants
    binds only ``?e``, and one more pattern links ``?e`` to an outer
    variable. In ``nested-seed`` the group's own OPTIONAL shares ``?a``
    with both levels.
    """
    subjects = sorted({t.s for t in g.match()}, key=nt_term)
    objects = sorted({t.o for t in g.match()}, key=nt_term)
    preds = sorted({t.p for t in g.match()}, key=nt_term)

    def pattern(s, o, plus=None):
        if plus is None:
            plus = rng.random() < 0.2
        return TriplePattern(s, rng.choice(preds), o, plus)

    def var(*names):
        return Var(rng.choice(names))

    elements = [pattern(Var("a"), Var("b"))]
    if rng.random() < 0.5:
        elements.append(pattern(var("a", "b", "c"), var("a", "b", "c")))
    kind = OptionalGroup if rng.random() < 0.6 else Minus
    if shape == "filter-outer-var":
        inner = [pattern(var("a", "c"), var("a", "c", "d"))]
        if rng.random() < 0.5:
            inner.append(pattern(var("a", "c", "d"), var("c", "d")))
        inner.append(Filter(rng.choice([
            BoundTest(Var("b"), rng.random() < 0.5),
            Comparison(rng.choice(["=", "!="]), Var("b"), var("a", "c")),
            Comparison(rng.choice(["=", "!="]), Var("b"), rng.choice(objects)),
        ])))
    elif shape == "union-misses-seed":
        branches = [Group([pattern(rng.choice(subjects), Var("e"))
                           if rng.random() < 0.5 else
                           pattern(Var("e"), rng.choice(objects))])
                    for _ in range(rng.randrange(2, 4))]
        link = var("a", "b")
        inner = [Union(branches),
                 pattern(Var("e"), link) if rng.random() < 0.5
                 else pattern(link, Var("e"))]
    else:  # nested-seed
        nested = [pattern(Var("a"), var("c", "d"))]
        if rng.random() < 0.3:
            nested.append(Minus(Group([pattern(var("a", "c"), var("b", "d"))])))
        inner = [pattern(Var("a"), Var("c"))]
        if rng.random() < 0.5:
            inner.append(pattern(Var("c"), var("b", "d")))
        inner.append(OptionalGroup(Group(nested)))
    elements.append(kind(Group(inner)))
    projected = None
    if rng.random() < 0.5:
        projected = [Var(n) for n in ("a", "b")]
    return SelectQuery({}, projected, rng.random() < 0.3, Group(elements), [])


def test_seeded_groups_match_oracle_and_join_order_on_90_cases():
    check_join_shapes(20261020, SEED_SHAPES, 90, random_seed_query)


def test_seed_shapes_reach_the_seeded_start_and_the_unseeded_run(monkeypatch):
    # A group whose triple patterns share a variable with every outer row
    # either starts from its seed or runs unseeded: its first-step
    # estimates decide, and a group with VALUES or UNION gets no seed. The
    # cases must reach both.
    shared = []

    def counted_seed(outer, group):
        patterns = [el for el in group.elements if isinstance(el, TriplePattern)]
        shared.append(_seed(outer, Group(patterns)) is not None)
        return _seed(outer, group)

    monkeypatch.setattr("plexflow.query._seed", counted_seed)
    rng = random.Random(20261021)
    starts = 0
    for case in range(60):
        g = random_graph(rng)
        query = random_seed_query(rng, g, SEED_SHAPES[case % len(SEED_SHAPES)])
        starts += sum(line.split()[:2] == ["seed", "start"]
                      for line in explain(query, g))
    unseeded = sum(shared) - starts
    assert starts >= 10 and unseeded >= 10, (starts, unseeded)


# ---------------------------------------------------------------------------
# One-pattern OPTIONAL groups that extend each outer row

EXTEND_SHAPES = ("one-pattern", "nested", "union-outer", "repeated-var",
                 "literal-object", "closure")


def random_extend_query(rng: random.Random, g: Graph, shape: str) -> SelectQuery:
    """A query of one shape whose OPTIONAL groups are mostly one triple
    pattern, so that they extend the outer rows one by one.

    The outer rows always bind ``?a``. ``nested`` draws its nested groups'
    variables freely, so some are not well-designed and stay seeded. In
    ``union-outer`` a UNION binds ``?e`` in one branch only.
    ``repeated-var`` repeats a variable in a group's pattern.
    ``literal-object`` fixes a pattern's object to a literal that equals the
    graph's without being the same object. ``closure`` uses ``p+``, which
    keeps the seeded path.
    """
    preds = sorted({t.p for t in g.match()}, key=nt_term)
    literals = sorted({t.o for t in g.match() if isinstance(t.o, Literal)},
                      key=nt_term)
    names = ("a", "b", "c", "d")

    def var(*pool):
        return Var(rng.choice(pool or names))

    def pattern(s=None, o=None, plus=False):
        return TriplePattern(s or var(), rng.choice(preds), o or var(), plus)

    def optional(*elements):
        return OptionalGroup(Group(list(elements)))

    outer = [pattern(Var("a"), var("b", "c"))]
    if rng.random() < 0.5:
        outer.append(pattern(var("a", "b", "c"), var("b", "c", "d")))
    if shape == "one-pattern":
        elements = outer + [optional(pattern(var("a", "b", "c")))
                            for _ in range(rng.randrange(1, 3))]
    elif shape == "nested":
        nested = [optional(pattern()) for _ in range(rng.randrange(1, 3))]
        if rng.random() < 0.5:
            nested[0].group.elements.append(optional(pattern()))
        elements = outer + [optional(pattern(var("a", "b")), *nested)]
    elif shape == "union-outer":
        branches = [Group([pattern(Var("a"), Var("e"))]),
                    Group([pattern(Var("a"), var("b", "c"))])]
        elements = [Union(branches), optional(pattern(Var("a"), var("b", "e")))]
        if rng.random() < 0.5:
            elements.append(optional(pattern(var("a", "e"))))
    elif shape == "repeated-var":
        same = var("a", "c")
        repeated = pattern(same, same)
        elements = outer + [optional(repeated) if rng.random() < 0.5 else
                            optional(pattern(Var("a"), var("c", "d")),
                                     optional(repeated))]
    elif shape == "literal-object":
        def literal():
            if not literals:
                return var()
            term = rng.choice(literals)
            return Literal(term.lexical, term.datatype, term.lang)

        elements = outer + [optional(pattern(var("a", "b", "c"), literal()))]
        if rng.random() < 0.5:
            elements.append(optional(pattern(Var("a"), var("c", "d")),
                                     optional(pattern(var("c", "d"), literal()))))
    else:  # closure
        closure = pattern(Var("a"), var("c", "d"), plus=True)
        elements = outer + [optional(closure) if rng.random() < 0.5 else
                            optional(pattern(Var("a"), Var("c")),
                                     optional(pattern(Var("c"), plus=True)))]
    if rng.random() < 0.2:
        elements.append(Filter(BoundTest(var("b", "c", "d"), rng.random() < 0.5)))
    projected = None
    if rng.random() < 0.5:
        projected = [Var(n) for n in sorted(rng.sample(names, 2))]
    return SelectQuery({}, projected, rng.random() < 0.3, Group(elements), [])


def test_extended_optionals_match_oracle_and_join_order_on_180_cases():
    check_join_shapes(20261022, EXTEND_SHAPES, 180, random_extend_query)


def test_extend_shapes_reach_both_the_extension_and_the_seeded_path():
    rng = random.Random(20261023)
    seen = {"extend": 0, "seed": 0}
    for case in range(60):
        g = random_graph(rng)
        query = random_extend_query(rng, g, EXTEND_SHAPES[case % len(EXTEND_SHAPES)])
        for line in explain(query, g):
            words = line.split()
            if words[:2] == ["optional", "extend"]:
                seen["extend"] += 1
            elif words[0] == "seed":
                seen["seed"] += 1
    assert seen["extend"] >= 10 and seen["seed"] >= 10, seen


def test_replayed_choices_answer_as_estimating_does_on_seed_and_extend_shapes(
        monkeypatch):
    # A record replays the seeded-start choices and the join order it
    # recorded, over groups started from a seed, from the outer rows
    # (extending) and from one empty row, with no estimate made.
    calls = [0]
    estimate = plexflow.query._estimate

    def counted(*args):
        calls[0] += 1
        return estimate(*args)

    monkeypatch.setattr(plexflow.query, "_estimate", counted)
    rng = random.Random(20261024)
    seeded = 0
    for shapes, make in ((SEED_SHAPES, random_seed_query),
                         (EXTEND_SHAPES, random_extend_query)):
        for case in range(60):
            g = random_graph(rng)
            query = make(rng, g, shapes[case % len(shapes)])
            choices = _Choices()
            first = evaluate(query, g, choices=choices)
            before = calls[0]
            replayed = evaluate(query, g, choices=_Choices(tuple(choices.made)))
            assert calls[0] == before, case
            assert replayed.rows == first.rows, case
            seeded += any(line.split()[:2] == ["seed", "start"]
                          for line in explain(query, g))
    assert seeded >= 10, seeded


def test_a_nested_optional_that_is_not_well_designed_stays_joined():
    # The nested group binds ?b, which the outer rows bind and the group's
    # own pattern does not. Evaluated alone, the group gives (a, c1, b2),
    # which does not fit the outer row (a, b1), so SPARQL keeps that row
    # alone. Extending the outer row would give (a, b1, c1).
    g = Graph([Triple(iri("urn:a"), iri("urn:p"), iri("urn:b1")),
               Triple(iri("urn:a"), iri("urn:q"), iri("urn:c1")),
               Triple(iri("urn:c1"), iri("urn:r"), iri("urn:b2"))]).freeze()
    query = parse_query("SELECT ?a ?b ?c WHERE { ?a <urn:p> ?b . OPTIONAL { "
                        "?a <urn:q> ?c . OPTIONAL { ?c <urn:r> ?b } } }")
    expected = [(iri("urn:a"), iri("urn:b1"), None)]
    assert evaluate(query, g).rows == expected
    assert oracle_evaluate(query, g) == expected
    # The group is seeded and joined; its own nested OPTIONAL may still
    # extend the group's rows, which no outer row then fits.
    assert explain(query, g)[-1] == "optional key=(?a ?b) pairs=0 rows=1"


# ---------------------------------------------------------------------------
# The catalogue under the oracle

# Each template bound both ways: $workflow to each version, $from/$to in
# each direction. Templates without parameters run once per way.
BINDINGS = ({"workflow": iri(V01), "from": iri(V01), "to": iri(V02)},
            {"workflow": iri(V02), "from": iri(V02), "to": iri(V01)})


def check_catalogue_against_oracle(g: Graph) -> int:
    """Every bound template over ``g``, through the engine estimating, then
    replayed from its record through ``bind_for``, and through the oracle.
    Returns the number of non-empty answers."""
    non_empty = 0
    for cq_id, entry in sorted(CATALOGUE.items()):
        prepared = plexflow.query.PreparedQuery(query_text(entry.file))
        for values in BINDINGS:
            query = prepared.bind(values)
            expected = row_multiset(oracle_evaluate(query, g))
            assert row_multiset(evaluate(query, g).rows) == expected, cq_id
            for _ in range(2):  # the first call records, the second replays
                bound, choices = prepared.bind_for(g, values)
                assert row_multiset(evaluate(bound, g, choices=choices).rows) \
                    == expected, cq_id
            assert choices._replay is not None, cq_id
            non_empty += bool(expected)
    return non_empty


def test_catalogue_matches_oracle_on_the_fixture(fixture_graph):
    # All but one answer have rows: no step goes from computational in
    # v0.2 back to manual in v0.1 (CQ3.3 from v0.2 to v0.1).
    assert check_catalogue_against_oracle(fixture_graph) == 2 * len(CATALOGUE) - 1


@pytest.mark.parametrize("seed", range(3))
def test_catalogue_matches_oracle_on_mutated_fixtures(fixture_graph, seed):
    g = mutated(fixture_graph.match(), random.Random(seed)).freeze()
    assert check_catalogue_against_oracle(g) > 0
