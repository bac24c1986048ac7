"""Route independence, read from the static call graph of `src/isolab`.

Each module-level function and method is a node; a nested function or
lambda is folded into the function that holds it.  A node's edges go to
every function or method whose name it mentions (calls, bound methods
passed as values, properties), so the graph over-approximates what a node
can run; a class name leads to the class's `__init__`.  A route that cannot
reach a function in this graph cannot run it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "isolab"
SOLVERS = {"_masked_newton", "_chart_step", "_newton_multistart",
           "_focal_newton"}


def call_graph():
    """{qualified name: set of qualified names it mentions}, qualified as
    "Class.method" or "function"; same-named functions of two modules
    share a node."""
    nodes = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                nodes.setdefault(top.name, []).append(top)
            elif isinstance(top, ast.ClassDef):
                nodes[top.name] = [ast.Name(f"{top.name}.__init__")]
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        nodes[f"{top.name}.{item.name}"] = [item]
                    elif (isinstance(item, ast.Assign)
                          and isinstance(item.value, ast.Name)):
                        # a method alias, such as `b = a`
                        for target in item.targets:
                            nodes[f"{top.name}.{target.id}"] = [item.value]
    by_name = {}
    for name in nodes:
        by_name.setdefault(name.rsplit(".", 1)[-1], set()).add(name)
        by_name.setdefault(name, set()).add(name)
    graph = {}
    for name, defs in nodes.items():
        subs = [sub for node in defs for sub in ast.walk(node)]
        said = {sub.id for sub in subs if isinstance(sub, ast.Name)}
        said |= {sub.attr for sub in subs if isinstance(sub, ast.Attribute)}
        graph[name] = set().union(*(by_name.get(w, ()) for w in said)) - {name}
    return graph


def reach(graph, start):
    seen, todo = set(), [start]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return {name.rsplit(".", 1)[-1] for name in seen} | seen


GRAPH = call_graph()


def test_newton_route_reaches_no_circle_route_and_no_expected_count():
    reached = reach(GRAPH, "_newton_route")
    assert {"_masked_newton", "_focal_jacobian", "_newton_jacobian"} <= reached
    assert not reached & {"_normal_circle", "_focal_circle_points",
                          "normal_circle_critical_points", "_match_distance",
                          "_classify", "_focal_counts"}
    assert not [name for name in reached if name.startswith("betti_sum_")]


def test_circle_route_reaches_no_solver():
    reached = reach(GRAPH, "_normal_circle")
    assert "_circle_tangency" in reached
    assert not reached & SOLVERS


def test_focal_count_reaches_no_stencil():
    assert "_index_stencil" not in reach(GRAPH, "_focal_counts")


def test_level_stencil_gradient_reaches_no_hessian_and_no_shape_operator():
    banned = {"CMPolynomial.hessian", "hessian_along", "_shape_operators"}
    # the focal stencil gradient does read the Hessian bank: the graph sees it
    assert "CMPolynomial.hessian" in reach(GRAPH,
                                           "_FocalSheet.stencil_gradient")
    assert not reach(GRAPH, "_Level.stencil_gradient") & banned


def test_pole_draw_loop_reaches_no_witness():
    # a pole's acceptance never reads the witness under test: neither the
    # loop nor the circle routes and start draws it is handed reach a solve
    banned = SOLVERS | {"_newton_route", "_dedup", "_classify"}
    assert "_draw_pole" in reach(GRAPH, "_draw_poles")
    for name in ("_draw_poles", "_normal_circle", "_focal_circle_points",
                 "_newton_draws"):
        assert not reach(GRAPH, name) & banned, name


def test_every_certificate_runs_the_one_newton_body_and_classifier():
    # the Euclidean spot check solves and classifies on the shared body,
    # with no Newton driver of its own
    assert [name for name, said in GRAPH.items()
            if "_masked_newton" in said] == ["_newton"]
    assert {"_newton", "_classify"} <= reach(GRAPH,
                                             "euclidean_taut_spot_check")
