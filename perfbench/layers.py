"""Per-layer metrics computed from one traced pass.

Each entry is (metric name, unit, better, function of the span summary and
the tracer's counters).  Span names are "<module>.<function>" or
"<module>.<Class>.<method>"; a layer's self time is the sum over its spans.
The comment above each group names the end-to-end metric the group should
move, and on which workload; README.md has the same map as a table.
"""

from tracer import LAYERS

ELIM = ("solve", "inverse", "det", "affine_solve", "rank")
COXETER_MEMOS = ("facets", "witness", "vertices", "barycenter", "project_toward")
CRITERIA = {
    "steinberg": "criterion_steinberg",
    "characters": "criterion_characters",
    "coxeter": "criterion_coxeter",
    "spherical": "criterion_spherical",
    "building": "criterion_building",
    "negative": "criterion_negative_direction",
    "positive": "criterion_positive_direction",
    "sigma": "criterion_sigma",
}


def _get(span, field):
    return lambda s, c: s.get(span, {}).get(field, 0)


def _calls(span):
    return _get(span, "calls")


def _self(span):
    return _get(span, "self_s")


def _incl(span):
    return _get(span, "incl_s")


def _counter(key):
    return lambda s, c: c.get(key, 0)


def _ratio(num, den):
    def value(s, c):
        d = den(s, c)
        return num(s, c) / d if d else 0.0

    return value


def _layer_self(layer):
    prefix = layer + "."
    return lambda s, c: sum(v["self_s"] for k, v in s.items() if k.startswith(prefix))


def _sum(*fns):
    return lambda s, c: sum(f(s, c) for f in fns)


def _hit_ratio(span):
    return _ratio(_counter(span + ".hits"), _calls(span))


FP = "linalg.feasible_point"
GEOM = "coxeter.AlcoveGeometry"
WIN = "windows.Window"
TRUNC = "building.Truncation"
CX = "complexes.CellComplex"
CC = "homology.ChainComplexF2"
GE = "chevalley.GroupElement"

SELF = {f"{layer}.self_s": _layer_self(layer) for layer in LAYERS}

METRICS = [
    # linalg -> op_tail_ms, wall_s @ verdict; wall_s @ alcove
    ("linalg.self_s", "s", "lower", SELF["linalg.self_s"]),
    ("linalg.feasible_point.calls", "count", "lower", _calls(FP)),
    ("linalg.feasible_point.self_s", "s", "lower", _self(FP)),
    (
        "linalg.feasible_point.feasible_ratio",
        "ratio",
        "higher",
        _ratio(_counter(FP + ".feasible"), _calls(FP)),
    ),
    ("linalg.feasible_point.constraints", "count", "lower", _counter(FP + ".constraints")),
    ("linalg.elim.calls", "count", "lower", _sum(*(_calls(f"linalg.{f}") for f in ELIM))),
    ("linalg.elim.self_s", "s", "lower", _sum(*(_self(f"linalg.{f}") for f in ELIM))),
    # coxeter -> wall_s, op_p50_ms @ alcove; wall_s @ certify
    ("coxeter.self_s", "s", "lower", SELF["coxeter.self_s"]),
    *[
        entry
        for m in COXETER_MEMOS
        for entry in (
            (f"coxeter.{m}.calls", "count", "lower", _calls(f"{GEOM}.{m}")),
            (f"coxeter.{m}.hit_ratio", "ratio", "higher", _hit_ratio(f"{GEOM}.{m}")),
        )
    ],
    ("coxeter.cell_from_constraints.calls", "count", "lower", _calls(f"{GEOM}.cell_from_constraints")),
    # windows -> op_p50_ms, op_tail_ms @ alcove
    ("windows.self_s", "s", "lower", SELF["windows.self_s"]),
    ("windows.window_cells.s", "s", "lower", _incl(f"{WIN}.cells")),
    ("windows.upper_lower_certified.calls", "count", "lower", _calls("windows.upper_lower_certified")),
    ("windows.upper_lower_certified.self_s", "s", "lower", _self("windows.upper_lower_certified")),
    ("windows.deconstruct.calls", "count", "lower", _calls("windows.deconstruct")),
    ("windows.deconstruct.self_s", "s", "lower", _self("windows.deconstruct")),
    ("windows.residual_r.calls", "count", "lower", _calls("windows.residual_r")),
    # building -> wall_s, peak_rss_mb @ tree-homology; wall_s @ certify
    ("building.self_s", "s", "lower", SELF["building.self_s"]),
    ("building.grow.s", "s", "lower", _incl(f"{TRUNC}.__init__")),
    ("building.chambers", "count", "lower", _counter("building.chambers")),
    ("building.cells", "count", "lower", _counter("building.cells")),
    ("building.lattice_canonical_form.calls", "count", "lower", _calls("building.lattice_canonical_form")),
    ("building.lattice_canonical_form.self_s", "s", "lower", _self("building.lattice_canonical_form")),
    ("building.smith_adapted_basis.calls", "count", "lower", _calls("building.smith_adapted_basis")),
    ("building.superlevel_complex.calls", "count", "lower", _calls("building.superlevel_complex")),
    ("building.superlevel_complex.self_s", "s", "lower", _self("building.superlevel_complex")),
    ("building.retraction_preimage.calls", "count", "lower", _calls("building.retraction_preimage")),
    ("building.retraction_preimage.self_s", "s", "lower", _self("building.retraction_preimage")),
    ("building.retract_cell.hit_ratio", "ratio", "higher", _hit_ratio(f"{TRUNC}.retract_cell")),
    ("building.height_eval.calls", "count", "lower", _calls("building.height_eval")),
    # complexes -> op_p50_ms, op_tail_ms @ tree-homology; wall_s @ certify
    ("complexes.self_s", "s", "lower", SELF["complexes.self_s"]),
    ("complexes.cells.calls", "count", "lower", _calls(f"{CX}.cells")),
    ("complexes.cells.self_s", "s", "lower", _self(f"{CX}.cells")),
    ("complexes.cells.returned", "count", "lower", _counter(f"{CX}.cells.returned")),
    ("complexes.restrict.calls", "count", "lower", _calls(f"{CX}.restrict")),
    ("complexes.restrict.self_s", "s", "lower", _self(f"{CX}.restrict")),
    ("complexes.freeze.calls", "count", "lower", _calls(f"{CX}.freeze")),
    ("complexes.freeze.self_s", "s", "lower", _self(f"{CX}.freeze")),
    # homology -> op_tail_ms @ tree-homology
    ("homology.self_s", "s", "lower", SELF["homology.self_s"]),
    ("homology.chain_complex.calls", "count", "lower", _calls(f"{CC}.__init__")),
    ("homology.chain_complex.self_s", "s", "lower", _self(f"{CC}.__init__")),
    ("homology.chain_complex.cells", "count", "lower", _counter(f"{CC}.cells")),
    ("homology.kernel_basis.calls", "count", "lower", _calls(f"{CC}.kernel_basis")),
    ("homology.kernel_basis.self_s", "s", "lower", _self(f"{CC}.kernel_basis")),
    ("homology.solve_boundary.calls", "count", "lower", _calls(f"{CC}.solve_boundary")),
    ("homology.solve_boundary.self_s", "s", "lower", _self(f"{CC}.solve_boundary")),
    ("homology.induced_map_trivial.calls", "count", "lower", _calls("homology.induced_map_trivial")),
    ("homology.induced_map_trivial.self_s", "s", "lower", _self("homology.induced_map_trivial")),
    ("homology.betti.calls", "count", "lower", _calls(f"{CC}.betti")),
    # sigma -> op_tail_ms, wall_s @ verdict
    ("sigma.self_s", "s", "lower", SELF["sigma.self_s"]),
    ("sigma.finiteness_type.calls", "count", "lower", _calls("sigma.finiteness_type")),
    ("sigma.sigma_verdict.calls", "count", "lower", _calls("sigma.sigma_verdict")),
    (
        "sigma.fp_per_verdict",
        "calls/verdict",
        "lower",
        _ratio(_counter("sigma.finiteness_type.feasible_point"), _calls("sigma.finiteness_type")),
    ),
    # chevalley -> wall_s @ certify
    ("chevalley.self_s", "s", "lower", SELF["chevalley.self_s"]),
    ("chevalley.mul.calls", "count", "lower", _calls(f"{GE}.__mul__")),
    ("chevalley.inv.calls", "count", "lower", _calls(f"{GE}.inv")),
    ("chevalley.character_eval.calls", "count", "lower", _calls("chevalley.character_eval")),
    # spherical -> wall_s @ certify
    ("spherical.self_s", "s", "lower", SELF["spherical.self_s"]),
    ("spherical.build_flag_building.s", "s", "lower", _incl("spherical.build_flag_building")),
    ("spherical.find_opposite_apartment.s", "s", "lower", _incl("spherical.find_opposite_apartment")),
    # root_system -> setup_s
    ("root_system.self_s", "s", "lower", SELF["root_system.self_s"]),
    ("root_system.build_root_system.calls", "count", "lower", _calls("root_system.build_root_system")),
    # acceptance -> wall_s @ certify
    ("acceptance.self_s", "s", "lower", SELF["acceptance.self_s"]),
    *[
        (f"acceptance.{key}.s", "s", "lower", _incl(f"acceptance.{fn}"))
        for key, fn in CRITERIA.items()
    ],
]

# Filled in by the benchmark from its untraced and traced passes.
TRACE_METRICS = [
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def compute(summary, counters):
    """Every per-layer metric of one traced pass, as {name: value}."""
    return {name: fn(summary, counters) for name, _, _, fn in METRICS}


def units():
    return {name: unit for name, unit, _, _ in METRICS} | {n: u for n, u, _ in TRACE_METRICS}
