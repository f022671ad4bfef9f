"""The package's public names: each listed once, in the module that defines it."""

import vcsys

# Every public name of the package, in ``vcsys.__all__`` order.
PUBLIC_NAMES = [
    "Atomic",
    "BoundarySpec",
    "ComponentDecl",
    "ConservationEntry",
    "ConservationReport",
    "DEFAULT_MAX_DEPTH",
    "DepthExceeded",
    "Diagnostic",
    "Edge",
    "EdgeKnowledge",
    "EntityNode",
    "EnvNode",
    "FlatGraph",
    "FlatNode",
    "GovernanceScore",
    "HashMismatch",
    "HistoryLog",
    "HistoryPolicy",
    "InconsistentState",
    "InvalidSpec",
    "LinkageClass",
    "LogHeader",
    "NegativeStock",
    "NullHistory",
    "PathHitsAtomic",
    "PathNotFound",
    "Role",
    "Scope",
    "SdlDocument",
    "SimulationState",
    "SinkNode",
    "SourceNode",
    "SystemSpec",
    "TransitionRecord",
    "ValidationReport",
    "VcsysError",
    "Violation",
    "WeakLink",
    "WeakLinkageReport",
    "classify_linkages",
    "conservation_check",
    "depth",
    "end_market_reachability",
    "export_dot",
    "export_json",
    "flat_graph_json",
    "flatten",
    "governance_centrality",
    "init_state",
    "model_hash",
    "parse",
    "print_spec",
    "read_log",
    "replay",
    "run",
    "step",
    "subsystem_at",
    "validate",
    "value_added_profile",
    "weak_linkage_report",
    "write_log",
]


def test_all_lists_exactly_the_public_names():
    assert vcsys.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(vcsys, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from vcsys import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_flatten_is_the_function_not_the_module():
    from vcsys.flatten import flatten

    assert vcsys.flatten is flatten
    assert callable(vcsys.flatten)
