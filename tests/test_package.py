import ast
from pathlib import Path

import recdiv
from recdiv import bfile, identities, oracles, sequences, series

# The top-level names before the package re-exported each module's __all__;
# the only addition since is oracles.clear_caches.
EARLIER_NAMES = {
    "__version__",
    "ArithSeq", "RatSeq", "DivisorTable", "NotAUnitError", "BUILTIN_NAMES",
    "PARAMETRIC_NAMES", "make_divisor_table", "gen_builtin", "dirichlet_convolve",
    "dirichlet_inverse", "series_partial",
    "IdentityCheck", "IdentityReport", "SequencePool", "REGISTRY", "registered_codes",
    "check_identity", "check_all", "compare_sequences",
    "ordered_factorizations", "count_ordered_factorizations", "naive_kappa",
    "naive_kappa_range",
    "ZetaValue", "SeriesPoint", "ClosedFormReport", "DivergenceError",
    "SingularityDomainError", "zeta", "dirichlet_partial_sum", "verify_closed_form",
    "find_singularity",
    "BFile", "BFileParseError", "parse_bfile", "parse_bfile_text", "format_bfile",
}


def test_all_has_no_duplicates():
    assert len(recdiv.__all__) == len(set(recdiv.__all__))


def test_all_is_the_earlier_set_plus_clear_caches():
    assert set(recdiv.__all__) == EARLIER_NAMES | {"clear_caches"}


def test_every_name_is_its_modules_object():
    for module in (sequences, identities, oracles, series, bfile):
        for name in module.__all__:
            assert getattr(recdiv, name) is getattr(module, name), name
    assert isinstance(recdiv.__version__, str)


def test_every_top_level_import_is_used():
    # __init__ imports only to re-export; every other module names what it imports.
    unused = []
    for path in sorted(Path(recdiv.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in named:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_only_sequences_reads_the_padded_table():
    # ArithSeq._vals is private to sequences.py: other modules use its methods,
    # so the table's type can change in one module.
    readers = []
    for path in sorted(Path(recdiv.__file__).parent.glob("*.py")):
        if path.name == "sequences.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_vals":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
