"""The trajectory batch's layout is named by its contract tests only.

dynamics._Batch, the step-major arrays every trajectory check reads, is
private.  A test of a check's claim builds a TrajectoryRecord (with
run_trajectory, or an edit of one) and reads trajectory_checks or
default_suite.  Only the tests listed here may name the batch or call a
check on one, so a change of the layout edits this list's tests, and a new
contract test edits the list.
"""
import ast
from pathlib import Path

CONTRACT_TESTS = {
    "test_dynamics.py": {
        "test_batched_records_equal_one_row_records",
        "test_batch_rows_are_views_in_the_record_layout",
        "test_batch_arrays_equal_the_per_step_scatter_build",
        "test_batch_extremes_are_the_extremes_of_its_states",
        "test_step_shifted_batch_planes_are_contiguous",
    },
    "test_analysis.py": {
        "test_contraction_certificates_fail_an_unsorted_row_only",
        "test_each_row_of_a_batch_gets_the_verdict_of_its_own_batch",
        "test_a_row_whose_bad_entries_lie_past_its_length_passes",
        "test_batches_of_at_most_two_states_have_empty_pair_planes",
        "test_every_trajectory_check_gives_a_p_2_row_a_verdict",
        "test_default_suite_draws_every_seed_and_steps_only_for_trajectory_checks",
        "test_default_suite_draws_each_p_as_one_batch_of_per_seed_draws",
        "test_default_suite_checks_each_p_batch_once_with_a_fault",
        "test_the_check_registry_is_one_table_of_what_each_check_reads",
    },
}

# The names of the layout and of what builds or reads it, as identifiers,
# attributes, imported names or strings (monkeypatch.setattr takes one);
# a name starting with _traj_ is a check's function.
LAYOUT_NAMES = {"_Batch", "_run_batch", "_perturbed", "pair_noise", "_spread_allowance"}

# What may take the check registry _TRAJ_CHECKS whole, to read its names.
NAME_READERS = {"list", "set", "tuple", "sorted", "len"}


def _layout_uses(tree):
    # the layout names a tree holds, and "_TRAJ_CHECKS" for each use of the
    # registry that can reach a check: anything but reading its names
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None)
        if name in LAYOUT_NAMES or (name or "").startswith("_traj_"):
            yield name
        elif name == "_TRAJ_CHECKS" and not isinstance(node, ast.alias):
            up = parent[node]
            if not (isinstance(up, (ast.Starred, ast.comprehension, ast.For, ast.Compare))
                    or isinstance(up, ast.Call) and getattr(up.func, "id", None) in NAME_READERS):
                yield name


def test_only_the_contract_tests_name_the_batch_layout():
    # Only the top-level statements whose source holds one of the names are
    # walked, which keeps the guard to a few tens of milliseconds.
    marks = (*LAYOUT_NAMES, "_traj_", "_TRAJ_CHECKS")
    offences = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        contract = CONTRACT_TESTS.get(path.name, set())
        if path.name == Path(__file__).name:
            continue  # this file names them as the list it guards
        if not contract and not any(mark in text for mark in marks):
            continue
        tree, lines = ast.parse(text), text.splitlines()
        assert contract <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, path.name
        for node in tree.body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            source = "\n".join(lines[first - 1:node.end_lineno])
            owner = getattr(node, "name", "<module>")
            if owner not in contract and any(mark in source for mark in marks):
                offences += [(path.name, owner, name) for name in _layout_uses(node)]
    assert offences == []
