"""Tests for the command line interface."""

import hashlib
import json
from itertools import product

import pytest
from click.testing import CliRunner

from rank2go import cli, gocheck
from rank2go.cli import (
    EXPECTED_VERDICTS,
    _candidate_metrics,
    _classify_space,
    main,
    metric_from_spec,
)
from rank2go.embed import CATALOG_IDS, catalog_space
from rank2go.gocheck import (
    fibration_metric,
    go_sample_check,
    metric_from_blocks,
    standard_metric,
)
from rank2go.field import SQRT2, parse_scalar
from rank2go.isotypic import commutant_symmetric_basis, isotypic_decompose
from rank2go.liealg import eigenspace_in, scalar_of, subalgebra_closure


@pytest.fixture()
def runner():
    return CliRunner()


def tail_json(output: str) -> dict:
    start = output.index("{")
    return json.loads(output[start:])


def test_build_family(runner):
    result = runner.invoke(main, ["build", "g2"])
    assert result.exit_code == 0
    assert "dimension 14" in result.output
    data = tail_json(result.output)
    assert data["family"] == "g2"
    assert len(data["basis"]) == 14
    result = runner.invoke(main, ["build", "e8"])
    assert result.exit_code == 1
    assert "unknown family" in result.output


def test_space_command(runner):
    result = runner.invoke(main, ["space", "berger"])
    assert result.exit_code == 0
    data = tail_json(result.output)
    assert data["dim_h"] == 1 and data["dim_m"] == 3
    result = runner.invoke(main, ["space", "nope"])
    assert result.exit_code == 1
    assert "unknown space" in result.output


@pytest.mark.parametrize("literal", ["r7", "1/2*r7", "2-x"])
def test_bad_metric_term_is_quoted_as_written(runner, literal):
    result = runner.invoke(
        main, ["certify", "c2.2", "--metric", f"blocks:{literal},1"]
    )
    assert result.exit_code == 1
    term = result.output.split("bad term '", 1)[1].split("'", 1)[0]
    assert term and term in literal


def test_decompose_command(runner):
    result = runner.invoke(main, ["decompose", "c2.2"])
    assert result.exit_code == 0
    assert "profile (1, 6)" in result.output
    data = tail_json(result.output)
    assert data["profile"] == [1, 6]
    assert data["components"][1]["multiplicity"] == 2
    assert data["components"][1]["irreducible"] is False


def test_metric_spec_grammar():
    sp = catalog_space("a2.1")
    assert metric_from_spec(sp, "standard").matrix == standard_metric(sp).matrix
    assert (
        metric_from_spec(sp, "blocks:2,1").matrix
        == metric_from_blocks(sp, (2, 1)).matrix
    )
    assert (
        metric_from_spec(sp, "fib:hopf:r2").matrix
        == fibration_metric(sp, "hopf", SQRT2).matrix
    )
    assert (
        metric_from_spec(sp, "blocks:1/3,1").matrix
        == metric_from_blocks(sp, (parse_scalar("1/3"), 1)).matrix
    )
    for bad in ("", "fib:hopf", "blocks:", "blocks:2,,1", "diag:1,2", "fib::2"):
        with pytest.raises(ValueError):
            metric_from_spec(sp, bad)


def test_check_go_exit_codes(runner):
    result = runner.invoke(
        main, ["check-go", "a2.2", "--metric", "standard", "--samples", "10"]
    )
    assert result.exit_code == 0
    data = tail_json(result.output)
    assert data["status"] == "go_sampled"
    assert "elapsed_s" in data

    result = runner.invoke(
        main, ["check-go", "c2.2", "--metric", "blocks:2,1", "--samples", "10"]
    )
    assert result.exit_code == 2
    data = tail_json(result.output)
    assert data["status"] == "not_go_certified"
    assert data["witness"] is not None

    result = runner.invoke(
        main, ["check-go", "a2.1", "--metric", "diag:1,2", "--samples", "5"]
    )
    assert result.exit_code == 1
    assert "unknown metric spec" in result.output


def test_hopf_metric_resolves_on_every_two_block_space(runner):
    # The fiber is read off the decomposition, so the two-component spaces
    # c2.2 and g2.3 get a Hopf metric too, and it is refuted there.
    result = runner.invoke(main, ["check-go", "c2.2", "--metric", "fib:hopf:2"])
    assert result.exit_code == 2
    assert tail_json(result.output)["status"] == "not_go_certified"
    result = runner.invoke(main, ["certify", "g2.3", "--metric", "fib:hopf:2"])
    assert result.exit_code == 0
    assert "witness re-verified exactly" in result.output
    result = runner.invoke(main, ["check-go", "a2.2", "--metric", "fib:hopf:2"])
    assert result.exit_code == 1
    assert "a2.2 has no canonical fibration subalgebra" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["check-go", "certify"])
@pytest.mark.parametrize(
    "space_id, name",
    [("a2.1", "ngh"), ("c2.1", "ngh"), ("berger", "ngh"), ("cp3", "sp1sp1")],
)
def test_hopf_metric_prints_what_its_named_fibration_prints(
    runner, command, space_id, name
):
    # On the four flagged spaces these names fix the same fiber as the Hopf
    # fiber read off the decomposition ("ngh" its zero-Casimir component,
    # "sp1sp1" the components inside K), and print the same, elapsed time
    # aside.
    def printed(spec):
        result = runner.invoke(main, [command, space_id, "--metric", spec])
        lines = result.output.replace(spec, "<spec>").splitlines()
        return result.exit_code, [line for line in lines if "elapsed_s" not in line]

    assert printed("fib:hopf:1/2") == printed(f"fib:{name}:1/2")


# standard on every space, and every fib: spec that resolves.
NAMED_METRIC_CASES = (
    [(space_id, "standard") for space_id in CATALOG_IDS]
    + [
        (space_id, "fib:hopf:1/2")
        for space_id in (
            "a2.1", "c2.1", "c2.2", "g2.1", "g2.2", "g2.3", "berger", "cp3",
        )
    ]
    + [
        (space_id, f"fib:{name}:1/2")
        for space_id, name in (
            ("a2.1", "ngh"), ("c2.1", "ngh"), ("c2.1", "sp1sp1"), ("c2.2", "ngh"),
            ("g2.1", "ngh"), ("g2.2", "ngh"), ("berger", "ngh"), ("cp3", "sp1sp1"),
        )
    ]
)


def test_named_metric_outputs_match_the_golden_hash(runner):
    # check-go and certify at seed 7 for each case, elapsed time aside.
    digest = hashlib.sha256()
    for command in ("check-go", "certify"):
        for space_id, spec in NAMED_METRIC_CASES:
            result = runner.invoke(
                main, [command, space_id, "--metric", spec, "--seed", "7"]
            )
            assert result.exit_code in (0, 2), (command, space_id, spec)
            lines = [
                line for line in result.output.splitlines() if "elapsed_s" not in line
            ]
            digest.update(f"{command} {space_id} {spec} {result.exit_code}\n".encode())
            digest.update("\n".join(lines).encode() + b"\n")
    assert digest.hexdigest() == (
        "df1a5cbe06918c7e443ca633cf762339091e43880a8ccfc64a25e211f2a27785"
    )


# Every fib:<name>:2 of the four grammar names that does not resolve, with the
# one line check-go prints for it (exit code 1).  The pairs that resolve are
# the fib: cases of NAMED_METRIC_CASES.
UNRESOLVED_FIB_ERRORS = (
    ("a2.1", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("a2.1", "gauge", "unknown subalgebra name 'gauge'"),
    ("a2.2", "hopf", "space a2.2 has no canonical fibration subalgebra"),
    ("a2.2", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for a2.2"),
    ("a2.2", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("a2.2", "gauge", "unknown subalgebra name 'gauge'"),
    ("a1a1.1", "hopf", "space a1a1.1 has no canonical fibration subalgebra"),
    ("a1a1.1", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for a1a1.1"),
    ("a1a1.1", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("a1a1.1", "gauge", "unknown subalgebra name 'gauge'"),
    ("a1a1.2", "hopf", "space a1a1.2 has no canonical fibration subalgebra"),
    ("a1a1.2", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for a1a1.2"),
    ("a1a1.2", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("a1a1.2", "gauge", "unknown subalgebra name 'gauge'"),
    ("a1a1.3", "hopf", "space a1a1.3 has no canonical fibration subalgebra"),
    ("a1a1.3", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for a1a1.3"),
    ("a1a1.3", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("a1a1.3", "gauge", "unknown subalgebra name 'gauge'"),
    ("c2.1", "gauge", "unknown subalgebra name 'gauge'"),
    ("c2.2", "sp1sp1", "sp1sp1 does not contain h for space c2.2"),
    ("c2.2", "gauge", "unknown subalgebra name 'gauge'"),
    ("c2.3", "hopf", "space c2.3 has no canonical fibration subalgebra"),
    ("c2.3", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for c2.3"),
    ("c2.3", "sp1sp1", "sp1sp1 does not contain h for space c2.3"),
    ("c2.3", "gauge", "unknown subalgebra name 'gauge'"),
    ("g2.1", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("g2.1", "gauge", "unknown subalgebra name 'gauge'"),
    ("g2.2", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("g2.2", "gauge", "unknown subalgebra name 'gauge'"),
    ("g2.3", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for g2.3"),
    ("g2.3", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("g2.3", "gauge", "unknown subalgebra name 'gauge'"),
    ("g2.4", "hopf", "space g2.4 has no canonical fibration subalgebra"),
    ("g2.4", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for g2.4"),
    ("g2.4", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("g2.4", "gauge", "unknown subalgebra name 'gauge'"),
    ("berger", "sp1sp1", "sp1sp1 lives in the c2 family only"),
    ("berger", "gauge", "unknown subalgebra name 'gauge'"),
    ("cp3", "ngh",
     "normalizer of h is not a proper intermediate subalgebra for cp3"),
    ("cp3", "gauge", "unknown subalgebra name 'gauge'"),
)


def test_every_unresolved_fib_name_prints_its_pinned_error(runner):
    resolved = {
        (space_id, spec.split(":")[1])
        for space_id, spec in NAMED_METRIC_CASES
        if spec.startswith("fib:")
    }
    unresolved = {(space_id, name) for space_id, name, _ in UNRESOLVED_FIB_ERRORS}
    assert not resolved & unresolved
    assert resolved | unresolved == set(
        product(CATALOG_IDS, ("hopf", "ngh", "sp1sp1", "gauge"))
    )
    for space_id, name, message in UNRESOLVED_FIB_ERRORS:
        result = runner.invoke(main, ["check-go", space_id, "--metric", f"fib:{name}:2"])
        assert (result.exit_code, result.output) == (1, f"Error: {message}\n")


def test_a_fiber_that_splits_a_component_is_a_clean_error(runner, monkeypatch):
    # On c2.2, h + E is a subalgebra for E the +1 eigenspace of a symmetric
    # commutant direction: a 3-dim fiber inside the 6-dim component.  No
    # grammar name reaches it, so it is planted as the name "planted".
    sp = catalog_space("c2.2")
    E = eigenspace_in(sp.m, commutant_symmetric_basis(sp)[1], 1)
    V = isotypic_decompose(sp).components[1].subspace
    K = sp.h.add(E)
    assert (E.dim, V.dim) == (3, 6) and V.contains_subspace(E)
    assert subalgebra_closure(sp.algebra, K.rows) == K
    assert K.intersection(sp.m) == E
    named = gocheck.named_subalgebra
    monkeypatch.setattr(
        gocheck,
        "named_subalgebra",
        lambda space, name: K if name == "planted" else named(space, name),
    )
    with pytest.raises(ValueError, match="not a sum of isotypic components"):
        fibration_metric(sp, "planted", 2)
    result = runner.invoke(main, ["check-go", "c2.2", "--metric", "fib:planted:2"])
    assert result.exit_code == 1
    assert (
        "the fiber of planted is not a sum of isotypic components of c2.2"
        in result.output
    )
    assert "Traceback" not in result.output


def test_certify_exit_codes(runner):
    result = runner.invoke(
        main, ["certify", "g2.1", "--metric", "blocks:2,1", "--budget", "50"]
    )
    assert result.exit_code == 0
    assert "witness re-verified exactly" in result.output

    result = runner.invoke(
        main, ["certify", "a2.2", "--metric", "standard", "--budget", "5"]
    )
    assert result.exit_code == 2
    assert "no witness" in result.output


def test_classify_partial_and_verdicts(runner):
    result = runner.invoke(
        main, ["classify", "a2.1", "c2.2", "g2.4", "--samples", "30"]
    )
    assert result.exit_code == 0
    report = tail_json(result.output)
    verdicts = {e["space"]: e["verdict"] for e in report["results"]}
    assert verdicts == {
        "a2.1": "nonnormal_go_family",
        "c2.2": "all_metrics_normal",
        "g2.4": "isotropy_irreducible",
    }
    assert report["flagged"] == ["a2.1"]
    assert report["mismatches"] == []
    a21 = report["results"][0]
    assert a21["verdict_params"]
    assert "elapsed_s" not in result.output


def test_classify_lie_group_rows_skip_sampling(runner):
    result = runner.invoke(main, ["classify", "a1a1.1", "a1a1.2"])
    assert result.exit_code == 0
    report = tail_json(result.output)
    for entry in report["results"]:
        assert entry["verdict"] == "lie_group_case"
        assert entry["evidence"]["sampled"] is False
        assert entry["evidence"]["simple_ideal_dims"] == [3]
        assert entry["evidence"]["center_dim"] == 0


def test_classify_reports_are_byte_identical(runner, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["classify", "berger", "cp3", "--samples", "25"]
    res1 = runner.invoke(main, args + ["--out", str(out1)])
    res2 = runner.invoke(main, args + ["--out", str(out2)])
    assert res1.exit_code == 0 and res2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the table on stdout is deterministic as well, except for the file path
    assert res1.output.replace(str(out1), "") == res2.output.replace(
        str(out2), ""
    )


def test_classify_seed_sources(runner):
    direct = runner.invoke(
        main, ["classify", "berger", "--samples", "15", "--seed", "7"]
    )
    assert direct.exit_code == 0
    assert tail_json(direct.output)["config"]["seed"] == 7


@pytest.mark.parametrize("value", ["7", "many"])
def test_classify_ignores_the_environment_for_the_seed(runner, value):
    result = runner.invoke(
        main, ["classify", "berger", "--samples", "15"],
        env={"RANK2GO_SEED": value},
    )
    assert result.exit_code == 0, result.output
    assert tail_json(result.output)["config"]["seed"] == 42


def test_classify_usage_errors(runner):
    assert runner.invoke(main, ["classify"]).exit_code == 1
    assert (
        runner.invoke(main, ["classify", "--all", "a2.1"]).exit_code == 1
    )
    assert runner.invoke(main, ["classify", "so5.9"]).exit_code == 1


def test_classify_out_into_a_missing_directory_is_a_clean_error(runner, tmp_path):
    target = tmp_path / "missing" / "r.json"
    result = runner.invoke(
        main, ["classify", "berger", "--samples", "5", "--out", str(target)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"cannot write the report to {target}" in result.output
    assert "Traceback" not in result.output
    assert not target.parent.exists()


def test_expected_verdict_table_covers_catalog():
    assert set(EXPECTED_VERDICTS) == set(CATALOG_IDS)
    assert sorted(
        sid for sid, v in EXPECTED_VERDICTS.items() if v == "nonnormal_go_family"
    ) == ["a2.1", "berger", "c2.1", "cp3"]
    # The paper's table, written out here as an oracle for the catalogue rows.
    assert EXPECTED_VERDICTS == {
        "a2.1": "nonnormal_go_family",
        "a2.2": "isotropy_irreducible",
        "a1a1.1": "lie_group_case",
        "a1a1.2": "lie_group_case",
        "a1a1.3": "isotropy_irreducible",
        "c2.1": "nonnormal_go_family",
        "c2.2": "all_metrics_normal",
        "c2.3": "isotropy_irreducible",
        "g2.1": "all_metrics_normal",
        "g2.2": "all_metrics_normal",
        "g2.3": "all_metrics_normal",
        "g2.4": "isotropy_irreducible",
        "berger": "nonnormal_go_family",
        "cp3": "nonnormal_go_family",
    }


def test_classify_report_matches_the_golden_hash(runner, tmp_path):
    # The first case covers rational spaces only; c2.3 and g2.4 have
    # irrational structure constants, and the second covers them.
    cases = [
        (
            ["berger", "cp3", "c2.2", "g2.1", "--samples", "25"],
            "b0e399b27480d75ca6cbfaef73012964b58b6abd602319ebd6ef41a4b32cfb31",
        ),
        (
            ["c2.3", "g2.4", "--samples", "10"],
            "1b6c987ea7ba7e647f1821ded4d38e0c78ab534c95fabd8f3769aa5f4f9e26ae",
        ),
        # The whole catalogue at a second draw count.
        (
            ["--all", "--samples", "20"],
            "db68fde2f3a7604a970b6ca967248a5a9f7f084dacd0074020d246149bd584ba",
        ),
    ]
    for i, (args, expected) in enumerate(cases):
        out = tmp_path / f"golden{i}.json"
        result = runner.invoke(
            main, ["classify", *args, "--seed", "42", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_full_classify_report_matches_the_golden_hash(runner, tmp_path):
    # The whole catalog with the default 200 samples: every candidate of
    # every space, as the README's headline command runs it.
    out = tmp_path / "all.json"
    result = runner.invoke(
        main, ["classify", "--all", "--seed", "42", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6ac51427baf1607c676eeeb0bee6b8c220b87798893a5cdc6f03fb02145f003b"
    )


def test_zero_denominator_metric_is_a_clean_error(runner):
    result = runner.invoke(
        main, ["check-go", "a2.1", "--metric", "blocks:1/0,1", "--samples", "5"]
    )
    assert result.exit_code == 1
    assert "zero denominator" in result.output
    assert "Traceback" not in result.output
    assert not isinstance(result.exception, ZeroDivisionError)


@pytest.mark.parametrize(
    "args",
    [
        ["check-go", "a2.1", "--metric", "blocks:-1,1"],
        ["check-go", "a2.1", "--metric", "blocks:0,1"],
        ["check-go", "a2.1", "--metric", "blocks:1-r2,1"],
        ["certify", "g2.1", "--metric", "blocks:r3-2,1"],
    ],
)
def test_non_positive_block_is_a_clean_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Error: metric operator is not positive definite" in result.output
    assert "Traceback" not in result.output
    assert "status" not in result.output


def test_wrong_block_count_names_one_count_when_both_agree(runner):
    # a2.1 has two components and a two-dimensional commutant.
    result = runner.invoke(
        main,
        ["check-go", "a2.1", "--metric", "blocks:1,2,3,4,5,6,7,8,9"],
    )
    assert result.exit_code == 1
    assert "expected 2 coefficients, got 9" in result.output
    assert "per-component" not in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, option",
    [
        (["check-go", "a2.1", "--samples", "-5"], "--samples"),
        (["classify", "berger", "--samples", "-5"], "--samples"),
        (["certify", "g2.1", "--metric", "blocks:2,1", "--budget", "-3"], "--budget"),
    ],
)
def test_negative_counts_are_rejected(runner, args, option):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert f"{option} must be >= 0" in result.output
    assert "status" not in result.output
    assert "verdict" not in result.output


def test_zero_counts_are_accepted(runner):
    result = runner.invoke(
        main, ["check-go", "a2.2", "--metric", "standard", "--samples", "0"]
    )
    assert result.exit_code == 0
    assert tail_json(result.output)["status"] == "go_sampled"


@pytest.mark.parametrize(
    "args",
    [
        ["check-go", "a2.1", "--samples", "abc"],
        ["certify", "a2.1", "--metric", "standard", "--bogus"],
        ["classify", "--samples", "x", "a2.1"],
    ],
)
def test_usage_errors_exit_1(runner, args):
    # Exit 2 is kept for refutations (test_check_go_exit_codes,
    # test_certify_exit_codes) and mismatches (below).
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Usage:" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_check_go_has_no_unfiltered_option(runner):
    # The unfiltered search is certify; check-go always applies the filters.
    result = runner.invoke(
        main, ["check-go", "c2.2", "--metric", "blocks:2,1", "--no-filters"]
    )
    assert result.exit_code == 1
    assert "Usage:" in result.output
    assert "No such option" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, count",
    [
        ("check-go", "--samples INTEGER [default: 200]"),
        ("certify", "--budget INTEGER [default: 50]"),
        ("classify", "--samples INTEGER [default: 200]"),
    ],
)
def test_help_shows_the_defaults(runner, command, count):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    text = " ".join(result.output.split())
    assert count in text
    assert "--seed INTEGER [default: 42]" in text


def test_classify_mismatch_exits_2(runner, monkeypatch):
    monkeypatch.setitem(EXPECTED_VERDICTS, "berger", "all_metrics_normal")
    result = runner.invoke(main, ["classify", "berger", "--samples", "5"])
    assert result.exit_code == 2
    assert tail_json(result.output)["mismatches"] == ["berger"]


@pytest.mark.parametrize(
    "stage, target",
    [
        ("catalog", "catalog_space"),
        ("isotypic", "isotypic_decompose"),
        ("search", "go_sample_check"),
    ],
)
def test_classify_error_names_the_space_and_the_stage(
    runner, monkeypatch, stage, target
):
    import rank2go.cli as cli

    original = getattr(cli, target)

    def failing(space, *args, **kwargs):
        sid = space if isinstance(space, str) else space.space_id
        if sid == "cp3":
            raise ArithmeticError("planted failure")
        return original(space, *args, **kwargs)

    monkeypatch.setattr(cli, target, failing)
    result = runner.invoke(
        main, ["classify", "berger", "cp3", "a2.2", "--samples", "3"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"cp3      error in {stage}: ArithmeticError: planted failure" in (
        result.output
    )
    report = tail_json(result.output)
    by_space = {e["space"]: e for e in report["results"]}
    assert by_space["cp3"] == {
        "space": "cp3",
        "stage": stage,
        "error": "ArithmeticError: planted failure",
    }
    assert by_space["berger"]["verdict"] == "nonnormal_go_family"
    assert by_space["a2.2"]["verdict"] == "isotropy_irreducible"
    assert report["flagged"] == ["berger"]
    assert report["mismatches"] == []


# -- one search per two-block family ------------------------------------------

TWO_BLOCK_SPACES = (
    "a2.1", "c2.1", "c2.2", "g2.1", "g2.2", "g2.3", "berger", "cp3",
)


def reference_entry(sp, dec, samples, seed):
    """The classify entry of a space with two components, each candidate
    searched on its own."""
    runs, passing = [], []
    for label, metric in _candidate_metrics(sp, dec):
        verdict = go_sample_check(sp, metric, samples=samples, seed=seed)
        runs.append({"metric": label, **verdict.to_dict(include_time=False)})
        if verdict.status == "go_sampled" and scalar_of(metric.matrix) is None:
            passing.append(label)
    entry = {
        "space": sp.space_id,
        "description": sp.description,
        "dim_m": sp.dim_m,
        "profile": list(dec.profile),
        "commutant_dim": sum(c.commutant_dim for c in dec.components),
        "invariant_metric_dim": dec.invariant_metric_dim,
        "verdict": "nonnormal_go_family" if passing else "all_metrics_normal",
        "evidence": {"candidates": runs},
    }
    if passing:
        entry["verdict_params"] = passing
    return entry


@pytest.mark.parametrize("space_id", TWO_BLOCK_SPACES)
def test_classify_entries_match_one_search_per_candidate(space_id):
    sp = catalog_space(space_id)
    dec = isotypic_decompose(sp)
    for seed in (42, 7):
        for samples in (0, 5, 200):
            assert _classify_space(sp, dec, samples, seed) == reference_entry(
                sp, dec, samples, seed
            ), (seed, samples)


def counted_searches(monkeypatch):
    calls = []

    def counted(space, *args, _original=cli.go_sample_check, **kwargs):
        calls.append(space.space_id)
        return _original(space, *args, **kwargs)

    monkeypatch.setattr(cli, "go_sample_check", counted)
    return calls


def no_fiber(space):
    return None


def test_classify_without_the_premise_searches_every_candidate(
    runner, monkeypatch, tmp_path
):
    monkeypatch.setattr(gocheck, "_fiber_index", no_fiber)
    calls = counted_searches(monkeypatch)
    out = tmp_path / "all.json"
    result = runner.invoke(
        main, ["classify", "--all", "--seed", "42", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6ac51427baf1607c676eeeb0bee6b8c220b87798893a5cdc6f03fb02145f003b"
    )
    searched = []
    for entry in json.loads(out.read_text())["results"]:
        evidence = entry["evidence"]
        runs = len(evidence.get("candidates", [])) + ("standard_check" in evidence)
        searched += [entry["space"]] * runs
    assert calls == searched


@pytest.mark.parametrize("space_id, searches", [("c2.1", 6), ("cp3", 2)])
def test_classify_searches_each_two_block_family_once(
    runner, monkeypatch, space_id, searches
):
    # c2.1: the scalar, one search for its four two-block candidates, and
    # four commutant probes; cp3: the scalar and one family search.
    calls = counted_searches(monkeypatch)
    result = runner.invoke(main, ["classify", space_id])
    assert result.exit_code == 0
    assert len(calls) == searches
