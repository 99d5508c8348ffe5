"""Command line interface for the rank-two geodesic-orbit toolkit.

Subcommands: build a compact algebra, inspect a catalogued space, decompose
its transverse part, check or certify the geodesic-orbit property for one
metric, and classify spaces over a candidate-metric lattice.

classify exits 0 when every computed verdict matches the paper's verdict,
which each space's catalogue row in `embed` records, 2 on a mismatch, and 1
when any space errored.  check-go exits 0 when sampling is consistent and 2
when refuted or filtered out.  certify exits 0 when a witness is found and
re-verifies, and 2 when the budget runs out without one.  check-go, certify
and classify exit 1 on bad input: an unknown space, a malformed metric or
scalar literal (a zero denominator included), or a negative --samples or
--budget; both counts must be >= 0.  classify also exits 1 when its --out
file cannot be written, as in a missing directory.  A subcommand's usage
error (a malformed option value such as --samples abc, an unknown option, a
missing argument) and an unknown subcommand exit 1 too.  Options given
before the subcommand are click's own: an unknown one, as in
`rank2go --bogus`, exits 2, and so does a bare `rank2go`, which prints the
help.  The sampling seed is set only by --seed, which defaults to 42.
"""

from __future__ import annotations

import json
import sys
from itertools import product

import click

from .chevalley import build_compact_form, summary_dict
from .embed import (
    ALL_METRICS_NORMAL,
    CATALOG_IDS,
    EXPECTED_VERDICTS,
    ISOTROPY_IRREDUCIBLE,
    LIE_GROUP_CASE,
    NONNORMAL_GO_FAMILY,
    catalog_space,
)
from .field import parse_scalar
from .gocheck import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    STATUS_GO_SAMPLED,
    GoVerdict,
    explicit_metric,
    fibration_metric,
    find_witness,
    go_sample_check,
    metric_from_blocks,
    standard_metric,
    two_block_family,
    verify_witness,
)
from .isotypic import (
    commutant_symmetric_basis,
    decomposition_summary,
    isotypic_decompose,
)
from .liealg import ideal_decomposition, identity_matrix, mat_combine, scalar_of
from .rootsys import FAMILIES

LATTICE = ("1/3", "1/2", "1", "2", "5")

COMMUTANT_PROBE_STEPS = ("1/2", "1/4", "1/8", "1/16")
COMMUTANT_PROBE_LIMIT = 4


def _nonnegative(option: str, value: int) -> None:
    if value < 0:
        raise click.ClickException(f"{option} must be >= 0, got {value}")


def _known_id(space_id: str) -> str:
    if space_id not in CATALOG_IDS:
        raise click.ClickException(
            f"unknown space {space_id!r}; known: {', '.join(CATALOG_IDS)}"
        )
    return space_id


def _space(space_id: str):
    return catalog_space(_known_id(space_id))


def metric_from_spec(space, text: str):
    """Parse a metric description.

    Grammar: "standard" for the identity operator; "fib:<name>:<scale>" for
    the fibration metric of a named intermediate subalgebra; or
    "blocks:<c1,c2,...>" with exact scalar literals such as 2, 1/3, r2.
    """
    text = text.strip()
    if text == "standard":
        return standard_metric(space)
    if text.startswith("fib:"):
        parts = text.split(":")
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise ValueError(
                f"fibration metric spec must be fib:<name>:<scale>, got {text!r}"
            )
        return fibration_metric(space, parts[1], parse_scalar(parts[2]))
    if text.startswith("blocks:"):
        body = text[len("blocks:"):]
        tokens = [tok.strip() for tok in body.split(",")]
        if not body or any(not tok for tok in tokens):
            raise ValueError(
                f"block metric spec must be blocks:<c1,c2,...>, got {text!r}"
            )
        return metric_from_blocks(space, [parse_scalar(tok) for tok in tokens])
    raise ValueError(
        f"unknown metric spec {text!r}; use standard, fib:<name>:<scale>, "
        "or blocks:<c1,c2,...>"
    )


def _metric(space, text: str):
    """metric_from_spec, with a malformed spec reported as bad input."""
    try:
        return metric_from_spec(space, text)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _echo_verdict(space_id: str, metric_text: str, verdict: GoVerdict) -> None:
    filters = " ".join(
        f"{name}={'yes' if ok else 'no'}" for name, ok in verdict.filters
    )
    click.echo(f"space {space_id}  metric {metric_text}  seed {verdict.seed}")
    click.echo(
        f"status {verdict.status}  samples_run {verdict.samples_run}  "
        f"filters [{filters}]"
    )
    if verdict.witness is not None:
        w = verdict.witness
        click.echo(
            f"witness: rank {w.rank_map} vs augmented {w.rank_augmented}; "
            f"coords ({', '.join(str(c) for c in w.coords)})"
        )
    click.echo(_dump(verdict.to_dict()))


class _Main(click.Group):
    """Reports a subcommand's usage error with exit 1, like other bad input,
    since exit 2 means a refutation, a missing witness or a mismatch."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Main)
def main() -> None:
    """Exact geodesic-orbit analysis for compact rank-two catalog spaces."""


@main.command()
@click.argument("family")
def build(family: str) -> None:
    """Build the compact form of a rank-two family: a2, a1a1, c2, or g2."""
    if family not in FAMILIES:
        raise click.ClickException(
            f"unknown family {family!r}; known: {', '.join(FAMILIES)}"
        )
    cf = build_compact_form(family)
    info = summary_dict(cf)
    click.echo(
        f"family {family}: dimension {info['dimension']}, "
        f"{len(info['positive_roots'])} positive roots "
        f"({', '.join(info['positive_roots'])})"
    )
    click.echo(f"basis: {', '.join(info['basis'])}")
    click.echo(_dump(info))


@main.command("space")
@click.argument("space_id")
def space_command(space_id: str) -> None:
    """Show one catalogued space: ambient algebra, subalgebra, transverse part."""
    sp = _space(space_id)
    info = {
        "space": sp.space_id,
        "description": sp.description,
        "family": sp.compact.family if sp.compact is not None else None,
        "dim_ambient": sp.algebra.dim,
        "dim_h": sp.dim_h,
        "dim_m": sp.dim_m,
    }
    click.echo(f"{sp.space_id}: {sp.description}")
    click.echo(
        f"ambient dimension {info['dim_ambient']}, "
        f"subalgebra dimension {info['dim_h']}, transverse dimension {info['dim_m']}"
    )
    click.echo(_dump(info))


@main.command()
@click.argument("space_id")
def decompose(space_id: str) -> None:
    """Print the isotypic decomposition of the transverse part."""
    sp = _space(space_id)
    info = decomposition_summary(sp)
    click.echo(
        f"{space_id}: profile ({', '.join(str(d) for d in info['profile'])}), "
        f"{info['invariant_metric_dim']} metric parameter(s)"
    )
    for index, comp in enumerate(info["components"]):
        trivial = "  [fixed]" if index == info["trivial_index"] else ""
        refinement = (
            f" refinement ({', '.join(comp['refinement'])})"
            if comp["refinement"]
            else ""
        )
        click.echo(
            f"  component {index}: dim {comp['dim']}, "
            f"casimir {comp['casimir_eigenvalue']}{refinement}, "
            f"{comp['multiplicity']} x {comp['irreducible_dim']}-dim over "
            f"{comp['division_type']}, commutant {comp['commutant_dim']}"
            f"/{comp['symmetric_commutant_dim']} symmetric{trivial}"
        )
    click.echo(_dump(info))


@main.command("check-go")
@click.argument("space_id")
@click.option(
    "--metric", "metric_text", default="standard", show_default=True,
    help="standard | fib:<name>:<scale> | blocks:<c1,c2,...>",
)
@click.option("--samples", default=DEFAULT_SAMPLES, show_default=True, type=int)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
def check_go(space_id: str, metric_text: str, samples: int, seed: int) -> None:
    """Sample the geodesic-orbit condition for one metric.

    Exits 0 when every sampled direction admits a compensator, 2 when the
    metric is refuted or filtered out, 1 on bad input.
    """
    _nonnegative("--samples", samples)
    sp = _space(space_id)
    metric = _metric(sp, metric_text)
    verdict = go_sample_check(sp, metric, samples=samples, seed=seed)
    _echo_verdict(space_id, metric_text, verdict)
    sys.exit(0 if verdict.status == STATUS_GO_SAMPLED else 2)


@main.command()
@click.argument("space_id")
@click.option(
    "--metric", "metric_text", required=True,
    help="standard | fib:<name>:<scale> | blocks:<c1,c2,...>",
)
@click.option("--budget", default=DEFAULT_BUDGET, show_default=True, type=int)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
def certify(space_id: str, metric_text: str, budget: int, seed: int) -> None:
    """Search for an exact refuting direction for one metric.

    Exits 0 when a witness is found and re-verifies, 2 when the budget is
    exhausted without one, 1 on bad input.
    """
    _nonnegative("--budget", budget)
    sp = _space(space_id)
    metric = _metric(sp, metric_text)
    verdict = find_witness(sp, metric, budget=budget, seed=seed)
    _echo_verdict(space_id, metric_text, verdict)
    if verdict.witness is None:
        click.echo(f"no witness within budget {budget}")
        sys.exit(2)
    if not verify_witness(sp, metric, verdict.witness):
        raise click.ClickException("witness failed re-verification")
    click.echo("witness re-verified exactly")
    sys.exit(0)


def _candidate_metrics(space, dec):
    """The classification candidates: the per-component coefficient lattice
    with first coefficient fixed to 1 (metrics matter up to homothety), plus
    perturbations of the identity along commutant directions when the
    commutant is larger than one scalar per component."""
    candidates = []
    k = len(dec.components)
    for tail in product(LATTICE, repeat=k - 1):
        texts = ("1",) + tail
        metric = metric_from_blocks(space, [parse_scalar(t) for t in texts])
        candidates.append(({"kind": "blocks", "coeffs": list(texts)}, metric))
    if dec.invariant_metric_dim > k:
        seen = [metric.matrix for _, metric in candidates]
        ident = identity_matrix(space.dim_m)
        extras = 0
        for index, B in enumerate(commutant_symmetric_basis(space)):
            if extras >= COMMUTANT_PROBE_LIMIT:
                break
            built = None
            for step in COMMUTANT_PROBE_STEPS:
                try:
                    built = (
                        step,
                        explicit_metric(
                            space,
                            mat_combine(
                                (1, parse_scalar(step)), (ident, B), space.dim_m
                            ),
                        ),
                    )
                    break
                except ValueError:
                    continue
            if built is None:
                continue
            step, metric = built
            if any(metric.matrix == m for m in seen):
                continue
            candidates.append(
                (
                    {"kind": "commutant_probe", "basis_index": index, "step": step},
                    metric,
                )
            )
            seen.append(metric.matrix)
            extras += 1
    return candidates


def _classify_space(space, dec, samples: int, seed: int) -> dict:
    """The report entry of one space.  The candidates of one two-block
    family (gocheck.two_block_family) share one search; every other
    candidate is its own family.  Each candidate keeps its own entry."""
    entry = {
        "space": space.space_id,
        "description": space.description,
        "dim_m": space.dim_m,
        "profile": list(dec.profile),
        "commutant_dim": sum(c.commutant_dim for c in dec.components),
        "invariant_metric_dim": dec.invariant_metric_dim,
    }
    L = space.algebra
    if dec.trivial_subspace == space.m:
        center, ideals = ideal_decomposition(L, space.m)
        entry["verdict"] = LIE_GROUP_CASE
        entry["evidence"] = {
            "reason": (
                "the isotropy action fixes all of m, so the space is a "
                "compact Lie group and its geodesic-orbit metrics are "
                "exactly the bi-invariant type: one scalar per simple "
                "ideal, arbitrary positive definite on the center"
            ),
            "center_dim": center.dim,
            "simple_ideal_dims": [ideal.dim for ideal in ideals],
            "sampled": False,
        }
        return entry
    if len(dec.components) == 1 and dec.invariant_metric_dim == 1:
        verdict = go_sample_check(
            space, standard_metric(space), samples=samples, seed=seed
        )
        if verdict.status != STATUS_GO_SAMPLED:
            raise ArithmeticError(
                "the standard metric failed sampling on an irreducible space"
            )
        entry["verdict"] = ISOTROPY_IRREDUCIBLE
        entry["evidence"] = {
            "reason": (
                "m is a single component with a one-dimensional symmetric "
                "commutant, so every invariant metric is a homothety of "
                "the standard one"
            ),
            "standard_check": verdict.to_dict(include_time=False),
        }
        return entry
    runs = []
    passing = []
    verdicts = {}
    for index, (label, metric) in enumerate(_candidate_metrics(space, dec)):
        family = None if two_block_family(space, metric) else index
        if family not in verdicts:
            verdicts[family] = go_sample_check(
                space, metric, samples=samples, seed=seed
            )
        verdict = verdicts[family]
        runs.append({"metric": label, **verdict.to_dict(include_time=False)})
        # "Non-scalar" equals "non-normal" only for simple G: on berger (G =
        # U(2)) blocks (1, 2) and (1, 5) are induced from bi-invariant metrics.
        # The label stays as it is, so that the report keeps its hash.
        if (
            verdict.status == STATUS_GO_SAMPLED
            and scalar_of(metric.matrix) is None
        ):
            passing.append(label)
    if passing:
        entry["verdict"] = NONNORMAL_GO_FAMILY
        entry["verdict_params"] = passing
    else:
        entry["verdict"] = ALL_METRICS_NORMAL
    entry["evidence"] = {"candidates": runs}
    return entry


@main.command()
@click.argument("space_ids", nargs=-1)
@click.option("--all", "run_all", is_flag=True, help="classify the whole catalog")
@click.option(
    "--out", "out_path", type=click.Path(dir_okay=False), default=None,
    help="write the JSON report to this file",
)
@click.option("--samples", default=DEFAULT_SAMPLES, show_default=True, type=int)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
def classify(
    space_ids: tuple[str, ...], run_all: bool, out_path: str | None,
    samples: int, seed: int,
) -> None:
    """Classify spaces by sampling a lattice of candidate metrics.

    Reports, per space, the verdict lie_group_case, isotropy_irreducible,
    all_metrics_normal, or nonnormal_go_family with the passing candidates.
    Exits 0 when all verdicts match the paper's, as the catalogue rows
    record them, 2 on any mismatch, 1 when a space errored; the report
    then names the space and the stage that failed (catalog, isotypic or
    search).  The report is byte-identical across runs with the same seed
    and configuration.  Each family of two-block candidates is searched
    once (gocheck.two_block_family); the report lists every candidate.
    """
    _nonnegative("--samples", samples)
    if run_all:
        if space_ids:
            raise click.ClickException("--all and explicit space ids are mutually exclusive")
        ids = list(CATALOG_IDS)
    else:
        if not space_ids:
            raise click.ClickException("give space ids or --all")
        ids = [_known_id(sid) for sid in space_ids]
    entries = []
    errors = 0
    for sid in ids:
        stage = "catalog"
        try:
            space = catalog_space(sid)
            stage = "isotypic"
            dec = isotypic_decompose(space)
            stage = "search"
            entries.append(_classify_space(space, dec, samples, seed))
        except Exception as exc:
            errors += 1
            entries.append(
                {
                    "space": sid,
                    "stage": stage,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    flagged = [
        e["space"] for e in entries if e.get("verdict") == NONNORMAL_GO_FAMILY
    ]
    mismatches = [
        e["space"]
        for e in entries
        if "error" not in e and e["verdict"] != EXPECTED_VERDICTS[e["space"]]
    ]
    report = {
        "config": {
            "seed": seed,
            "samples": samples,
            "lattice": list(LATTICE),
            "spaces": ids,
        },
        "results": entries,
        "flagged": flagged,
        "mismatches": mismatches,
    }
    header = f"{'space':8s} {'dim':>3s} {'profile':10s} {'params':>6s}  verdict"
    click.echo(header)
    for e in entries:
        if "error" in e:
            click.echo(f"{e['space']:8s} error in {e['stage']}: {e['error']}")
            continue
        profile = "(" + ",".join(str(d) for d in e["profile"]) + ")"
        mark = " *" if e["space"] in flagged else ""
        click.echo(
            f"{e['space']:8s} {e['dim_m']:3d} {profile:10s} "
            f"{e['invariant_metric_dim']:6d}  {e['verdict']}{mark}"
        )
    click.echo("* admits a nonnormal geodesic-orbit family")
    text = _dump(report)
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise click.ClickException(
                f"cannot write the report to {out_path}: {exc.strerror or exc}"
            ) from exc
        click.echo(f"report written to {out_path}")
    else:
        click.echo(text)
    if errors:
        sys.exit(1)
    sys.exit(0 if not mismatches else 2)


if __name__ == "__main__":
    main()
