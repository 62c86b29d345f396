"""Command-line front end. Every command is a thin wrapper over the
library; no arithmetic lives here."""

from __future__ import annotations

import json
import sys

import click

from . import arith, cyclotomic, matrix as matrix_mod, search, singular, verify
from .errors import BoundViolation, DemjanenkoError

TABLE1_EXPECTED = {3: 31, 4: 3121, 5: 127681, 6: 25858561}
_TABLE1_LIMITS = {3: 10_000, 4: 10_000, 5: 200_000, 6: 26_000_000}


def _format_option(*formats: str):
    """--format with plain and the formats the command implements."""
    return click.option(
        "--format", "fmt", type=click.Choice(["plain", *formats]), default="plain"
    )


def _census_csv_row(rep: singular.KSetReport) -> str:
    ctx = rep.ctx
    return (
        f"{ctx.ell},{ctx.alpha},{ctx.beta},{ctx.m},{rep.count},"
        f"{singular.frac_str(rep.main_term)},{singular.frac_str(rep.error_bound)},"
        f"{str(rep.within_bound).lower()}"
    )


_CENSUS_CSV_HEADER = "ell,alpha,beta,m,count,main_term,bound,within"


class _Main(click.Group):
    """The one error boundary of the CLI: a bound violation is a failed
    verification (exit 1); any other library error, bad value or file
    that cannot be opened is a usage error (exit 2). Neither prints a
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BoundViolation as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        except (DemjanenkoError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main():
    """Exact computations around the singularity of Demjanenko matrices."""


@main.command()
@click.option("--ell", type=int, required=True)
@_format_option("json", "csv")
def kset(ell, fmt):
    """Singular-set report for one prime."""
    ctx = arith.make_context(ell)
    rep = singular.k_set(ctx)
    if fmt == "json":
        click.echo(json.dumps(rep.to_json()))
    elif fmt == "csv":
        click.echo(_CENSUS_CSV_HEADER)
        click.echo(_census_csv_row(rep))
    else:
        j = rep.to_json()
        click.echo(
            f"ell={ell} alpha={j['alpha']} beta={j['beta']} m={j['m']} "
            f"count={j['count']} main_term={j['main_term']} "
            f"bound={j['error_bound']} within={j['within_bound']}"
        )
        if rep.members:
            click.echo("members: " + " ".join(map(str, rep.members)))


@main.command()
@click.option("--max-ell", type=int, required=True)
@click.option("--workers", type=int, default=1)
@click.option("--checkpoint", type=click.Path(), default=None)
@_format_option("json", "csv")
def census(max_ell, workers, checkpoint, fmt):
    """Reports for every odd prime up to the limit. A run resumed from
    --checkpoint prints only the shards not yet done."""
    if max_ell < 3:
        raise ValueError("--max-ell must be at least 3")
    cfg = search.SearchConfig(
        max_ell=max_ell, workers=workers, checkpoint_path=checkpoint
    )
    stream = search.census(cfg)
    if fmt == "json":
        # streamed row by row, byte-identical to json.dumps of the list
        click.echo("[", nl=False)
        for i, rep in enumerate(stream):
            click.echo((", " if i else "") + json.dumps(rep.to_json()), nl=False)
        click.echo("]")
    elif fmt == "csv":
        click.echo(_CENSUS_CSV_HEADER)
        for rep in stream:
            click.echo(_census_csv_row(rep))
    else:
        for rep in stream:
            click.echo(f"ell={rep.ctx.ell} count={rep.count} within={rep.within_bound}")


@main.command("matrix")
@click.option("--ell", type=int, required=True)
@click.option("--k", type=int, required=True)
def matrix_cmd(ell, k):
    """Dump the sign matrix as a +/- grid."""
    dm = matrix_mod.build_matrix(arith.make_context(ell), k)
    click.echo(matrix_mod.dump_matrix(dm))


@main.command()
@click.option("--ell", type=int, required=True)
@click.option("--k", type=int, required=True)
@_format_option("json")
def rank(ell, k, fmt):
    """Exact rational rank of one matrix."""
    dm = matrix_mod.build_matrix(arith.make_context(ell), k)
    r = matrix_mod.exact_rank(dm)
    singular_flag = r < dm.dimension
    if fmt == "json":
        click.echo(
            json.dumps(
                {"ell": ell, "k": k, "dim": dm.dimension, "rank": r,
                 "singular": singular_flag}
            )
        )
    else:
        click.echo(f"ell={ell} k={k} dim={dm.dimension} rank={r} singular={singular_flag}")


@main.command("verify")
@click.option(
    "--mode",
    type=click.Choice(["oracle", "theorem1", "identities", "rankformula"]),
    required=True,
)
@click.option("--max-ell", type=int, required=True)
@click.option("--workers", type=int, default=1)
@click.option("--checkpoint", type=click.Path(), default=None)
def verify_cmd(mode, max_ell, workers, checkpoint):
    """Run one cross-checking suite; exit 1 if any check fails. theorem1
    is the census, which stops at the first count outside the bound; a
    run resumed from --checkpoint checks only the shards not yet done."""
    if max_ell < 3:
        raise ValueError("--max-ell must be at least 3")
    if checkpoint is not None and mode != "theorem1":
        raise click.BadOptionUsage("checkpoint", "--checkpoint applies only to --mode theorem1")
    if mode == "oracle":
        failures = verify.oracle_suite(max_ell, workers=workers)
    elif mode == "theorem1":
        # a count outside the bound raises BoundViolation: exit 1
        for _ in search.census(search.SearchConfig(max_ell, workers, checkpoint)):
            pass
        failures = []
    elif mode == "identities":
        failures = verify.identities_suite(max_ell, workers=workers)
    else:
        failures = verify.rankformula_suite(max_ell, workers=workers)
    for msg in failures:
        click.echo(msg, err=True)
    if failures:
        click.echo(f"{mode}: {len(failures)} failure(s)", err=True)
        sys.exit(1)
    click.echo(f"{mode}: all checks passed up to {max_ell}")


def _fact_str(factors) -> str:
    return "·".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in factors)


@main.command()
@click.option("--skip-s6", is_flag=True, default=False)
@click.option("--limit-s6", type=int, default=_TABLE1_LIMITS[6])
def table1(skip_s6, limit_s6):
    """Smallest empty-set primes by number of factors of ell-1;
    exits 1 on mismatch with the embedded expected values."""
    if limit_s6 < 3:
        raise ValueError("--limit-s6 must be at least 3")
    mismatch = False
    top = 5 if skip_s6 else 6
    for s in range(3, top + 1):
        limit = limit_s6 if s == 6 else _TABLE1_LIMITS[s]
        rec = search.find_ls(s, limit)
        if not rec.found:
            click.echo(f"s={s}: NOT-FOUND below {limit}", err=True)
            mismatch = True
            continue
        click.echo(f"s={s}  {rec.ell}, {_fact_str(rec.factorization)}")
        if TABLE1_EXPECTED.get(s) != rec.ell:
            click.echo(
                f"s={s}: got {rec.ell}, expected {TABLE1_EXPECTED.get(s)}", err=True
            )
            mismatch = True
    if mismatch:
        sys.exit(1)


@main.command("search-712")
def search_712():
    """The finite list of candidate primes with 2 || ell-1 and 3 | ell-1."""
    for ell in search.corollary712_search():
        click.echo(str(ell))


@main.command()
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--d", type=int, default=1)
@click.option("--e", type=int, default=1)
@_format_option("json")
def lset(a, b, d, e, fmt):
    """Cyclotomic resultant record and its prime divisors."""
    rec = cyclotomic.l_set(a, b, d, e)
    if fmt == "json":
        click.echo(json.dumps(rec.to_json()))
    else:
        click.echo(
            f"(a,b,d,e)=({a},{b},{d},{e}) resultant={rec.resultant} "
            f"primes={{{', '.join(map(str, rec.prime_divisors))}}}"
        )


@main.command()
@click.option("--beta", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--alpha-max", type=int, default=40)
@click.option("--budget", type=int, default=search.DEFAULT_LBM_BUDGET)
def lbm(beta, m, alpha_max, budget):
    """Scan the family 2^alpha 3^beta m + 1 for non-empty singular sets."""
    for row in search.lbm_scan(beta, m, alpha_max, budget=budget):
        status = "SKIPPED" if row.skipped else ("in_L=true" if row.in_l else "in_L=false")
        click.echo(f"alpha={row.alpha} ell={row.ell} {status}")


@main.command()
@click.option("--ell", type=int, required=True)
@_format_option("json")
def mstats(ell, fmt):
    """lcm statistic M(k) over the singular set of one prime."""
    ctx = arith.make_context(ell)
    rep = singular.k_set(ctx)
    stats = [singular.m_value(ctx, k) for k in rep.members]
    mn = min((s.M for s in stats), default=None)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "ell": ell,
                    "count": len(stats),
                    "min_m": mn,
                    "values": [{"k": s.k, "M": s.M} for s in stats],
                }
            )
        )
    else:
        for s in stats:
            click.echo(f"k={s.k} M={s.M}")
        click.echo(f"count={len(stats)} min_M={mn}")


@main.command()
@click.option("--x", type=int, required=True)
@_format_option("json")
def density(x, fmt):
    """Empirical census of empty-set primes up to x."""
    if x < 2:
        raise ValueError("--x must be at least 2")
    rep = search.density_census(x)
    if fmt == "json":
        click.echo(json.dumps(rep.to_json()))
    else:
        click.echo(
            f"x={x} count={rep.count} reference=x^(3/4)(log x)^3={rep.reference:.1f}"
        )
        click.echo("primes: " + " ".join(map(str, rep.primes)))


if __name__ == "__main__":
    main()
