"""CLI surface: output formats, exit codes, schema shape."""

import dataclasses
import json
import time

import jsonschema
import pytest
import sympy
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from demjanenko import arith, search, singular
from demjanenko.cli import main
from demjanenko.errors import BoundViolation

runner = CliRunner()


KSET_SCHEMA = {
    "type": "object",
    "required": [
        "ell", "alpha", "beta", "m", "count", "members",
        "main_term", "error_bound", "within_bound",
    ],
    "properties": {
        "ell": {"type": "integer"},
        "alpha": {"type": "integer"},
        "beta": {"type": "integer"},
        "m": {"type": "integer"},
        "count": {"type": "integer"},
        "members": {"type": "array", "items": {"type": "integer"}},
        "main_term": {"type": "string", "pattern": r"^-?\d+/\d+$"},
        "error_bound": {"type": "string", "pattern": r"^-?\d+/\d+$"},
        "within_bound": {"type": "boolean"},
    },
    "additionalProperties": False,
}


def test_kset_json_schema():
    res = runner.invoke(main, ["kset", "--ell", "67", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    jsonschema.validate(data, KSET_SCHEMA)
    assert data["count"] == 6
    assert data["members"] == [6, 10, 19, 47, 56, 60]


def test_kset_plain():
    res = runner.invoke(main, ["kset", "--ell", "31"])
    assert res.exit_code == 0
    assert "count=0" in res.output
    assert "main_term=31/18" in res.output
    res = runner.invoke(main, ["kset", "--ell", "67"])
    assert res.exit_code == 0
    assert res.output.endswith("\nmembers: 6 10 19 47 56 60\n")


def test_kset_csv():
    res = runner.invoke(main, ["kset", "--ell", "67", "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == (
        "ell,alpha,beta,m,count,main_term,bound,within\n"
        "67,1,1,11,6,67/18,4350489/125000,true\n"
    )


def test_kset_rationals_never_floats():
    res = runner.invoke(main, ["kset", "--ell", "163", "--format", "json"])
    data = json.loads(res.output)
    assert "/" in data["main_term"] and "." not in data["main_term"]
    assert "/" in data["error_bound"] and "." not in data["error_bound"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["kset", "--ell", "32"], id="kset-composite"),
        # a 0.7 GB scan, past the 512 MiB machine below
        pytest.param(["kset", "--ell", "134217757"], id="kset-over-scan-cap"),
        # sieves of about 1.4 TB
        pytest.param(["census", "--max-ell", "1000000000000"], id="census-huge-max-ell"),
        # density sieves to sqrt(x): a 1.5 GB sieve
        pytest.param(["density", "--x", str(10**18)], id="density-huge-x"),
        pytest.param(
            ["verify", "--mode", "oracle", "--max-ell", "1000000000000"],
            id="verify-oracle-huge-max-ell",
        ),
        pytest.param(["census", "--max-ell", "50", "--workers", "0"], id="census-workers-0"),
        pytest.param(
            ["verify", "--mode", "theorem1", "--max-ell", "50", "--workers", "0"],
            id="verify-workers-0",
        ),
        *(
            pytest.param(
                ["verify", "--mode", mode, "--max-ell", "30", "--workers", "0"],
                id=f"verify-{mode}-workers-0",
            )
            for mode in ("oracle", "identities", "rankformula")
        ),
        *(
            pytest.param(
                ["verify", "--mode", mode, "--max-ell", "2"], id=f"verify-{mode}-max-ell-2"
            )
            for mode in ("oracle", "theorem1", "identities", "rankformula")
        ),
        # rejected before s = 3..5 run, so no row precedes the error
        pytest.param(["table1", "--limit-s6", "2"], id="table1-limit-s6-2"),
        # d < 1, although gcd(-5, 6) == 1
        pytest.param(["lset", "--a", "2", "--b", "1", "--d", "-5"], id="lset-d-negative"),
        # rho passes its work cap on a 202-digit cofactor p-1 leaves it
        pytest.param(
            ["lset", "--a", "3", "--b", "2", "--d", "7", "--e", "7"], id="lset-rho-cap"
        ),
        # a sign matrix past the 512 MiB machine below; ell >= 2^31,
        # past int64 products
        *(
            pytest.param(["matrix", "--ell", ell, "--k", "2"], id=f"matrix-ell-{ell}")
            for ell in ("1000003", "2147483647", "2147483659")
        ),
    ],
)
def test_usage_error_exits_2(args, monkeypatch):
    # refusals on memory must not depend on the machine the tests run on
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 1 << 29)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # caught, not escaped
    assert res.output.startswith("error: ")
    assert "Traceback" not in res.output


def test_kset_missing_arg_is_usage_error():
    res = runner.invoke(main, ["kset"])
    assert res.exit_code == 2


def test_census_csv():
    res = runner.invoke(main, ["census", "--max-ell", "100", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "ell,alpha,beta,m,count,main_term,bound,within"
    row7 = next(l for l in lines if l.startswith("7,"))
    assert row7.split(",")[4] == "0"
    # byte-stable across runs
    res2 = runner.invoke(main, ["census", "--max-ell", "100", "--format", "csv"])
    assert res.output == res2.output


def test_census_json():
    res = runner.invoke(main, ["census", "--max-ell", "50", "--format", "json"])
    data = json.loads(res.output)
    assert [d["ell"] for d in data] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    reports = search.census(search.SearchConfig(max_ell=50))
    assert res.output == json.dumps([rep.to_json() for rep in reports]) + "\n"
    for d in data:
        jsonschema.validate(d, KSET_SCHEMA)


def test_census_json_streams_rows_before_a_bound_violation(monkeypatch):
    first = singular.k_set(arith.make_context(3))

    def violating(cfg):
        yield first
        raise BoundViolation("count 9 escapes the bound at ell=5")

    monkeypatch.setattr(search, "census", violating)
    res = runner.invoke(main, ["census", "--max-ell", "50", "--format", "json"])
    assert res.exit_code == 1
    assert res.stdout == "[" + json.dumps(first.to_json())
    assert res.stderr.startswith("error: count 9 escapes")


def test_matrix_dump():
    res = runner.invoke(main, ["matrix", "--ell", "13", "--k", "3"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "ell=13 k=3 dim=2 |W|=3"
    assert lines[1:] == ["++", "-+"]


def test_matrix_bad_k():
    res = runner.invoke(main, ["matrix", "--ell", "13", "--k", "12"])
    assert res.exit_code == 2


def test_rank_json():
    res = runner.invoke(main, ["rank", "--ell", "67", "--k", "6", "--format", "json"])
    data = json.loads(res.output)
    assert data == {"ell": 67, "k": 6, "dim": 33, "rank": 31, "singular": True}


def test_rank_nonsingular():
    res = runner.invoke(main, ["rank", "--ell", "31", "--k", "5"])
    assert res.exit_code == 0
    assert "singular=False" in res.output


def test_verify_oracle_passes():
    res = runner.invoke(main, ["verify", "--mode", "oracle", "--max-ell", "60"])
    assert res.exit_code == 0
    assert "all checks passed" in res.output


def test_verify_identities_fails_honestly():
    # the k = -1 closed form does not hold for alpha >= 2 primes in range
    res = runner.invoke(main, ["verify", "--mode", "identities", "--max-ell", "60"])
    assert res.exit_code == 1
    assert "b_minus_one_closed_form" in res.output


def test_verify_theorem1():
    res = runner.invoke(main, ["verify", "--mode", "theorem1", "--max-ell", "500"])
    assert res.exit_code == 0


def test_verify_theorem1_resumed_run_passes(tmp_path):
    args = ["verify", "--mode", "theorem1", "--max-ell", "2000",
            "--checkpoint", str(tmp_path / "t1.ckpt")]
    for _ in range(2):  # the second run finds every shard done
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.output == "theorem1: all checks passed up to 2000\n"


def test_verify_theorem1_exits_1_on_a_count_past_the_bound(monkeypatch):
    def inflated(ctx):
        rep = singular.k_set(ctx)
        if ctx.ell == 4999:
            rep = dataclasses.replace(rep, members=tuple(range(1, ctx.ell - 1)))
        return rep

    monkeypatch.setattr(search, "k_set", inflated)
    res = runner.invoke(main, ["verify", "--mode", "theorem1", "--max-ell", "5000"])
    assert res.exit_code == 1
    assert "escapes the bound at ell=4999" in res.output


def test_verify_rankformula():
    res = runner.invoke(main, ["verify", "--mode", "rankformula", "--max-ell", "70"])
    assert res.exit_code == 0


def test_search_712():
    res = runner.invoke(main, ["search-712"])
    assert res.exit_code == 0
    assert res.output.split() == [
        "7", "19", "163", "487", "1459", "39367", "86093443", "258280327",
    ]


def test_table1_skip_s6():
    res = runner.invoke(main, ["table1", "--skip-s6"])
    assert res.exit_code == 0
    assert "s=3  31, 2·3·5" in res.output
    assert "s=4  3121, 2^4·3·5·13" in res.output
    assert "s=5  127681, 2^6·3·5·7·19" in res.output


@pytest.mark.parametrize(
    "ell, message",
    [(None, "s=3: NOT-FOUND below 10000"), (37, "s=3: got 37, expected 31")],
    ids=["not-found", "wrong-prime"],
)
def test_table1_exits_1_on_a_mismatch(monkeypatch, ell, message):
    def find_ls(s, limit):
        return search.LsRecord(s=s, ell=ell, limit=limit, factorization=((2, 2), (3, 2)))

    monkeypatch.setattr(search, "find_ls", find_ls)
    res = runner.invoke(main, ["table1", "--skip-s6"])
    assert res.exit_code == 1
    assert message in res.stderr


def test_lset_json():
    res = runner.invoke(
        main, ["lset", "--a", "3", "--b", "2", "--format", "json"]
    )
    data = json.loads(res.output)
    assert data["primes"] == [3, 271]
    assert isinstance(data["resultant"], str)


@pytest.mark.slow
@pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 7) for b in range(a)])
def test_lset_ends_for_every_a_up_to_6(a, b):
    # each run is factored, ends in the work cap, or is refused before
    # the PRS by the resultant's digit bound
    start = time.perf_counter()
    res = runner.invoke(main, ["lset", "--a", str(a), "--b", str(b)])
    assert time.perf_counter() - start < 30
    assert res.exit_code in (0, 2)
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_lset_degenerate_is_usage_error():
    res = runner.invoke(main, ["lset", "--a", "1", "--b", "0"])
    assert res.exit_code == 2


def test_lbm():
    res = runner.invoke(main, ["lbm", "--beta", "1", "--m", "1", "--alpha-max", "8"])
    assert res.exit_code == 0
    assert "ell=7 in_L=false" in res.output
    res = runner.invoke(
        main, ["lbm", "--beta", "1", "--m", "1", "--alpha-max", "20", "--budget", "100"]
    )
    assert "SKIPPED" in res.output


def test_mstats():
    res = runner.invoke(main, ["mstats", "--ell", "67", "--format", "json"])
    data = json.loads(res.output)
    assert data["min_m"] == 33 and data["count"] == 6
    res = runner.invoke(main, ["mstats", "--ell", "67"])
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        f"k={k} M=33" for k in (6, 10, 19, 47, 56, 60)
    ] + ["count=6 min_M=33"]


def test_density():
    res = runner.invoke(main, ["density", "--x", "100", "--format", "json"])
    data = json.loads(res.output)
    assert 7 in data["primes"] and 31 in data["primes"]
    res = runner.invoke(main, ["density", "--x", "1"])
    assert res.exit_code == 2


def test_rank_past_the_old_cap():
    res = runner.invoke(main, ["rank", "--ell", "1000003", "--k", "2"])
    assert res.exit_code == 0
    assert "dim=500001 rank=500001 singular=False" in res.output


@pytest.mark.parametrize(
    "ell, k, dim, rank",
    [
        pytest.param(*case, id=f"ell-{case[0]}")
        for case in (
            (3, 1, 1, 1),  # k^2+k+1 = 0 mod 3, but W = {1}
            # refused before the rank came from two orders: past the 512 MiB
            # machine below, and ell >= 2^31, past int64 products
            (16777259, 2, 8388629, 8388629),
            (2147483647, 2, 1073741823, 1073741823),
            (2147483659, 2, 1073741829, 1073741829),
            (1099511627791, 2, 549755813895, 549755813893),
        )
    ],
)
def test_rank_answers_without_building_the_matrix(ell, k, dim, rank, monkeypatch):
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 1 << 29)
    res = runner.invoke(main, ["rank", "--ell", str(ell), "--k", str(k)])
    assert res.exit_code == 0
    assert res.output == f"ell={ell} k={k} dim={dim} rank={rank} singular={rank < dim}\n"


def test_matrix_refuses_past_physical_memory(monkeypatch):
    # the build of ell = 67 needs 32 * 67 bytes
    monkeypatch.setattr(arith, "PHYSICAL_MEMORY", 32 * 67 - 1)
    res = runner.invoke(main, ["matrix", "--ell", "67", "--k", "6"])
    assert res.exit_code == 2
    assert res.output.startswith("error: ") and "physical memory" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "--ell", "67", "--k", "6"],
        ["lset", "--a", "3", "--b", "2"],
        ["mstats", "--ell", "67"],
        ["density", "--x", "100"],
    ],
    ids=lambda a: a[0],
)
def test_csv_is_refused_where_not_implemented(args):
    res = runner.invoke(main, [*args, "--format", "csv"])
    assert res.exit_code == 2
    assert "'csv' is not one of 'plain', 'json'" in res.output


@pytest.mark.parametrize("mode", ["oracle", "identities", "rankformula"])
def test_verify_checkpoint_outside_theorem1_is_usage_error(mode, tmp_path):
    path = tmp_path / "ckpt"
    res = runner.invoke(
        main, ["verify", "--mode", mode, "--max-ell", "30", "--checkpoint", str(path)]
    )
    assert res.exit_code == 2
    assert "--checkpoint applies only to --mode theorem1" in res.output
    assert not path.exists()


@pytest.mark.parametrize(
    "command", [["census"], ["verify", "--mode", "theorem1"]], ids=lambda c: c[-1]
)
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_checkpoint_that_cannot_be_opened_is_usage_error(command, where, tmp_path):
    path = tmp_path if where == "a directory" else tmp_path / "missing" / "ck.txt"
    res = runner.invoke(main, [*command, "--max-ell", "100", "--checkpoint", str(path)])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    # rows of the first shard may stream before the checkpoint is written
    assert res.output.splitlines()[-1].startswith("error: ")


_FUZZ_COMMANDS = st.one_of(
    st.integers(-10, 5000).map(lambda ell: ["kset", "--ell", str(ell)]),
    st.tuples(st.integers(-5, 2000), st.sampled_from([-1, 0, 1])).map(
        lambda a: ["census", "--max-ell", str(a[0]), "--workers", str(a[1])]
    ),
    st.tuples(
        st.sampled_from(["rank", "matrix"]), st.integers(-10, 5000), st.integers(-3, 5000)
    ).map(lambda a: [a[0], "--ell", str(a[1]), "--k", str(a[2])]),
    # rank builds no matrix, so it answers at any prime: draw primes and
    # composites up to 2^40
    st.tuples(
        st.one_of(
            st.integers(3, 1 << 40).map(lambda n: int(sympy.nextprime(n))),
            st.integers(-10, 1 << 40),
        ),
        st.integers(-3, 1 << 40),
    ).map(lambda a: ["rank", "--ell", str(a[0]), "--k", str(a[1])]),
    st.integers(-10, 5000).map(lambda ell: ["mstats", "--ell", str(ell)]),
    st.integers(-10, 3000).map(lambda x: ["density", "--x", str(x)]),
    # a = 5 and 6 spend seconds before rho's cap (lset --a 5 --b 3 about
    # 1 s, --a 6 --b 3 about 3 s); test_lset_ends_for_every_a_up_to_6
    # covers them. 3^13 is past CYCLOTOMIC_CAP, so a >= 13 is refused at once
    st.tuples(
        st.one_of(st.integers(-2, 4), st.integers(13, 10**9)), st.integers(-2, 4)
    ).map(lambda a: ["lset", "--a", str(a[0]), "--b", str(a[1])]),
)

# every command draws a --format, implemented or not
_FUZZ_ARGS = st.tuples(
    _FUZZ_COMMANDS, st.sampled_from([[], *(["--format", f] for f in ("plain", "json", "csv"))])
).map(lambda a: a[0] + a[1])


@settings(max_examples=100, deadline=None)
@given(_FUZZ_ARGS)
def test_cli_fuzz_exit_codes(args):
    res = runner.invoke(main, args)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.output
    # an escaped exception would leave a non-SystemExit here
    assert res.exception is None or isinstance(res.exception, SystemExit)
