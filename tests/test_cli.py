import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from klsums import strata, sums
from klsums.cli import build_parser, run
from klsums.errors import MAX_BYTES

# minimal valid arguments per subcommand, so that an extra option is the only error
MINIMAL_ARGS = {
    "field-info": ["--q", "7"],
    "char-classify": ["--q", "7", "--chars", "0,0"],
    "kl-table": ["--q", "7", "--chars", "0,0"],
    "kl-verify": ["--q", "7", "--chars", "0,0"],
    "complete-sum": ["--q", "7", "--chars", "0,0", "--b", "1,2"],
    "strata-scan": ["--q", "7", "--k", "2", "--l", "1", "--samples", "3"],
    "box-count": ["--q", "7", "--l", "1", "--box", "2"],
    "bound-check": ["--primes", "13,17", "--samples", "1", "--subgeneric-samples", "1"],
    "bilinear-bench": ["--q", "7", "--chars", "0,0", "--M", "2", "--N", "2"],
    "moment-check": ["--q", "7"],
    "avg-compare": ["--q", "7", "--family", "power-sum", "--n", "1", "--m", "0"],
}
CSV_SUBCOMMANDS = {"kl-table", "strata-scan"}
SEEDED_SUBCOMMANDS = {"kl-verify", "strata-scan", "bound-check", "bilinear-bench", "avg-compare"}
# k is len(--chars) wherever --chars is read
CHARS_SUBCOMMANDS = {"char-classify", "kl-table", "kl-verify", "complete-sum", "bilinear-bench",
                     "avg-compare", "bound-check"}


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


def test_char_classify_salie():
    code, env = run_json(["char-classify", "--q", "5", "--chars", "0,2"])
    assert code == 0
    assert env["status"] == "ok"
    assert env["payload"]["kummer_induced"] is True
    assert env["config"]["subcommand"] == "char-classify"
    assert env["version"]


def test_kl_verify_ok():
    code, env = run_json(["kl-verify", "--q", "101", "--chars", "0,0"])
    assert code == 0 and env["status"] == "ok"
    assert env["payload"]["max_rel_diff"] <= 1e-9
    assert env["payload"]["fourier_checks"] == 20
    assert env["payload"]["fourier_max_diff"] <= 1e-9
    assert env["payload"]["deligne_max"] <= 2 + 1e-9
    assert "scale" not in env["config"] and "scale" not in env["payload"]


def test_nonprime_exit_code():
    code, env = run_json(["field-info", "--q", "4"])
    assert code == 2
    assert env["status"] == "precondition-failed"
    assert "not prime" in env["payload"]["error"]


def test_resource_exit_code():
    code, env = run_json(["strata-scan", "--q", "101", "--k", "2", "--l", "2", "--exhaustive"])
    assert code == 3
    assert env["status"] == "resource-limit"


def test_unknown_subcommand_usage():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_kl_table_csv_schema():
    code, text = run_cli(["kl-table", "--q", "7", "--chars", "0,0"])
    assert code == 0
    lines = text.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("q=7" in c for c in comments)
    assert any("scale=1" in c for c in comments)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x,re,im"
    assert len(body) == 1 + 6  # header + q-1 rows
    x, re_, im_ = body[1].split(",")
    assert x == "1"
    float(re_), float(im_)  # plain parseable numbers, no numpy reprs


def test_kl_table_json_roundtrip():
    code, env = run_json(["kl-table", "--q", "7", "--chars", "0,0", "--format", "json"])
    assert code == 0
    assert len(env["payload"]["rows"]) == 6
    # structural roundtrip
    again = json.loads(json.dumps(env))
    assert again == env


def test_complex_serialization():
    code, env = run_json(["complete-sum", "--q", "13", "--chars", "0,0", "--b", "1,2,3,4"])
    assert code == 0
    si = env["payload"]["sigma_I"]
    assert set(si) == {"re", "im"}
    assert "scale" not in env["config"] and "scale" not in env["payload"]


def test_strata_scan_csv_deterministic():
    args = ["strata-scan", "--q", "97", "--k", "2", "--l", "2", "--samples", "30", "--seed", "7"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    header = [ln for ln in out1.splitlines() if not ln.startswith("#")][0]
    assert header == "b_1,b_2,b_3,b_4,deg_P,z_count,generic"
    _, out3 = run_cli(args[:-1] + ["8"])
    assert out3 != out1


def test_strata_scan_json_payload():
    code, env = run_json(
        ["strata-scan", "--q", "97", "--k", "2", "--l", "2", "--samples", "25", "--format", "json"]
    )
    assert code == 0
    assert env["payload"]["generic"] == 5
    assert sum(env["payload"]["histogram"].values()) == 25


@pytest.mark.parametrize("name,lines", [
    ("kl-table", ["chars=0,0", "method=fast", "q=7", "scale=1", "subcommand=kl-table"]),
    ("strata-scan", ["exhaustive=False", "k=2", "l=1", "q=7", "samples=3", "seed=0",
                     "subcommand=strata-scan"]),
])
def test_csv_config_lines_pinned(name, lines):
    """The # lines echo every option, defaults included: adding, dropping or
    renaming an option of a CSV subcommand changes its CSV bytes."""
    code, text = run_cli([name] + MINIMAL_ARGS[name])
    assert code == 0
    assert [ln for ln in text.splitlines() if ln.startswith("#")] == [f"# {ln}" for ln in lines]


@pytest.mark.parametrize("argv,named", [
    (["strata-scan", "--q", "13", "--k", "2", "--l", "1", "--samples", "0"], "samples=0"),
    (["strata-scan", "--q", "13", "--k", "2", "--l", "1", "--exhaustive", "--samples", "5"],
     "samples=5"),
    (["strata-scan", "--q", "13", "--k", "1", "--l", "1", "--samples", "3"], "k=1"),
    (["avg-compare", "--q", "13", "--family", "full-sample", "--count", "-2"], "count=-2"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--n", "0", "--m", "0"], "n=0"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--n", "2", "--m", "-1"], "m=-1"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--m", "2"], "m=2"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--n", "183", "--m", "0"], "n=183"),
    (["kl-table", "--q", "13", "--chars", "0,0", "--scale", "26"], "a=26"),
    (["kl-table", "--q", "13", "--chars", "0,0", "--scale", "0", "--method", "naive"], "a=0"),
    (["box-count", "--q", "13", "--l", "1", "--box", "7"], "B=7"),
    (["bilinear-bench", "--q", "101", "--chars", "0,0", "--M", "2", "--N", "2", "--l", "0"],
     "l=0"),
    (["moment-check", "--q", "13", "--xi", "3"], "xi=3"),
    (["moment-check", "--q", "13", "--n", "26"], "n=26"),
    (["bound-check", "--primes", "13"], "primes=[13]"),
    (["bound-check", "--primes", "17,13"], "primes=[17, 13]"),
    # options that the run's mode never reads
    (["strata-scan", "--q", "13", "--k", "2", "--l", "1", "--exhaustive", "--seed", "5"],
     "seed=5"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--n", "2", "--m", "0", "--count", "7",
      "--seed", "3", "--l", "5"], "l=5, count=7, seed=3"),
    (["avg-compare", "--q", "13", "--family", "power-sum", "--count", "7"], "count=7"),
    (["avg-compare", "--q", "13", "--family", "full-sample", "--n", "9", "--m", "7"], "n=9, m=7"),
    (["bilinear-bench", "--q", "101", "--chars", "0,0", "--M", "10", "--N", "10", "--seed", "9"],
     "seed=9"),
    (["kl-verify", "--q", "101", "--chars", "0,0", "--n-lambda", "0", "--seed", "4"], "seed=4"),
    # coefficient support past q - 1: the sequence and its index range
    (["bilinear-bench", "--q", "13", "--chars", "0,0", "--M", "20", "--N", "3"],
     "at q=13: alpha has indices 1..20"),
])
def test_precondition_error_names_value(argv, named):
    code, env = run_json(argv)
    assert code == 2 and env["status"] == "precondition-failed"
    assert named in env["payload"]["error"]


@pytest.mark.parametrize("family,echo", [
    ("power-sum", {"n": 4, "m": 1, "l": None, "count": None}),
    ("full-sample", {"n": None, "m": None, "l": 2, "count": 50}),
])
def test_avg_compare_echoes_only_the_family_options(family, echo):
    code, env = run_json(["avg-compare", "--q", "7", "--family", family])
    assert code == 0
    assert {key: env["config"][key] for key in echo} == echo


def test_box_count_cli():
    code, env = run_json(["box-count", "--q", "997", "--l", "2", "--box", "10"])
    assert code == 0
    assert env["payload"]["count"] == 280


@pytest.mark.parametrize("l", ["0", "-1"])
def test_box_count_nonpositive_l_exit_2(l):
    code, env = run_json(["box-count", "--q", "997", "--l", l, "--box", "10"])
    assert code == 2 and env["status"] == "precondition-failed"
    assert f"l >= 1, got l={l}" in env["payload"]["error"]


def test_moment_check_cli():
    code, env = run_json(["moment-check", "--q", "13", "--xi", "0", "--n", "1"])
    assert code == 0
    assert env["payload"]["abs_diff"] <= 1e-10


def test_moment_check_odd_xi_fails():
    code, env = run_json(["moment-check", "--q", "13", "--xi", "1", "--n", "1"])
    assert code == 2 and env["status"] == "precondition-failed"


def test_bilinear_bench_cli():
    code, env = run_json(
        ["bilinear-bench", "--q", "101", "--chars", "0,0", "--M", "10", "--N", "10", "--l", "2"]
    )
    assert code == 0
    p = env["payload"]
    assert p["computed"] <= p["trivial_bound"]
    assert set(p["B_value"]) == {"re", "im"}


@pytest.mark.parametrize("sizes,empty", [(["--M", "0", "--N", "5"], "alpha"),
                                         (["--M", "5", "--N", "-3"], "beta")])
@pytest.mark.parametrize("random", [[], ["--random-coeffs"]])
def test_bilinear_bench_empty_sequence_exit_2(sizes, empty, random):
    code, env = run_json(["bilinear-bench", "--q", "101", "--chars", "0,0", *sizes, *random])
    assert code == 2 and env["status"] == "precondition-failed"
    assert env["payload"]["error"] == f"coefficient sequence {empty} is empty"


def test_avg_compare_cli_full_sample():
    code, env = run_json(
        ["avg-compare", "--q", "13", "--chars", "0,0", "--family", "full-sample", "--count", "5", "--l", "2"]
    )
    assert code == 0
    assert env["payload"]["count"] == 5


@pytest.mark.parametrize("l,count", [("0", "0"), ("0", "2"), ("-1", "0"), ("-1", "2")])
def test_avg_compare_full_sample_l_below_1_exit_2(l, count):
    # l = -1 with a positive count exited 1 with a numpy traceback
    code, env = run_json(["avg-compare", "--q", "13", "--family", "full-sample",
                          "--count", count, "--l", l])
    assert code == 2 and env["status"] == "precondition-failed"
    assert env["payload"]["error"] == f"need l >= 1, got l={l}"


def test_bound_check_cli_tiny():
    code, env = run_json(
        [
            "bound-check",
            "--primes",
            "13,17",
            "--samples",
            "4",
            "--subgeneric-samples",
            "2",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    pts = env["payload"]["points"]
    assert [p["q"] for p in pts] == [13, 17]
    assert all(p["n_generic"] == 4 for p in pts)


def test_out_file_and_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("KLSUMS_OUT_DIR", str(tmp_path))
    code, text = run_cli(["field-info", "--q", "13", "--out", "report.json"])
    assert code == 0 and text == ""
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["payload"]["g"] == 2


def test_field_info_payload():
    code, env = run_json(["field-info", "--q", "7"])
    assert env["payload"] == {"q": 7, "g": 3, "units": 6}


def _subparsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _options(p):
    return {a.option_strings[-1] for a in p._actions if not isinstance(a, argparse._HelpAction)}


def test_option_surface():
    subs = _subparsers()
    assert set(subs) == set(MINIMAL_ARGS)
    for name, p in subs.items():
        opts = _options(p)
        assert "--out" in opts
        assert ("--format" in opts) == (name in CSV_SUBCOMMANDS), name
        assert ("--seed" in opts) == (name in SEEDED_SUBCOMMANDS), name
        assert "--threads" not in opts, name
        assert ("--k" in opts) == (name == "strata-scan"), name
    assert "--scale" not in _options(subs["complete-sum"])
    assert "--scale" not in _options(subs["kl-verify"])
    assert sum(len(_options(p)) for p in subs.values()) == 64


@pytest.mark.parametrize("name", sorted(MINIMAL_ARGS))
def test_minimal_args_run(name):
    code, _ = run_cli([name] + MINIMAL_ARGS[name])
    assert code == 0


UNREAD_OPTIONS = (
    [(name, ["--format", "csv"]) for name in sorted(set(MINIMAL_ARGS) - CSV_SUBCOMMANDS)]
    + [(name, ["--threads", "2"]) for name in sorted(MINIMAL_ARGS)]
    + [(name, ["--seed", "1"]) for name in sorted(set(MINIMAL_ARGS) - SEEDED_SUBCOMMANDS)]
    + [(name, ["--k", "2"]) for name in sorted(CHARS_SUBCOMMANDS)]
    + [("complete-sum", ["--l", "1"])]
    # Sigma_I and Sigma_II do not depend on the table scale
    + [("complete-sum", ["--scale", "2"])]
    # the fast and naive tables at scale a permute their scale-1 entries alike
    + [("kl-verify", ["--scale", "2"])]
)


@pytest.mark.parametrize(
    "name,extra", UNREAD_OPTIONS, ids=[f"{n}{e[0]}" for n, e in UNREAD_OPTIONS]
)
def test_unread_option_is_usage_error(name, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        run([name] + MINIMAL_ARGS[name] + extra, stdout=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: klsums")
    assert f"klsums: error: unrecognized arguments: {' '.join(extra)}" in err
    assert "Traceback" not in err


def test_csv_on_json_subcommand_exits_2_without_traceback():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "klsums.cli", "field-info", "--q", "7", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: klsums")
    assert "unrecognized arguments: --format csv" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_kl_verify_naive_q10007_exit_0():
    # the naive oracle holds O(k q) bytes, so kl-verify runs at q = 10007
    tracemalloc.start()
    try:
        code, env = run_json(["kl-verify", "--q", "10007", "--chars", "0,0,0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and env["status"] == "ok"
    assert env["payload"]["max_rel_diff"] <= 1e-9
    assert peak < 4 * 2**20


def test_complete_sum_kr_budget_exit_3():
    tracemalloc.start()
    try:
        code, env = run_json(["complete-sum", "--q", "100003", "--chars", "0,0", "--b", "1,2,3,4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and env["status"] == "resource-limit"
    assert "q=100003" in env["payload"]["error"]
    # the sweep's count at one row per block: kmat, two one-row blocks, the
    # bfR vector, 8 bytes for each of the q block partials and 16 KiB
    assert f"{16 * 100003 * (100003 + 3) + 8 * 100003 + 2**14} bytes" in env["payload"]["error"]
    assert peak < 64 * 2**20  # kmat (~160 GB) was never allocated


def test_strata_scan_resolvent_budget_exit_3():
    # (k, l) = (2, 7) at its least admitted q: 3x the gather over the 13
    # variables left once x_14 is eliminated (13 x 2^13 rows by 2^12 + 1
    # r-degrees), 512 bytes per b and 8 KiB, refused before the state exists;
    # (2, 6) counts 554 MB and fits the budget
    assert strata._resolvent_bytes(2, 6, 1) <= MAX_BYTES
    need = 24 * 13 * 2**13 * (2**12 + 1) + 2**9 + 2**13
    tracemalloc.start()
    try:
        code, env = run_json(["strata-scan", "--q", "8209", "--k", "2", "--l", "7",
                              "--samples", "5", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and env["status"] == "resource-limit"
    assert env["payload"]["error"] == (f"resolvent at q=8209, k=2, l=7 needs {need} bytes, "
                                       f"over the {MAX_BYTES}-byte bound")
    assert peak < 2**20


def test_complete_sum_direct_budget_exit_3():
    # the difference form alone fits at q = 5779; the direct oracle's
    # 16 q (2 q + rows + 128) + 144 KiB bytes, with BLOCK_ENTRIES // q rows,
    # do not, and are refused before kmat or N is built
    rows = sums.BLOCK_ENTRIES // 5779
    tracemalloc.start()
    try:
        code, env = run_json(["complete-sum", "--q", "5779", "--chars", "0,0", "--b", "1,2,3,4",
                              "--direct"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and env["status"] == "resource-limit"
    assert "q=5779" in env["payload"]["error"]
    assert f"{16 * 5779 * (2 * 5779 + rows + 128) + 2**17 + 2**14} bytes" in env["payload"]["error"]
    assert peak < 64 * 2**20


def test_avg_compare_power_sum_past_kmat_q_exit_0():
    # the closed form counts O(q) bytes and builds no q x q array (a kmat
    # would be 16 q^2 = 308 MB here), so it runs at q = 4391 in a few MiB,
    # with the exact family count; m = 1 there takes seconds, and the CI
    # workflow runs it
    tracemalloc.start()
    try:
        code, env = run_json(["avg-compare", "--q", "4391", "--family", "power-sum", "--m", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and env["status"] == "ok"
    assert env["payload"]["count"] == 4390**4
    assert peak < 4 * 2**20


def test_bilinear_bench_row_blocks_exit_0():
    # B(K, alpha, beta) runs in blocks of BLOCK_ENTRIES // N rows of alpha,
    # so M = N = 7000 (the whole M x N index and gather would be 1.2 GB, past
    # the byte budget) runs in a few MiB
    tracemalloc.start()
    try:
        code, env = run_json(["bilinear-bench", "--q", "10007", "--chars", "0,0",
                              "--M", "7000", "--N", "7000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and env["status"] == "ok"
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "argv,option,token",
    [
        (["complete-sum", "--q", "13", "--chars", "0,0", "--b", "1.5,2,3,4"], "--b", "1.5"),
        (["complete-sum", "--q", "13", "--chars", "0,x", "--b", "1,2,3,4"], "--chars", "x"),
        (["bound-check", "--primes", "101,abc"], "--primes", "abc"),
    ],
)
def test_bad_integer_option_exit_2(argv, option, token):
    code, env = run_json(argv)
    assert code == 2 and env["status"] == "precondition-failed"
    assert env["payload"]["error"] == f"{option}: {token!r} is not an integer"


def test_bound_check_no_chars_exit_2():
    # k is len(--chars); k = 0 used to reach a modulo by zero
    code, env = run_json(["bound-check", "--primes", "13,17", "--chars", ""])
    assert code == 2 and env["status"] == "precondition-failed"
    assert "k >= 1" in env["payload"]["error"]


def test_bound_check_l1_exit_2():
    code, env = run_json(["bound-check", "--primes", "103,151", "--chars", "0,0,0", "--l", "1"])
    assert code == 2 and env["status"] == "precondition-failed"
    assert "l >= 2, got l=1" in env["payload"]["error"]


@pytest.mark.parametrize("option,value", [("--samples", "0"), ("--samples", "-2"),
                                          ("--subgeneric-samples", "0"),
                                          ("--subgeneric-samples", "-1")])
def test_bound_check_empty_sample_set_exit_2(option, value):
    code, env = run_json(["bound-check", "--primes", "101,151", option, value])
    assert code == 2 and env["status"] == "precondition-failed"
    name = option[2:].replace("-", "_")
    assert f"{name}={value}" in env["payload"]["error"]


def test_kl_verify_negative_n_lambda_exit_2():
    code, env = run_json(["kl-verify", "--q", "101", "--chars", "0,0", "--n-lambda", "-3"])
    assert code == 2 and env["status"] == "precondition-failed"
    assert env["payload"]["error"] == "--n-lambda must be >= 0, got -3"


def test_bound_check_payload_keys():
    code, env = run_json(
        ["bound-check", "--primes", "13,17", "--samples", "4", "--subgeneric-samples", "2",
         "--seed", "1"]
    )
    assert code == 0
    p = env["payload"]
    assert set(p) == {
        "k", "l", "chars", "seed", "points", "trend_allowance", "trend_ratio_I",
        "trend_ratio_II", "trend_pass_I", "trend_pass_II", "subgeneric_pass",
    }
    assert set(p["points"][0]) == {
        "q", "generic_z", "n_generic", "r_I", "r_II", "n_subgeneric", "sub_max_I", "sub_max_II",
    }
    pts = p["points"]
    assert p["trend_allowance"] == pytest.approx((17 / 13) ** 0.15)
    assert p["trend_ratio_I"] == pytest.approx(pts[-1]["r_I"] / pts[0]["r_I"])
    assert p["trend_ratio_II"] == pytest.approx(pts[-1]["r_II"] / pts[0]["r_II"])
    assert p["trend_pass_I"] == (p["trend_ratio_I"] <= p["trend_allowance"])
    assert p["trend_pass_II"] == (p["trend_ratio_II"] <= p["trend_allowance"])
    assert p["subgeneric_pass"] is all(
        pt["sub_max_I"] <= 10 and pt["sub_max_II"] <= 10 for pt in pts
    )


def test_bilinear_bench_payload_keys():
    code, env = run_json(
        ["bilinear-bench", "--q", "101", "--chars", "0,0", "--M", "10", "--N", "10", "--l", "2"]
    )
    assert code == 0
    p = env["payload"]
    assert set(p) == {
        "kind", "q", "M", "N", "l", "trivial_bound", "theorem_bound", "cond_interval",
        "cond_mplus", "in_range", "computed", "ratio_trivial", "ratio_theorem",
        "chars", "scale", "B_value", "seed",
    }
    # k ||alpha||_2 ||beta||_2 (MN)^(1/2) with unit coefficients
    assert p["trivial_bound"] == pytest.approx(2 * 10**0.5 * 10**0.5 * 10)
    assert p["ratio_trivial"] == pytest.approx(p["computed"] / p["trivial_bound"])
    assert p["ratio_theorem"] == pytest.approx(p["computed"] / p["theorem_bound"])
    assert p["in_range"] is (p["cond_interval"] or bool(p["cond_mplus"]))


def test_strata_scan_csv_pinned():
    """The seeded (3,2) scan CSV at q = 499, byte for byte as the one-b-at-a-time
    resolvent wrote it (sha256 taken before the b axis was added)."""
    code, text = run_cli(["strata-scan", "--q", "499", "--k", "3", "--l", "2",
                          "--samples", "200", "--seed", "7"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "46d00b093e63e1eb2d719646628116eb0aaf77b07f835bc1eb08dbb684d26884")


@pytest.mark.parametrize("q,k,l,samples,digest", [
    (499, 2, 3, 200, "0a6b68f9d674ac6a3c39c839185a55fb91b5d6aed071f00f4c440db7ef5229c6"),
    (509, 4, 2, 30, "3cc2d9f14779405059f8c198545c38f50455086ec09aee7e89997077be5b32ef"),
], ids=["k2-l3", "k4-l2"])
def test_strata_scan_csv_pinned_more_shapes(q, k, l, samples, digest):
    """Seeded scan CSVs at two more shapes, byte for byte as the resolvent
    over all 2l variables wrote them (sha256 taken before x_2l was
    eliminated by the norm identity)."""
    code, text = run_cli(["strata-scan", "--q", str(q), "--k", str(k), "--l", str(l),
                          "--samples", str(samples)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest
