import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, trajectory = load_tool("pairs"), load_tool("trajectory")
paperscale = load_tool("paperscale")

LOWER, HIGHER = 1, -1


def test_claim_needs_nine_in_ten_wins_and_medians_apart_by_more_than_the_parent_iqr():
    parent = (0.75, 1.0, 1.25)
    assert pairs.claim_holds(9, 10, parent, 0.25, LOWER)
    assert not pairs.claim_holds(8, 10, parent, 0.25, LOWER)  # too few wins
    assert not pairs.claim_holds(10, 10, parent, 0.5, LOWER)  # a gap of exactly the IQR
    assert not pairs.claim_holds(10, 10, parent, 1.75, LOWER)  # the wrong way
    assert pairs.claim_holds(10, 10, parent, 1.75, HIGHER)


def test_a_median_worse_by_more_than_the_bound_is_worse():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert pairs.regression_verdict(parent, [x + 0.3 for x in parent], 0.25, LOWER) == "worse"
    assert pairs.regression_verdict(parent, [x + 0.2 for x in parent], 0.25, LOWER) == "within bound"
    assert pairs.regression_verdict(parent, [x - 0.3 for x in parent], 0.25, HIGHER) == "worse"
    assert pairs.regression_verdict([1.0] * 10, [0.98] * 10, 0.01, HIGHER) == "worse"
    assert pairs.regression_verdict([1.0] * 10, [1.0] * 10, 0.01, HIGHER) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_change_wins_every_pairing():
    parent = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]  # IQR 0.625, above 0.25 x the median
    assert pairs.regression_verdict(parent, parent, 0.25, LOWER) == "unresolved"
    assert pairs.regression_verdict(parent, [0.5, 0.55, 0.59], 0.25, LOWER) == "within bound"
    assert pairs.regression_verdict(parent, [0.5, 0.55, 0.6], 0.25, LOWER) == "unresolved"  # a tie
    assert pairs.regression_verdict(parent, [1.5, 1.6], 0.25, HIGHER) == "within bound"
    assert pairs.regression_verdict(parent, [x + 0.5 for x in parent], 0.25, LOWER) == "worse"


def test_ratio_quartiles_are_taken_over_the_per_pair_ratios():
    parent = [1.0, 2.0, 4.0, 0.5, 1.0]
    change = [1.1, 1.8, 4.0, 0.6, 0.9]  # ratios 1.1, 0.9, 1.0, 1.2, 0.9
    q1, median, q3 = pairs.ratio_quartiles(parent, change)
    assert median == 1.0
    assert (q1, q3) == pytest.approx((0.9, 1.15))
    assert pairs.ratio_quartiles([2.0], [3.0]) == (1.5, 1.5, 1.5)
    assert pairs.ratio_quartiles([0.0, 2.0], [1.0, 1.0]) == (0.5, 0.5, 0.5)  # a zero parent is skipped
    assert pairs.ratio_quartiles([0.0], [1.0]) is None


SPEC = {"end_to_end": [{"name": "session_s", "better": "lower", "bound": 0.25},
                       {"name": "ok_frac", "better": "higher", "bound": 0.01}]}
SESSION = {"parent": [1.0, 1.2, 1.1, 0.9], "change": [0.9, 1.0, 1.2, 0.8]}


def fixed_run(checkout, workload, seed, seconds, busy):
    """Stands in for a perfbench run: values by side and seed, no process."""
    side = checkout.name
    values = {"session_s": SESSION[side][seed - 1], "ok_frac": 1.0, "failed": int(side == "change" and seed == 4)}
    return values, ({"ticks": seed, "percent": 0.5 * seed} if side == "parent" else None), {"nproc": 2}


def test_summary_of_fixed_pairs():
    pairs_ = [{"seed": s, "parent": {"session_s": p, "ok_frac": 1.0, "failed": 0},
               "change": {"session_s": c, "ok_frac": 1.0, "failed": s == 4}}
              for s, p, c in zip(range(1, 5), SESSION["parent"], SESSION["change"])]
    summary = pairs.summarize(pairs_, SPEC)
    session = summary["metrics"]["session_s"]
    assert session["wins"] == 3
    assert session["parent"] == dict(zip(("q1", "median", "q3"), pairs.quartiles(SESSION["parent"])))
    assert session["change"]["median"] == pytest.approx(0.95)
    assert session["ratio"] == dict(zip(("q1", "median", "q3"),
                                        pairs.ratio_quartiles(SESSION["parent"], SESSION["change"])))
    assert not session["claim_holds"]  # 3 of 4 pairs is fewer than 9 in 10
    assert session["verdict"] == pairs.regression_verdict(SESSION["parent"], SESSION["change"], 0.25, LOWER)
    assert (session["better"], session["bound"]) == ("lower", 0.25)
    ok = summary["metrics"]["ok_frac"]
    assert (ok["wins"], ok["ratio"]["median"], ok["verdict"]) == (0, 1.0, "within bound")
    assert summary["failed"] == {"parent": 0, "change": 1}


def test_json_holds_everything_printed(monkeypatch, tmp_path, capsys):
    for side in pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(pairs, "run_once", fixed_run)
    out = tmp_path / "bench.json"
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--seeds", "1-4", "--seconds", "2", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["workload"], report["seeds"], report["seconds"], report["busy"]) == ("w", [1, 2, 3, 4], 2, False)
    for side in pairs.SIDES:
        assert report["checkouts"][side] == {"head": None, "env": {"nproc": 2}}
    assert [p["first"] for p in report["pairs"]] == ["parent", "change"] * 2
    assert [p["parent"]["session_s"] for p in report["pairs"]] == SESSION["parent"]
    assert [p["change"]["session_s"] for p in report["pairs"]] == SESSION["change"]
    assert [p["steal"] for p in report["pairs"]] == [
        {"parent": {"ticks": s, "percent": 0.5 * s}, "change": None} for s in range(1, 5)]
    assert {k: report[k] for k in ("metrics", "failed")} == pairs.summarize(report["pairs"], SPEC)
    printed = capsys.readouterr().out.splitlines()
    assert printed[:4] == [pairs.pair_line(n, p, ["session_s", "ok_frac"]) for n, p in enumerate(report["pairs"])]
    assert printed[5:] == pairs.summary_lines(report)
    assert "change better in 3 of 4" in printed[6] and "steal parent 2 ticks (1.0%), change n/a" in printed[1]


def test_a_seed_range_that_ends_below_its_start_is_refused(tmp_path, capsys):
    assert pairs.parse_seeds("401-403,510,7-7") == [401, 402, 403, 510, 7]
    with pytest.raises(SystemExit) as exit_:
        pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seeds", "10-5"])
    assert exit_.value.code == 2
    assert "argument --seeds: seed range '10-5' ends below its start" in capsys.readouterr().err


def test_git_head_only_for_a_git_checkout(tmp_path):
    assert pairs.git_head(tmp_path) is None
    # not the HEAD of a repository that holds the directory
    assert pairs.git_head(Path(__file__).resolve().parent) is None
    repo = tmp_path / "checkout"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "one"], cwd=repo, check=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True, capture_output=True, text=True)
    assert pairs.git_head(repo) == sha.stdout.strip()
    assert len(pairs.git_head(repo)) == 40


def bench_file(directory, pr, workload, ratios):
    """A BENCH_<pr>_<workload>.json holding only what the trajectory reads."""
    metrics = {name: {"ratio": None if r is None else {"q1": r, "median": r, "q3": r}} for name, r in ratios.items()}
    (directory / f"BENCH_{pr}_{workload}.json").write_text(json.dumps({"workload": workload, "metrics": metrics}))


def test_trajectory_chains_median_ratios_in_pr_order(tmp_path, capsys):
    bench_file(tmp_path, 18, "w", {"session_s": 1.5, "ok_frac": None})
    bench_file(tmp_path, 7, "w", {"session_s": 0.5, "ok_frac": 1.0})  # 7 before 18, not as text
    (tmp_path / "BENCHMARK.json").write_text("{}")
    found = trajectory.load(tmp_path)
    assert list(found) == ["w"] and [pr for pr, _ in found["w"]] == [7, 18]
    assert trajectory.trajectory(found["w"]) == {
        "session_s": [(7, 0.5, 0.5, 0.5, 0.5), (18, 1.5, 0.75, 0.75, 0.75)],
        "ok_frac": [(7, 1.0, 1.0, 1.0, 1.0), (18, None, 1.0, 1.0, 1.0)],  # no ratio: the product stands
    }
    assert trajectory.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w",
        "  session_s    PR 7 0.5 -> 0.5 [0.5, 0.5]  PR 18 1.5 -> 0.75 [0.75, 0.75]",
        "  ok_frac      PR 7 1 -> 1 [1, 1]  PR 18 n/a -> 1 [1, 1]",
    ]


def test_trajectory_interval_chains_the_ratio_quartiles(tmp_path, capsys):
    """Beside each running product, the running products of the per-PR ratio
    q1s and q3s; a PR without a ratio leaves all three as they were."""
    for pr, quartiles in ((3, (0.8, 1.0, 1.25)), (5, (0.5, 0.75, 1.5))):
        metrics = {"session_s": {"ratio": dict(zip(("q1", "median", "q3"), quartiles))},
                   "ok_frac": {"ratio": None if pr == 5 else dict(zip(("q1", "median", "q3"), quartiles))}}
        (tmp_path / f"BENCH_{pr}_w.json").write_text(json.dumps({"workload": "w", "metrics": metrics}))
    steps = trajectory.trajectory(trajectory.load(tmp_path)["w"])
    assert steps["session_s"] == [(3, 1.0, 1.0, 0.8, 1.25), (5, 0.75, 0.75, pytest.approx(0.4), 1.875)]
    assert steps["ok_frac"] == [(3, 1.0, 1.0, 0.8, 1.25), (5, None, 1.0, 0.8, 1.25)]
    assert trajectory.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w",
        "  session_s    PR 3 1 -> 1 [0.8, 1.25]  PR 5 0.75 -> 0.75 [0.4, 1.875]",
        "  ok_frac      PR 3 1 -> 1 [0.8, 1.25]  PR 5 n/a -> 1 [0.8, 1.25]",
    ]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_trajectory_exits_0_quietly_when_its_reader_closed_standard_output(tmp_path, unbuffered):
    """Whether the write fails at once (PYTHONUNBUFFERED) or at the flush."""
    bench_file(tmp_path, 7, "w", {"session_s": 0.5})
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, str(Path(trajectory.__file__)), str(tmp_path)], stdout=write,
                                stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, "")


def test_paperscale_runs_a_tiny_row_dense_and_apce(tmp_path, capsys, monkeypatch):
    """One 100-token row in chunks of 32: each mode runs in its own process,
    and the counters follow the resident tokens."""
    monkeypatch.setattr(paperscale, "PAPER_ROWS", [(100, 2)])
    monkeypatch.setattr(paperscale, "CHUNK_SIZE", 32)
    monkeypatch.setattr(paperscale, "NEW_TOKENS", 3)
    out = tmp_path / "scale.json"
    assert paperscale.main(["--json", str(out)]) == 0
    dense, apce = json.loads(out.read_text())
    assert [(r["mode"], r["k_effective"], r["doc_tokens"]) for r in (dense, apce)] == [("dense", 4, 100),
                                                                                     ("apce", 2, 100)]
    assert dense["counters"] == {"prefill_elements": 100 * 100, "rebuild_elements": 0,
                                 "decode_elements": 101 + 102}
    assert apce["counters"] == {"prefill_elements": 64 * 64, "rebuild_elements": 0, "decode_elements": 65 + 66}
    for result in (dense, apce):
        assert len(result["generated"]) == 3 and result["wall_s"] > 0 and result["peak_rss_mib"] > 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[0].split()[:3] == ["tokens", "mode", "k"]
    assert printed[1].split()[:3] == ["100", "dense", "4"]
    assert printed[2].split()[-3:] == [str(token) for token in apce["generated"]]
    assert len(paperscale.inputs(100)[0].split()) == 100
