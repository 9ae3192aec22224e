"""End-to-end CLI runs: synth, eval, match and bench."""

import tracemalloc

import numpy as np
import pytest

from vprfuse import (
    distance_vector,
    evaluate_method,
    expand_methods,
    ingest,
    load_dataset,
    read_descriptor_file,
    write_descriptor_file,
)
from vprfuse.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth(capsys, out_dir, *extra):
    code, _, err = run(
        capsys, "synth", "--out", str(out_dir), "--places", "40",
        "--dim", "8", "--seed", "9", *extra,
    )
    assert code == 0, err
    return out_dir / "manifest.txt"


def _flat_rows(n_places, dim):
    """Reference rows equal at every place: a set whose distances are constant."""
    return np.tile(np.arange(dim, dtype=np.float32), (n_places, 1))


class TestSynth:
    def test_produces_loadable_manifest(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        ds = load_dataset(manifest)
        assert ds.n_places == 40 and ds.n_refs == 3 and ds.dim == 8

    def test_repeat_seed_identical_files(self, capsys, tmp_path):
        a = synth(capsys, tmp_path / "a")
        b = synth(capsys, tmp_path / "b")
        for name in ("query.vprd", "ref_cond0.vprd", "ground_truth.csv"):
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()

    def test_mixture_restricts_query_conditions(self, capsys, tmp_path):
        # with zero noise each query equals its condition's reference row
        # exactly, so a zeroed third weight shows up as distance 0 in
        # condition 0 or 1 and never in condition 2
        manifest = synth(
            capsys, tmp_path / "data",
            "--mixture", "0.5,0.5,0", "--query-noise", "0", "--condition-scale", "2.0",
        )
        ds = load_dataset(manifest)
        hit_third = 0
        for j in range(ds.queries.shape[0]):
            mins = [distance_vector(ds.queries[j], ref)[j] for ref in ds.refs]
            assert min(mins[0], mins[1]) == 0.0
            hit_third += mins[2] == 0.0
        assert hit_third == 0

    @pytest.mark.parametrize("mixture", ["1,nan,0", "1,inf,0"])
    def test_non_finite_mixture_exits_2(self, capsys, tmp_path, mixture):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "data"), "--mixture", mixture
        )
        assert code == 2
        assert err.startswith("error: ") and "mixture" in err

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "data"), "--seed", "-1")
        assert code == 2
        assert err.startswith("error: ") and "seed" in err


class TestEval:
    def test_pr_csv_and_summary(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        out = tmp_path / "results"
        code, stdout, err = run(
            capsys, "eval", "--manifest", str(manifest),
            "--method", "bayes-selective", "--out", str(out),
        )
        assert code == 0, err
        pr = (out / "pr_bayes-selective.csv").read_text().splitlines()
        assert pr[0] == "threshold,recall,precision"
        assert len(pr) > 1
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,auc,n_queries"
        assert summary[1].startswith("bayes-selective,")
        assert summary[1].endswith(",40")
        assert "bayes-selective," in stdout

    def test_method_all_shares_ground_truth(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        out = tmp_path / "results"
        code, _, err = run(
            capsys, "eval", "--manifest", str(manifest), "--method", "all",
            "--out", str(out),
        )
        assert code == 0, err
        files = sorted(p.name for p in out.glob("pr_*.csv"))
        assert len(files) == 10  # 4 fusion methods + 2 * 3 single-reference
        summary = (out / "summary.csv").read_text().splitlines()
        assert all(line.endswith(",40") for line in summary[1:])

    def test_methods_sharing_a_file_name_exit_2(self, capsys, tmp_path):
        # "a/b" and "a_b" both sanitize to "a_b"; one PR file would overwrite
        # the other, so nothing is written at all.
        manifest = synth(capsys, tmp_path / "data")
        text = manifest.read_text().replace("ref = cond0,", "ref = a/b,")
        manifest.write_text(text.replace("ref = cond1,", "ref = a_b,"))
        out = tmp_path / "results"
        code, _, err = run(
            capsys, "eval", "--manifest", str(manifest), "--method", "all",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "'bayes-single:a/b'" in err and "'bayes-single:a_b'" in err
        assert not out.exists()

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "eval", "--manifest", str(manifest), "--method", "all",
                "--out", str(out), "--seq-len", "3",
            )
            assert code == 0
            outs.append(out)
        for p in sorted(outs[0].glob("*.csv")):
            assert p.read_bytes() == (outs[1] / p.name).read_bytes()

    def test_stdout_mode(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        code, stdout, _ = run(
            capsys, "eval", "--manifest", str(manifest), "--method", "baseline-fusion"
        )
        assert code == 0
        assert "# method=baseline-fusion" in stdout
        assert "threshold,recall,precision" in stdout
        assert "method,auc,n_queries" in stdout

    def test_bad_manifest_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "nope.txt"
        code, _, err = run(capsys, "eval", "--manifest", str(bad))
        assert code != 0
        assert "error:" in err

    def test_non_integer_ground_truth_exits_2(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        gt = manifest.parent / "ground_truth.csv"
        gt.write_text(gt.read_text() + "1,abc\n")
        code, _, err = run(capsys, "eval", "--manifest", str(manifest))
        assert code == 2
        # header plus 40 rows, so the appended row is line 42
        assert err.startswith("error: ") and "ground_truth.csv:42:" in err
        assert "'1', 'abc'" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"query_index,place_index\n0,\xff\n",
            b"query_index,place_index\n0," + b"1" * 131073 + b"\n",
            b"query_index,place_index\n1000000000000000000,0\n",
        ],
        ids=["non-utf8", "oversized-cell", "huge-index"],
    )
    def test_unreadable_ground_truth_exits_2(self, capsys, tmp_path, content):
        manifest = synth(capsys, tmp_path / "data")
        (manifest.parent / "ground_truth.csv").write_bytes(content)
        code, _, err = run(capsys, "eval", "--manifest", str(manifest))
        assert code == 2
        assert err.startswith("error: ") and "ground_truth.csv" in err

    def test_non_utf8_manifest_exits_2(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        manifest.write_bytes(b"places = 40\xff\n")
        code, _, err = run(capsys, "eval", "--manifest", str(manifest))
        assert code == 2
        assert err.startswith("error: ") and "manifest.txt" in err

    @pytest.mark.parametrize("seq_len", ["0", "-3"])
    def test_sequence_length_below_one_exits_2(self, capsys, tmp_path, seq_len):
        manifest = synth(capsys, tmp_path / "data")
        code, _, err = run(
            capsys, "eval", "--manifest", str(manifest), "--seq-len", seq_len
        )
        assert code == 2
        assert err.startswith("error: ") and "sequence length" in err

    def test_infinite_velocity_exits_2(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        code, _, err = run(
            capsys, "eval", "--manifest", str(manifest),
            "--seq-len", "2", "--seq-velocity", "inf",
        )
        assert code == 2
        assert err.startswith("error: ") and "velocity" in err

    def test_overflowing_velocity_matches_sequence_length_one(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        base = ["eval", "--manifest", str(manifest), "--method", "all"]
        single = run(capsys, *base)
        overflow = run(capsys, *base, "--seq-len", "3", "--seq-velocity", "1e308")
        assert single[0] == 0
        assert overflow == single

    @pytest.mark.parametrize("seq_len, bound", [(1, 0.5), (5, 2.5)])
    def test_peak_memory_in_score_matrices(self, capsys, tmp_path, seq_len, bound):
        """At length 1 eval holds blocks of rows, never a whole score matrix;
        above it, one method's matrix is alive at a time, plus its window means.

        At 1000 queries x 1000 places one float64 matrix is 8 MB, far above
        the dataset and the block temporaries.
        """
        manifest = synth(
            capsys, tmp_path / "data", "--places", "1000", "--conditions", "1", "--dim", "4"
        )
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "eval", "--manifest", str(manifest), "--method", "all",
                "--seq-len", str(seq_len), "--out", str(tmp_path / "results"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak / (8 * 1000 * 1000) <= bound

    def test_jobs_flag_is_gone(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--manifest", str(manifest), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_unknown_method_exits_nonzero(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        code, _, err = run(
            capsys, "eval", "--manifest", str(manifest), "--method", "bogus"
        )
        assert code != 0 and "error:" in err


_ROSTER = (
    "bayes-selective", "bayes-full", "baseline-fusion", "baseline-selective",
    "bayes-single:<set>", "min-value:<set>",
)


@pytest.mark.parametrize("command, method", [("bench", "all"), ("match", "all"), ("eval", "bogus")])
def test_unknown_method_names_the_roster(capsys, tmp_path, command, method):
    manifest = synth(capsys, tmp_path / "data")
    extra = []
    if command == "match":
        extra = ["--query", str(tmp_path / "q.vprd")]
        write_descriptor_file(extra[1], load_dataset(manifest).queries[:1])
    code, stdout, err = run(
        capsys, command, "--manifest", str(manifest), "--method", method, *extra
    )
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: unknown method {method!r}") and "Traceback" not in err
    assert all(form in err for form in _ROSTER), err
    assert "'all' is accepted by eval only" in err


@pytest.mark.parametrize(
    "command, method, gamma",
    [
        ("eval", "min-value:0", "-1"),
        ("eval", "bayes-full", "nan"),
        ("bench", "baseline-fusion", "-1"),
        ("match", "bayes-full", "-1"),
    ],
)
def test_gamma_is_checked_for_every_method(capsys, tmp_path, command, method, gamma):
    """Also methods that never select by gamma refuse one that is not positive."""
    manifest = synth(capsys, tmp_path)
    qf = tmp_path / "q.vprd"
    write_descriptor_file(qf, load_dataset(manifest).queries[:1])
    extra = ["--query", str(qf)] if command == "match" else []
    code, stdout, err = run(
        capsys, command, "--manifest", str(manifest), "--method", method, "--gamma", gamma, *extra
    )
    assert code == 2 and stdout == ""
    assert err == f"error: gamma must be positive, got {float(gamma)}\n"


class TestMatch:
    def _query_file(self, tmp_path, manifest, index=0):
        ds = load_dataset(manifest)
        path = tmp_path / "q.vprd"
        write_descriptor_file(path, ds.queries[index : index + 1])
        return path

    def test_reference_descriptor_matches_its_place(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        ds = load_dataset(manifest)
        qf = tmp_path / "q.vprd"
        write_descriptor_file(qf, ds.refs[1].descriptors[5:6])
        code, stdout, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf),
            "--threshold", "0.5",
        )
        assert code == 0, err
        assert "decision: place=5" in stdout
        assert "selected sets:" in stdout
        assert "top beliefs:" in stdout

    @pytest.mark.parametrize("method", ["bayes-selective", "baseline-fusion", "min-value:a"])
    def test_degenerate_dataset_reports_no_information(self, capsys, tmp_path, method):
        # constant descriptors per set: every distance vector has zero variance
        data = tmp_path / "flat"
        data.mkdir()
        rows = np.tile(np.arange(4, dtype=np.float32), (6, 1))
        for u in range(2):
            write_descriptor_file(data / f"r{u}.vprd", rows)
        write_descriptor_file(data / "query.vprd", np.zeros((6, 4), np.float32))
        (data / "manifest.txt").write_text(
            "places = 6\ndim = 4\nquery = query.vprd\ngt_tolerance = 0\n"
            "ref = a,r0.vprd\nref = b,r1.vprd\n"
        )
        qf = tmp_path / "q.vprd"
        write_descriptor_file(qf, np.ones((1, 4), np.float32))
        code, stdout, err = run(
            capsys, "match", "--manifest", str(data / "manifest.txt"),
            "--query", str(qf), "--method", method,
        )
        assert code == 0, err
        assert "no-information" in stdout
        assert stdout.endswith("decision: none\n")
        if method.startswith("bayes"):
            assert "dropped degenerate sets: [0, 1]\n" in stdout

    @pytest.mark.parametrize("method", ["bayes-selective", "bayes-full", "bayes-single:0"])
    def test_one_place_map_decides_place_0(self, capsys, tmp_path, method):
        # the one distance of a set is degenerate, so the prior row decides, as in eval
        manifest = synth(capsys, tmp_path / "one", "--places", "1", "--conditions", "2")
        qf = self._query_file(tmp_path, manifest)
        code, stdout, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf),
            "--method", method,
        )
        assert code == 0, err
        assert "decision: place=0 confidence=1 threshold=" in stdout

    def test_constant_set_is_reported_dropped(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data", "--conditions", "2")
        write_descriptor_file(manifest.parent / "ref_cond1.vprd", _flat_rows(40, 8))
        qf = tmp_path / "q.vprd"
        write_descriptor_file(qf, load_dataset(manifest).refs[0].descriptors[5:6])
        code, stdout, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf),
            "--method", "bayes-full",
        )
        assert code == 0, err
        assert "selected sets: [0, 1]\ndropped degenerate sets: [1]\n" in stdout
        assert "decision: place=5 " in stdout

    def test_mixed_condition_query_selects_subset(self, capsys, tmp_path):
        manifest = synth(
            capsys, tmp_path / "data", "--mixture", "0.5,0.5,0",
            "--condition-scale", "2.0",
        )
        qf = self._query_file(tmp_path, manifest)
        code, stdout, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf)
        )
        assert code == 0, err
        selected = stdout.split("selected sets: ")[1].splitlines()[0]
        assert len(eval(selected)) < 3  # off-condition set rejected

    def test_threshold_outside_unit_interval_rejected(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        qf = self._query_file(tmp_path, manifest)
        code, _, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf),
            "--threshold", "1.5",
        )
        assert code != 0 and "threshold" in err

    def test_threshold_checked_before_loading(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "match", "--manifest", str(tmp_path / "missing.txt"),
            "--query", str(tmp_path / "q.vprd"), "--threshold", "1.5",
        )
        assert code == 2
        assert "--threshold" in err and "missing.txt" not in err

    def test_multi_row_query_file_rejected(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        ds = load_dataset(manifest)
        qf = tmp_path / "q.vprd"
        write_descriptor_file(qf, ds.queries[:2])
        code, _, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf)
        )
        assert code != 0 and "single-descriptor" in err

    def test_wrong_dimension_query_refused_from_its_header(self, capsys, tmp_path, monkeypatch):
        manifest = synth(capsys, tmp_path / "data")
        qf = tmp_path / "q.vprd"
        write_descriptor_file(qf, np.zeros((1, 5), np.float32))

        read_payload = ingest._float64_rows

        def rows_of_dim_8(shape, *args):
            assert shape[1] == 8, "read the payload of a query file of the wrong dimension"
            return read_payload(shape, *args)

        monkeypatch.setattr(ingest, "_float64_rows", rows_of_dim_8)
        code, _, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf)
        )
        assert code == 2
        assert f"{qf}: dimension 5, manifest says 8" in err

    def test_distance_method_report(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        qf = self._query_file(tmp_path, manifest)
        code, stdout, err = run(
            capsys, "match", "--manifest", str(manifest), "--query", str(qf),
            "--method", "baseline-fusion",
        )
        assert code == 0, err
        assert "top scores" in stdout and "decision: place=" in stdout
        ds = load_dataset(manifest)
        means = np.mean([distance_vector(ds.queries[0], ref) for ref in ds.refs], axis=0)
        assert f"decision: place={int(np.argmin(means))} " in stdout


@pytest.mark.parametrize("gamma", ["0.04", "1e6"])
@pytest.mark.parametrize("data", ["protocol", "one-flat-set", "all-flat-sets", "one-place"])
def test_match_decides_as_eval(capsys, tmp_path, data, gamma):
    """``match`` decides a place exactly where ``eval`` does, for every method."""
    if data == "protocol":
        manifest = synth(capsys, tmp_path, "--places", "500", "--dim", "24",
                         "--seed", "0", "--mixture", "0.5,0.5,0")
    elif data == "one-place":
        manifest = synth(capsys, tmp_path, "--places", "1", "--conditions", "2")
    else:
        manifest = synth(capsys, tmp_path, "--places", "50", "--conditions", "2")
        flat = ["ref_cond1.vprd"] + (["ref_cond0.vprd"] if data == "all-flat-sets" else [])
        for name in flat:
            write_descriptor_file(tmp_path / name, _flat_rows(50, 8))
    ds = load_dataset(manifest)
    qf = tmp_path / "q.vprd"
    for method in expand_methods("all", ds.labels):
        result = evaluate_method(ds, method, gamma=float(gamma))
        for q in range(min(4, ds.queries.shape[0])):
            write_descriptor_file(qf, ds.queries[q : q + 1])
            code, stdout, err = run(
                capsys, "match", "--manifest", str(manifest), "--query", str(qf),
                "--method", method.name, "--gamma", gamma, "--threshold", "1e-9",
            )
            assert code == 0, err
            last = stdout.splitlines()[-1]
            if result.decided[q]:
                assert last.startswith(f"decision: place={result.places[q]} "), (method.name, q)
            else:
                assert last == "decision: none", (method.name, q)


class TestBench:
    def test_timing_csv(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        code, stdout, err = run(
            capsys, "bench", "--manifest", str(manifest),
            "--repetitions", "2", "--queries", "4",
        )
        assert code == 0, err
        lines = stdout.strip().splitlines()
        assert lines[0] == "method,phase,mean_s,median_s"
        phases = [line.split(",")[1] for line in lines[1:]]
        assert phases == ["distance", "selection", "fusion", "total"]

    def test_out_dir_is_created(self, capsys, tmp_path):
        manifest = synth(capsys, tmp_path / "data")
        out = tmp_path / "new" / "timing"
        code, stdout, err = run(
            capsys, "bench", "--manifest", str(manifest),
            "--repetitions", "1", "--queries", "2", "--out", str(out),
        )
        assert code == 0, err
        assert stdout == ""
        assert (out / "timing.csv").read_text().startswith("method,phase,mean_s,median_s\n")
