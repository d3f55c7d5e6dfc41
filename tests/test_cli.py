import json
import math
import tracemalloc
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from densityk import (
    compute_k_function,
    densityk_pipeline,
    export,
    geo,
    kfunction_to_csv,
    pairwise_distances,
    with_cluster_distance,
)
from densityk.cli import _write_json, main
from densityk.corpus import document_to_json, load_corpus, to_canonical_json, to_point_cloud
from densityk.evaluation import (
    ALGORITHMS,
    AlgorithmConfig,
    evaluate_corpus,
    report_to_csv,
    report_to_dict,
    table1_grid,
)
from densityk.params import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, POSITIVE_FINITE
from densityk.synth import SynthSpec, synth_generate
from conftest import make_document
from test_corpus import M_PER_DEG
from test_streaming import small_blocks


@pytest.fixture
def runner():
    return CliRunner()


def planted_doc(doc_id="cli-doc", n_mentions=3):
    mentions = {}
    truth = {}
    for m in range(n_mentions):
        name = f"pl{m}"
        mentions[name] = [
            (8.0 + m * 200 / M_PER_DEG, 30.0),
            (-50.0 + 12.0 * m, -100.0),
        ]
        truth[name] = f"{name}_e0"
    return make_document(doc_id, mentions, ground_truth=truth)


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(document_to_json(planted_doc()))
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for i in range(2):
        doc = planted_doc(doc_id=f"cdoc{i}")
        (directory / f"cdoc{i}.json").write_text(document_to_json(doc))
    return directory


_FLAG_CASES = [
    (["--algorithm", "dbscan", "--epsilon", "2000", "--min-pts", "2", "--k", "4"],
     {"epsilon": 2000.0, "min_pts": 2}),
    (["--algorithm", "omd", "--measure", "hull", "--k", "3"], {"measure": "hull_area", "cap": 1000000}),
    (["--algorithm", "centroid", "--min-pts", "3"], {}),
    (["--epsilon", "5", "--upper-bound", "1e6"], {"delta_d": 100.0, "upper_bound": 1e6}),
]


class TestDisambiguateCommand:
    def test_densityk_resolves(self, runner, doc_path, tmp_path):
        out = tmp_path / "result.json"
        code = runner.invoke(
            main, ["disambiguate", "--input", str(doc_path), "--output", str(out)]
        ).exit_code
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "densityk"
        assert payload["outcomes"]["pl0"] == {"status": "resolved", "entry_id": "pl0_e0"}
        assert "cluster_distance_m" in payload

    def test_baseline_selection(self, runner, doc_path, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(
            main,
            [
                "disambiguate",
                "--algorithm", "dbscan",
                "--epsilon", "2000",
                "--min-pts", "2",
                "--input", str(doc_path),
                "--output", str(out),
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "dbscan"
        assert payload["params"] == {"epsilon": 2000.0, "min_pts": 2}

    def test_missing_required_param_exits_1(self, runner, doc_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "disambiguate",
                "--algorithm", "dbscan",
                "--input", str(doc_path),
                "--output", str(tmp_path / "x.json"),
            ],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("args, params", _FLAG_CASES, ids=[" ".join(a) for a, _ in _FLAG_CASES])
    def test_params_list_only_the_flags_the_algorithm_takes(self, runner, doc_path, tmp_path, args, params):
        out = tmp_path / "result.json"
        result = runner.invoke(
            main, ["disambiguate", *args, "--input", str(doc_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["params"] == params

    def test_malformed_document_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main,
            ["disambiguate", "--input", str(bad), "--output", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 1

    def test_an_interrupted_run_exits_1(self, runner):
        # Ctrl-C: click turns the KeyboardInterrupt into Abort, after a bare
        # newline for the terminal's ^C
        with mock.patch("densityk.cli.load_document_file", side_effect=KeyboardInterrupt):
            result = runner.invoke(main, ["disambiguate", "--input", "x", "--output", "y"])
        assert result.exit_code == 1
        assert result.stderr.endswith("\nerror: aborted\n")

    def test_string_coordinate_exits_1(self, runner, tmp_path):
        raw = json.loads(document_to_json(make_document("s", {"a": [(1.0, 2.0), (3.0, 4.0)]})))
        raw["mentions"][0]["candidates"][1]["lon"] = "45.5"
        bad = tmp_path / "s.json"
        bad.write_text(json.dumps(raw))
        result = runner.invoke(main, ["disambiguate", "--input", str(bad), "--output", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert "entry 'a_e1'" in result.output

    def test_algorithm_failure_exits_2(self, runner, doc_path, tmp_path):
        # every mention of the fixture is ambiguous, so dtur has no anchors
        result = runner.invoke(
            main,
            [
                "disambiguate",
                "--algorithm", "dtur",
                "--input", str(doc_path),
                "--output", str(tmp_path / "x.json"),
            ],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [["--algorithm", "omd", "--cap", "1"], ["--algorithm", "dtur"]],
        ids=" ".join,
    )
    def test_exit_2_names_the_document_once(self, runner, doc_path, tmp_path, args):
        result = runner.invoke(
            main,
            ["disambiguate", *args, "--input", str(doc_path), "--output", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {doc_path}: ")
        assert result.output.count("cli-doc") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["evaluate", "--cell", "voronoi"],
        ["evaluate", "--cell", "dbscan:epsilon=2000"],
        ["evaluate", "--cell", "dbscan:epsilon=abc,min_pts=5"],
        ["evaluate", "--cell", "omd:measure=hull"],
        ["evaluate", "--cell", "densityk:delta=50"],
        ["evaluate", "--cell", "dbscan:epsilon=2000,min_pts=2.5"],
        ["evaluate", "--cell", "densityk:delta_d=0"],
        ["disambiguate", "--algorithm", "dbscan", "--epsilon", "-5", "--min-pts", "5"],
        ["disambiguate", "--algorithm", "kdist", "--k", "0", "--min-pts", "5"],
        ["kfunction", "--delta-d", "0"],
        ["kfunction", "--delta-d", "nan"],
        ["kfunction", "--delta-d", "1e-300"],
        ["kfunction", "--delta-d", "1e200"],
        ["evaluate", "--cell", "densityk:delta_d=1e-300"],
        ["evaluate", "--cell", "densityk:upper_bound=-5"],
        ["disambiguate", "--upper-bound", "-5"],
        ["disambiguate", "--upper-bound", "nan"],
        ["kfunction", "--upper-bound", "-5"],
        ["kfunction", "--upper-bound", "nan"],
        ["disambiguate", "--upper-bound", "inf"],
        ["kfunction", "--upper-bound", "inf"],
        ["evaluate", "--cell", "omd", "--workers", "0"],
        ["evaluate", "--cell", "omd", "--workers", "-3"],
    ],
    ids=" ".join,
)
def test_bad_value_exits_1_with_one_error_line(runner, corpus_dir, doc_path, tmp_path, args):
    if args[0] == "evaluate":
        args = args + ["--corpus", str(corpus_dir)]
    else:
        args = args + ["--input", str(doc_path)]
    result = runner.invoke(main, args + ["--output", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:")
    assert result.output.count("\n") == 1


ONE_CANDIDATE = {"a": [(0, 0)]}
COINCIDENT = {f"m{i}": [(10, 20)] for i in range(4)}  # the k=2 auto-epsilon is 0
SPREAD = {f"m{i}": [(10, 20 + i)] for i in range(4)}
DELTA_D_MESSAGE = "densityk delta_d must be a positive finite number, got -1.0"
MIN_PTS_MESSAGE = "kdist min_pts must be >= 1, got 0"
CAP_MESSAGE = "omd cap must be >= 1, got {}"


@pytest.mark.parametrize(
    "args, mentions, message",
    [
        (["disambiguate", "--delta-d", "-1"], ONE_CANDIDATE, DELTA_D_MESSAGE),
        (["disambiguate", "--delta-d", "-1"], SPREAD, DELTA_D_MESSAGE),
        (["kfunction", "--delta-d", "-1"], ONE_CANDIDATE, DELTA_D_MESSAGE),
        (["kfunction", "--delta-d", "-1"], SPREAD, DELTA_D_MESSAGE),
        (["disambiguate", "--algorithm", "kdist", "--k", "2", "--min-pts", "0"], COINCIDENT, MIN_PTS_MESSAGE),
        (["disambiguate", "--algorithm", "kdist", "--k", "2", "--min-pts", "0"], SPREAD, MIN_PTS_MESSAGE),
        (["disambiguate", "--algorithm", "omd", "--cap", "0"], SPREAD, CAP_MESSAGE.format(0)),
        (["disambiguate", "--algorithm", "omd", "--cap", "-1"], SPREAD, CAP_MESSAGE.format(-1)),
        (["disambiguate", "--algorithm", "omd", "--cap", "-1"], ONE_CANDIDATE, CAP_MESSAGE.format(-1)),
    ],
)
def test_bad_value_exits_1_whatever_the_document(runner, tmp_path, args, mentions, message):
    # a parameter is checked before the document's shape can decide the run
    path = tmp_path / "doc.json"
    path.write_text(document_to_json(make_document("doc", mentions)))
    result = runner.invoke(main, args + ["--input", str(path), "--output", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == f"error: {message}\n"


# a value just outside each numeric domain; a str parameter gets the CLI's
# own spelling of a measure, which the registry does not take
OUTSIDE = {POSITIVE_FINITE: 0.0, POSITIVE: 0.0, NON_NEGATIVE: -1e-9, AT_LEAST_ONE: 0}
REQUIRED_VALUES = {"epsilon": 2000.0, "min_pts": 1, "k": 2}


@pytest.mark.parametrize(
    "algorithm, param, value",
    [
        (algorithm, param, value)
        for algorithm, entry in ALGORITHMS.items()
        for param in entry.params.values()
        if param.domain is not None
        for value in ("hull" if param.kind is str else OUTSIDE[param.domain], math.nan)
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_a_value_outside_a_domain_is_one_message_before_any_read(runner, tmp_path, algorithm, param, value):
    # the registry gives the entry point's own message after the algorithm's
    # name, and the CLI prints it before it looks for the input or corpus
    entry = ALGORITHMS[algorithm]
    params = {name: REQUIRED_VALUES[name] for name, p in entry.params.items() if p.required}
    params[param.name] = value
    with pytest.raises(ValueError) as library:
        entry.run(planted_doc(), **params)
    message = f"{algorithm} {library.value}"
    with pytest.raises(ValueError) as registry:
        AlgorithmConfig(algorithm, tuple(params.items()))
    assert str(registry.value) == message

    missing, out = tmp_path / "missing", tmp_path / "out"
    cell = f"{algorithm}:" + ",".join(f"{name}={v}" for name, v in params.items())
    result = runner.invoke(main, ["evaluate", "--cell", cell, "--corpus", str(missing), "--output", str(out)])
    assert (result.exit_code, result.output) == (1, f"error: bad --cell {cell!r}: {message}\n")
    if param.kind is float or (param.kind is int and isinstance(value, int)):  # a value the flag's type takes
        flags = [f"--{name.replace('_', '-')}={v}" for name, v in params.items()]
        commands = [["disambiguate", "--algorithm", algorithm], ["clusters", "--algorithm", algorithm]]
        for command in commands + ([["kfunction"]] if algorithm == "densityk" else []):
            result = runner.invoke(main, [*command, *flags, "--input", str(missing), "--output", str(out)])
            assert (result.exit_code, result.output) == (1, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["disambiguate", "--input", "{doc}", "--output", "{missing}"],
        ["clusters", "--input", "{doc}", "--output", "{missing}"],
        ["kfunction", "--input", "{doc}", "--output", "{missing}"],
        ["evaluate", "--corpus", "{corpus}", "--cell", "centroid", "--output", "{missing}"],
        ["evaluate", "--corpus", "{corpus}", "--cell", "centroid", "--output", "{ok}", "--csv", "{missing}"],
        ["synth", "--n-docs", "1", "--output", "{file}"],
    ],
    ids=" ".join,
)
def test_unwritable_output_exits_1_with_one_error_line(runner, corpus_dir, doc_path, tmp_path, args):
    # the last path lies in a missing directory, or names a file where synth makes a directory
    (tmp_path / "file").write_text("")
    paths = {
        "{doc}": doc_path,
        "{corpus}": corpus_dir,
        "{ok}": tmp_path / "ok.json",
        "{missing}": tmp_path / "missing" / "out",
        "{file}": tmp_path / "file",
    }
    result = runner.invoke(main, [str(paths.get(arg, arg)) for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: cannot write {paths[args[-1]]}: ")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["disambiguate", "--input", "{empty}"], "cannot read {empty}: "),
        (["evaluate", "--cell", "centroid", "--corpus", "{missing}"], "cannot read corpus {missing}: "),
        (["evaluate", "--cell", "centroid", "--corpus", "{empty}"], "corpus {empty} holds no documents\n"),
        (["evaluate", "--cell", "centroid", "--workers", "0", "--corpus", "{missing}"], "workers must be >= 1, got 0\n"),
    ],
    ids=["directory-input", "missing-corpus", "empty-corpus", "workers-before-missing-corpus"],
)
def test_unreadable_input_exits_1_with_one_error_line(runner, tmp_path, args, message):
    # a directory where a document is read, a missing corpus, and a directory of no documents
    paths = {"empty": tmp_path / "empty", "missing": tmp_path / "missing.jsonl"}
    paths["empty"].mkdir()
    result = runner.invoke(main, [arg.format(**paths) for arg in args] + ["--output", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: " + message.format(**paths))
    assert result.output.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["disambiguate", "--algorithm", "dbscan", "--epsilon", "5", "--min-pts", "2.5", "--input", "{doc}", "--output", "{out}"],
         "Invalid value for '--min-pts': '2.5' is not a valid integer."),
        (["disambiguate", "--input", "{doc}"], "Missing option '--output'."),
        (["clusters", "--algorithm", "nosuch", "--input", "{doc}", "--output", "{out}"],
         "Invalid value for '--algorithm': 'nosuch' is not one of " + ", ".join(map(repr, ALGORITHMS)) + "."),
        (["evaluate", "--workers", "two", "--cell", "omd", "--corpus", "{corpus}", "--output", "{out}"],
         "Invalid value for '--workers': 'two' is not a valid integer."),
        (["evaluate", "--grid", "nope", "--corpus", "{corpus}", "--output", "{out}"],
         "Invalid value for '--grid': 'nope' is not 'table1'."),
        (["kfunction", "--bogus", "--input", "{doc}", "--output", "{out}"], "No such option '--bogus'."),
        (["nosuch", "--output", "{out}"], "No such command 'nosuch'."),
    ],
    ids=["min-pts-2.5", "missing-output", "unknown-algorithm", "workers-two", "unknown-grid", "unknown-option", "unknown-command"],
)
def test_a_command_line_that_does_not_parse_exits_1_with_one_error_line(
    runner, corpus_dir, doc_path, tmp_path, args, message
):
    # click's own message, as every other input error is given: the same
    # min_pts of 2.5 in an evaluate --cell exits 1 too
    paths = {"doc": doc_path, "corpus": corpus_dir, "out": tmp_path / "out"}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert (result.exit_code, result.output) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_no_command_lists_the_commands(runner):
    for args in (["--help"], ["evaluate", "--help"]):
        assert runner.invoke(main, args).exit_code == 0
    bare = runner.invoke(main, [])
    assert bare.exit_code == 1
    assert bare.output.startswith("Usage: ")
    assert all(f"\n  {name} " in bare.output for name in main.commands)


@pytest.mark.parametrize(
    "args, key",
    [
        (["--cell", "dbscan:epsilon=2000,min_pts=1"] * 2, "dbscan:epsilon=2000,min_pts=1"),
        (["--grid", "table1", "--cell", "densityk:delta_d=100.0"], "densityk:delta_d=100.0"),
    ],
    ids=["two-cells", "grid-and-cell"],
)
def test_a_repeated_cell_exits_1_before_the_corpus_is_read(runner, tmp_path, args, key):
    missing, out = tmp_path / "missing", tmp_path / "out"
    result = runner.invoke(main, ["evaluate", *args, "--corpus", str(missing), "--output", str(out)])
    assert (result.exit_code, result.output) == (1, f"error: cell {key} is given twice\n")
    assert not out.exists()


class TestEvaluateCommand:
    def test_explicit_cells(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--corpus", str(corpus_dir),
                "--output", str(out),
                "--cell", "densityk:delta_d=100",
                "--cell", "dbscan:epsilon=2000,min_pts=2",
            ],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert [c["key"] for c in report["cells"]] == [
            "densityk:delta_d=100",
            "dbscan:epsilon=2000,min_pts=2",
        ]
        assert report["cells"][0]["macro_precision"] == 1.0

    def test_table1_grid_inventory(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(corpus_dir), "--output", str(out), "--grid", "table1"],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert len(report["cells"]) == 22
        assert sum(1 for c in report["cells"] if c["algorithm"] == "dbscan") == 9
        assert sum(1 for c in report["cells"] if c["algorithm"] == "kdist") == 9

    def test_csv_output(self, runner, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--corpus", str(corpus_dir),
                "--output", str(out),
                "--cell", "centroid",
                "--csv", str(csv_path),
            ],
        )
        assert result.exit_code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "doc_id,algorithm,params,precision,avg_distance_error_km,resolved,failed"
        assert len(lines) == 3

    def test_byte_identical_reruns(self, runner, corpus_dir, tmp_path):
        args = [
            "evaluate",
            "--corpus", str(corpus_dir),
            "--cell", "densityk:delta_d=100",
            "--cell", "omd",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["--output", str(out_a)]).exit_code == 0
        assert runner.invoke(main, args + ["--output", str(out_b), "--workers", "4"]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_a_document_given_twice_exits_1(self, runner, tmp_path):
        # two files holding one document would count it twice in every macro average
        directory, out = tmp_path / "twice", tmp_path / "r.json"
        directory.mkdir()
        for name in ("a.json", "b.json"):
            (directory / name).write_text(document_to_json(planted_doc(doc_id="doc0000")))
        result = runner.invoke(main, ["evaluate", "--corpus", str(directory), "--output", str(out), "--cell", "centroid"])
        assert (result.exit_code, result.output) == (1, "error: document 'doc0000' is given twice\n")
        assert not out.exists()

    def test_truthless_document_exits_1(self, runner, tmp_path):
        directory = tmp_path / "nt"
        directory.mkdir()
        doc = make_document("nt0", {"a": [(0, 0), (1, 1)]})
        (directory / "nt0.json").write_text(document_to_json(doc))
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--corpus", str(directory),
                "--output", str(tmp_path / "r.json"),
                "--cell", "centroid",
            ],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("layout", ["directory", "jsonl"])
    def test_bad_document_in_corpus_is_named(self, runner, corpus_dir, tmp_path, layout):
        if layout == "directory":
            corpus = corpus_dir
            (corpus / "cdoc1.json").write_text('{"doc_id": "x", mentions: []}')
            where = f"{corpus / 'cdoc1.json'}: "
        else:
            corpus = tmp_path / "corpus.jsonl"
            docs = [json.dumps(json.loads(document_to_json(planted_doc(f"j{i}")))) for i in range(2)]
            corpus.write_text("\n".join([docs[0], "", "{bad", docs[1]]) + "\n")
            where = f"{corpus}:3: "
        result = runner.invoke(
            main, ["evaluate", "--corpus", str(corpus), "--output", str(tmp_path / "r.json"), "--cell", "centroid"]
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {where}malformed JSON: ")
        assert result.output.count("\n") == 1

    def test_unknown_grid_exits_1(self, runner, corpus_dir, tmp_path):
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(corpus_dir), "--output", str(tmp_path / "r.json"), "--grid", "nope"],
        )
        assert result.exit_code == 1

    def test_no_cells_exits_1(self, runner, corpus_dir, tmp_path):
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(corpus_dir), "--output", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 1


def test_zero_kdist_epsilon_is_annotated_not_fatal(runner, tmp_path):
    # every point has 6 coincident neighbours, so the k=5 epsilon is 0
    doc = make_document(
        "coincident",
        {f"m{i}": [(10, 20), (11, 20)] for i in range(7)},
        ground_truth={f"m{i}": f"m{i}_e0" for i in range(7)},
    )
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(json.loads(document_to_json(doc))) + "\n")
    out = tmp_path / "r.json"
    result = runner.invoke(
        main, ["evaluate", "--corpus", str(corpus), "--grid", "table1", "--output", str(out)]
    )
    assert result.exit_code == 0, result.output
    cells = {cell["key"]: cell for cell in json.loads(out.read_text())["cells"]}
    for min_pts in (1, 5, 10):
        [error] = cells[f"kdist:k=5,min_pts={min_pts}"]["errors"]
        assert error["doc_id"] == "coincident"
        assert error["error"].startswith("InsufficientPointsError: ")
        assert "k=5" in error["error"]
    assert cells["kdist:k=10,min_pts=1"]["documents"]


@pytest.fixture(scope="module")
def one_doc_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("one") / "corpus"
    directory.mkdir()
    (directory / "cdoc0.json").write_text(document_to_json(planted_doc(doc_id="cdoc0")))
    return directory


_CELL_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["abc", "", "avg_pairwise", "hull_area", "hull", "1e400", "nan", "-inf"]),
    st.text(max_size=4),
)
_CELL_PIECES = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(["delta_d", "upper_bound", "epsilon", "min_pts", "k", "measure", "cap", "delta", ""]),
        _CELL_VALUES,
    ),
    st.sampled_from(["", "=", ",", ":", "x"]),
    st.text(max_size=4),
)
_CELLS = st.builds(
    lambda name, pieces: name + (":" + ",".join(pieces) if pieces is not None else ""),
    st.sampled_from(sorted(ALGORITHMS) + ["voronoi", "", " omd", "DBSCAN"]),
    st.none() | st.lists(_CELL_PIECES, max_size=3),
)


@given(_CELLS)
@settings(max_examples=50, deadline=None)
def test_any_cell_exits_cleanly(one_doc_corpus, cell):
    result = CliRunner().invoke(
        main,
        [
            "evaluate",
            "--corpus", str(one_doc_corpus),
            "--output", str(one_doc_corpus.parent / "r.json"),
            "--cell", cell,
        ],
    )
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)


class TestOutputsWrittenInPieces:
    """The CLI hands its outputs' pieces to the open file as they are made:
    the bytes are the library's text, and no text of a whole output is held."""

    def test_report_and_csv_are_the_library_s_text(self, runner, corpus_dir, tmp_path):
        out, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        args = ["evaluate", "--corpus", str(corpus_dir), "--grid", "table1", "--output", str(out), "--csv", str(csv_path)]
        assert runner.invoke(main, args).exit_code == 0
        report = evaluate_corpus(load_corpus(corpus_dir), table1_grid())
        assert out.read_bytes() == to_canonical_json(report_to_dict(report)).encode()
        assert csv_path.read_bytes() == report_to_csv(report).encode()

    def test_a_report_write_holds_no_text_of_it(self, default_corpus, tmp_path):
        # the seed-42 table1 report of 100 documents: about 389 KB of text,
        # whose pieces and join took 2.66 MB when the writer could take
        # pieces back
        payload = report_to_dict(evaluate_corpus(default_corpus, table1_grid()))
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            _write_json(out, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text(encoding="utf-8")
        assert text == to_canonical_json(payload)
        assert len(text) > 300_000
        assert peak < 0.2e6


class TestKFunctionCommand:
    def test_csv_with_threshold_comment(self, runner, doc_path, tmp_path):
        out = tmp_path / "kf.csv"
        result = runner.invoke(
            main, ["kfunction", "--input", str(doc_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_meters,k_density"
        assert lines[-1].startswith("# cluster_distance_meters=")

    def test_single_candidate_document_exits_2(self, runner, tmp_path):
        doc = make_document("tiny", {"a": [(0, 0)]})
        path = tmp_path / "tiny.json"
        path.write_text(document_to_json(doc))
        result = runner.invoke(
            main, ["kfunction", "--input", str(path), "--output", str(tmp_path / "kf.csv")]
        )
        assert result.exit_code == 2
        assert result.output == f"error: {path}: need at least 2 points, got 1\n"

    def test_document_without_candidates_exits_2(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"doc_id": "empty", "mentions": []}))
        result = runner.invoke(
            main, ["kfunction", "--input", str(path), "--output", str(tmp_path / "kf.csv")]
        )
        assert result.exit_code == 2
        assert result.output == f"error: {path}: document 'empty' has no candidates\n"

    @pytest.mark.parametrize("delta_d, upper_bound", [(100.0, None), (5.0, 3e6)])
    def test_streams_the_pipeline_curve_past_one_row_block(self, runner, tmp_path, delta_d, upper_bound):
        # the curve of the composed public stages, written without a stored
        # distance vector: with blocks of 16 entries, 48 points stream
        doc = synth_generate(SynthSpec(n_docs=1, mentions_per_doc=8, decoys_per_mention=(5, 5), seed=5))[0]
        locations = [p.location for p in to_point_cloud(doc).points]
        distances = pairwise_distances(locations, upper_bound=upper_bound)
        want = kfunction_to_csv(with_cluster_distance(compute_k_function(distances, len(locations), delta_d)))
        path, out = tmp_path / "doc.json", tmp_path / "kf.csv"
        path.write_text(document_to_json(doc))
        args = ["kfunction", "--input", str(path), "--output", str(out), "--delta-d", str(delta_d)]
        if upper_bound is not None:
            args += ["--upper-bound", str(upper_bound)]
        stored = AssertionError("a stored distance vector")
        with small_blocks(), mock.patch.object(geo, "condensed_distances", side_effect=stored):
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == want.encode()

    def test_writes_the_csv_a_block_of_samples_at_a_time(self, runner, tmp_path):
        # the same bytes as kfunction_to_csv, with a curve of many blocks
        doc = synth_generate(SynthSpec(n_docs=1, mentions_per_doc=8, decoys_per_mention=(5, 5), seed=5))[0]
        kf = densityk_pipeline(doc, 100.0).diagnostics
        want = kfunction_to_csv(kf)
        path, out = tmp_path / "doc.json", tmp_path / "kf.csv"
        path.write_text(document_to_json(doc))
        with mock.patch.object(export, "_CSV_BLOCK", 3):
            assert len(list(export._kfunction_csv_pieces(kf))) > 4
            result = runner.invoke(main, ["kfunction", "--input", str(path), "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == want.encode()


class TestClustersCommand:
    def test_geojson_output(self, runner, doc_path, tmp_path):
        out = tmp_path / "clusters.geojson"
        result = runner.invoke(
            main, ["clusters", "--input", str(doc_path), "--output", str(out)]
        )
        assert result.exit_code == 0
        geo = json.loads(out.read_text())
        assert geo["type"] == "FeatureCollection"
        assert len(geo["features"]) == 6
        rank1 = [
            f["properties"]["entry_id"]
            for f in geo["features"]
            if f["properties"]["cluster_rank"] == 1
        ]
        assert sorted(rank1) == ["pl0_e0", "pl1_e0", "pl2_e0"]


class TestSynthCommand:
    def test_writes_corpus(self, runner, tmp_path):
        out = tmp_path / "synth"
        result = runner.invoke(
            main,
            ["synth", "--output", str(out), "--n-docs", "2", "--mentions", "2",
             "--decoys-min", "2", "--decoys-max", "3", "--seed", "5"],
        )
        assert result.exit_code == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == ["doc0000.json", "doc0001.json"]

    def test_seed_reproducibility(self, runner, tmp_path):
        args = ["synth", "--n-docs", "2", "--mentions", "2",
                "--decoys-min", "2", "--decoys-max", "3", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--output", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--output", str(b)]).exit_code == 0
        for name in ("doc0000.json", "doc0001.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_decoys_that_cannot_be_placed_exit_2(self, runner, tmp_path):
        # no three points lie 15,000 km apart pairwise, so not every decoy finds a place
        args = ["--n-docs", "1", "--mentions", "1", "--decoys-min", "3", "--decoys-max", "3", "--decoy-separation", "1.5e7"]
        with mock.patch("densityk.synth.MAX_REJECTION_ATTEMPTS", 5):
            result = runner.invoke(main, ["synth", "--output", str(tmp_path / "x"), *args])
        assert result.exit_code == 2
        assert result.output == "error: doc0000/place_0: no admissible decoy in 5 attempts\n"
        assert not (tmp_path / "x").exists()

    def test_bad_decoy_range_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["synth", "--output", str(tmp_path / "x"), "--decoys-min", "5", "--decoys-max", "2"],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--n-docs", "-1"],
            ["--mentions", "0"],
            ["--context-radius", "-5"],
            ["--seed", "-5"],  # numpy's generator takes no negative seed
            ["--decoy-distance", "2.1e7"],  # no point lies 21,000 km from the context
            # no two points lie 21,000 km apart: refused before any decoy is drawn
            ["--n-docs", "1", "--mentions", "1", "--decoys-min", "2", "--decoys-max", "2", "--decoy-separation", "2.1e7"],
        ],
        ids=" ".join,
    )
    def test_bad_spec_exits_1_with_one_error_line(self, runner, tmp_path, args):
        result = runner.invoke(main, ["synth", "--output", str(tmp_path / "x"), *args])
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert result.output.count("\n") == 1
        assert not (tmp_path / "x").exists()
