import csv
import json
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minplus import hexagon_topology, topology_text
from minplus.cli import RunConfig, execute_run, main
from minplus.scheduler import read_trace


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAreasCommand:
    def test_hexagon_areas(self, capsys):
        assert main(["areas", "--scenario", "hexagon"]) == 0
        out = capsys.readouterr().out
        assert "strictly_near  [3, 4]" in out
        assert "byzantine      [5]" in out

    def test_topology_file_with_byz_flag(self, tmp_path, capsys):
        topo_file = tmp_path / "path.topo"
        topo_file.write_text("5 0\n0 1\n1 2\n2 3\n3 4\n", encoding="utf-8")
        assert main(["areas", "--topology", str(topo_file), "--byz", "4"]) == 0
        out = capsys.readouterr().out
        assert "frontier       [2]" in out

    def test_export_topology(self, tmp_path):
        out = tmp_path / "hex.topo"
        main(["areas", "--scenario", "hexagon", "--export-topology", str(out)])
        assert out.read_text().startswith("6 0\n0 1\n0 2\n")
        assert "byz 5" in out.read_text()

    @pytest.mark.parametrize("byz", ["byz2 1\n", "byz 1\nbyz 2\n"])
    def test_topology_file_with_a_malformed_byz_line(self, tmp_path, capsys, byz):
        topo_file = tmp_path / "path.topo"
        topo_file.write_text("3 0\n0 1\n1 2\n" + byz, encoding="utf-8")
        assert main(["areas", "--topology", str(topo_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_needs_exactly_one_source(self):
        assert main(["areas"]) == 2
        assert main(["areas", "--scenario", "hexagon", "--topology", "x"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace", "T"],
            ["--dot", "D"],
            ["--check-bounds"],
            ["--adversary", "oscillator:2"],
            ["--max-steps", "5"],
            ["--init", "zero"],
            ["--seed", "1"],
        ],
    )
    def test_run_only_flags_are_usage_errors(self, tmp_path, monkeypatch, capsys, flags):
        # Each used to be accepted, ignored and exit 0, writing no file.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["areas", "--scenario", "path n=4 byz=3", *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_only_config_keys_are_errors(self, tmp_path, monkeypatch, capsys):
        # The config file used to print the areas, exit 0 and write no trace.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "path n=4 byz=3",
                    "trace": "T.trace",
                    "max_steps": 5,
                    "check_bounds": True,
                }
            ),
            encoding="utf-8",
        )
        assert main(["areas", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "areas does not read run-config keys: ['check_bounds', 'max_steps', 'trace']" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_topology_config_keys_are_read(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.topo"
        cfg.write_text(
            json.dumps({"scenario": "path n=4", "byz": [3], "export_topology": str(out)}),
            encoding="utf-8",
        )
        assert main(["areas", "--config", str(cfg)]) == 0
        assert "byzantine      [3]" in capsys.readouterr().out
        assert out.exists()


class TestRunCommand:
    def test_fault_free_path_dot_is_the_chain(self, tmp_path):
        dot = tmp_path / "tree.dot"
        code = main(
            [
                "run",
                "--scenario",
                "path n=6",
                "--dot",
                str(dot),
            ]
        )
        assert code == 0
        text = dot.read_text()
        for v in range(1, 6):
            assert f"n{v} -> n{v - 1};" in text

    def test_same_config_twice_gives_identical_bytes(self, tmp_path):
        outputs = []
        for attempt in ("a", "b"):
            trace = tmp_path / f"{attempt}.trace"
            metrics = tmp_path / f"{attempt}.csv"
            code = main(
                [
                    "run",
                    "--scenario",
                    "hexagon",
                    "--adversary",
                    "oscillator:1",
                    "--daemon",
                    "distributed",
                    "--fairness",
                    "random",
                    "--seed",
                    "1",
                    "--max-steps",
                    "400",
                    "--trace",
                    str(trace),
                    "--metrics",
                    str(metrics),
                ]
            )
            assert code == 0
            outputs.append((trace.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_check_bounds_on_the_hexagon(self, tmp_path):
        metrics = tmp_path / "m.csv"
        code = main(
            [
                "run",
                "--scenario",
                "hexagon",
                "--adversary",
                "oscillator:1",
                "--fairness",
                "random",
                "--seed",
                "1",
                "--check-bounds",
                "--check-containment",
                "--check-closure",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        (row,) = read_rows(metrics)
        assert int(row["disruptions"]) <= 12  # 2m with m = 6
        assert row["error"] == ""

    def test_failing_check_fails_the_run(self):
        code = main(
            [
                "run",
                "--scenario",
                "hexagon",
                "--adversary",
                "oscillator:1",
                "--max-steps",
                "0",
                "--check-containment",
            ]
        )
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"scenario": "path n=4", "seed": 1, "quiescent": True}),
            encoding="utf-8",
        )
        trace_a = tmp_path / "a.trace"
        trace_b = tmp_path / "b.trace"
        assert main(["run", "--config", str(cfg), "--trace", str(trace_a)]) == 0
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(cfg),
                    "--seed",
                    "2",
                    "--fairness",
                    "random",
                    "--trace",
                    str(trace_b),
                ]
            )
            == 0
        )
        assert b'"seed": 1' in trace_a.read_bytes()
        assert b'"seed": 2' in trace_b.read_bytes()

    def test_zero_start(self, tmp_path):
        trace = tmp_path / "zero.trace"
        args = ["run", "--scenario", "path n=4 byz=3", "--init", "zero"]
        assert main([*args, "--trace", str(trace)]) == 0
        assert set(read_trace(trace).configs[0]) == {(None, 0)}

    def test_a_random_start_is_a_function_of_the_seed(self, tmp_path):
        traces = []
        for name, seed in [("a", "3"), ("b", "3"), ("c", "4")]:
            trace = tmp_path / f"{name}.trace"
            args = ["run", "--scenario", "path n=6 byz=5", "--init", "random", "--seed", seed]
            assert main([*args, "--trace", str(trace)]) == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        a, c = (read_trace(tmp_path / f"{name}.trace").configs[0] for name in "ac")
        assert a != c

    def test_export_topology(self, tmp_path):
        out = tmp_path / "hex.topo"
        assert main(["run", "--scenario", "hexagon", "--export-topology", str(out)]) == 0
        assert out.read_bytes() == topology_text(*hexagon_topology()).encode()

    def test_more_byzantine_than_non_root_processes_is_malformed(self, capsys):
        assert main(["run", "--scenario", "path n=3 byz_count=3"]) == 2
        assert "more Byzantine processes than non-root processes" in capsys.readouterr().err

    def test_init_from_file(self, tmp_path):
        init = tmp_path / "init.cfg"
        init.write_text("0 -1 0\n1 0 1\n2 1 2\n3 2 3\n", encoding="utf-8")
        code = main(
            ["run", "--scenario", "path n=4", "--init", str(init)]
        )
        assert code == 0

    def test_each_violation_prints_once(self, capsys):
        # Both flags select "never_contained"; it is one record, one line.
        code = main(
            [
                "run",
                "--scenario",
                "path n=4 byz=3",
                "--max-steps",
                "0",
                "--check-containment",
                "--check-bounds",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        fails = [line for line in out if line.startswith("FAIL")]
        assert fails == ["FAIL containment never reached"]

    def test_byz_option_wants_canonical_integers(self, capsys):
        # Every integer flag reads integers as --byz does: --seed and
        # --max-steps used to run "0_7" as 7 and "+05" as 5, and exhaustive
        # to read " 2" as 2 and "01" as 1.
        for argv in (
            ["run", "--scenario", "path n=4", "--byz", "03"],
            ["run", "--scenario", "path n=4 byz=3", "--seed", "0_7"],
            ["run", "--scenario", "path n=4 byz=3", "--max-steps", "+05"],
            ["exhaustive", "--n-max", " 2"],
            ["exhaustive", "--f-max", "01"],
            ["exhaustive", "--seed", "0_1"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: integer {argv[-1]!r} not in canonical form\n"

    def test_an_adversary_argument_the_kind_does_not_take_is_malformed(self, capsys):
        # It used to run the silent adversary and exit 0.
        assert main(["run", "--scenario", "path n=4", "--adversary", "silent:5"]) == 2
        assert "takes no argument, got '5'" in capsys.readouterr().err

    def test_edge_probability_wants_the_form_repr_writes(self, capsys):
        # It used to run as p=0.3 and exit 0.
        assert main(["run", "--scenario", "random n=5 p=0.30 seed=1"]) == 2
        assert "not in canonical form" in capsys.readouterr().err

    def test_rejects_unknown_config_keys(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"scenario": "path n=4", "bogus": 1}', encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2


# Run-config values of the wrong JSON type.
WRONG_TYPES = [
    {"scenario": "path n=4", "max_steps": "x"},
    {"scenario": "path n=4", "byz": 3},
    {"scenario": 5},
    {"scenario": "path n=4", "seed": "1"},
    {"scenario": "path n=4", "check_bounds": "yes"},
]
WRONG_TYPE_IDS = ["max_steps-str", "byz-int", "scenario-int", "seed-str", "check-str"]


class TestRunConfigTypes:
    @pytest.mark.parametrize("bad", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_run_config_file_exits_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error: run-config " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_sweep_row_exits_2(self, tmp_path, bad):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([bad]), encoding="utf-8")
        out = tmp_path / "metrics.csv"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
        assert read_rows(out)[0]["error"].startswith("ValueError: run-config ")

    def test_byz_list_becomes_a_tuple(self):
        rc = RunConfig.from_dict({"scenario": "path n=4", "byz": [3]})
        assert rc.byz == (3,)

    @given(
        st.dictionaries(
            st.sampled_from(sorted(RunConfig.__dataclass_fields__) + ["quiescent"]),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers(-3, 3)
                | st.floats(allow_nan=False)
                | st.text("ab1 ", max_size=4),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
                max_leaves=5,
            ),
        )
    )
    def test_any_json_object_gives_a_config_or_a_value_error(self, d):
        try:
            rc = RunConfig.from_dict(d)
        except ValueError:
            return
        assert isinstance(rc, RunConfig)
        assert rc.byz is None or all(type(b) is int for b in rc.byz)
        assert type(rc.seed) is int and type(rc.check_bounds) is bool


class TestSweepCommand:
    def grid(self, tmp_path, entries):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return str(path)

    def test_rows_are_merged_and_sorted(self, tmp_path):
        grid = self.grid(
            tmp_path,
            [
                {"scenario": "path n=5 byz=4", "adversary": "oscillator:1", "seed": s}
                for s in (3, 1, 2)
            ]
            + [{"scenario": "hexagon", "adversary": "oscillator:1", "seed": 1}],
        )
        out = tmp_path / "metrics.csv"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [(r["scenario"], r["seed"]) for r in rows] == sorted(
            (r["scenario"], r["seed"]) for r in rows
        )
        assert all(r["error"] == "" for r in rows)
        assert all(int(r["disruptions"]) <= 2 * int(r["m"]) for r in rows)

    def test_failures_become_error_rows(self, tmp_path):
        grid = self.grid(
            tmp_path,
            [
                {"scenario": "path n=4", "seed": 1, "quiescent": True},
                {"scenario": "random n=5 p=0.0 seed=1", "seed": 1},
            ],
        )
        out = tmp_path / "metrics.csv"
        # A scenario that cannot be generated is malformed input.
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 2
        rows = read_rows(out)
        assert len(rows) == 2
        errors = [r for r in rows if r["error"]]
        assert len(errors) == 1 and "GenerationError" in errors[0]["error"]

    # Never contained within a zero step budget, so its check fails.
    FAILS_CHECK = {"scenario": "path n=4 byz=3", "max_steps": 0, "check_containment": True}

    @pytest.mark.parametrize(
        "bad",
        [{"scenario": "path n=4", "max_steps": -5}, 5],
        ids=["negative-budget", "not-an-object"],
    )
    def test_malformed_row_exits_2(self, tmp_path, bad):
        grid = self.grid(tmp_path, [bad, self.FAILS_CHECK])
        out = tmp_path / "metrics.csv"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 2
        errors = [r["error"] for r in read_rows(out)]
        assert len(errors) == 2 and any(e.startswith("ValueError: ") for e in errors)

    @pytest.mark.parametrize(
        "bad",
        [
            {"topology": "missing"},
            {"scenario": "path n=4 byz=3", "init": "missing"},
            {"scenario": "path n=4 byz=3", "adversary": "scripted:missing"},
        ],
        ids=["topology", "init", "script"],
    )
    def test_a_missing_file_is_an_error_row(self, tmp_path, monkeypatch, bad):
        # The missing file used to end the sweep with no CSV at all.
        monkeypatch.chdir(tmp_path)
        grid = self.grid(tmp_path, [{"scenario": "path n=4 byz=3"}, bad])
        out = tmp_path / "metrics.csv"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 2
        errors = [r["error"] for r in read_rows(out)]
        assert len(errors) == 2 and errors.count("") == 1
        assert any(e.startswith("FileNotFoundError: ") for e in errors)

    def test_failed_checks_alone_exit_1(self, tmp_path):
        grid = self.grid(tmp_path, [self.FAILS_CHECK])
        out = tmp_path / "metrics.csv"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 1
        assert read_rows(out)[0]["error"] == "containment never reached"

    def test_empty_grid_is_a_usage_error(self, tmp_path):
        grid = self.grid(tmp_path, [])
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2


class TestReplayCommand:
    def test_round_trip_ok(self, tmp_path, capsys):
        trace = tmp_path / "r.trace"
        main(
            [
                "run",
                "--scenario",
                "line c=1",
                "--adversary",
                "fake_root",
                "--trace",
                str(trace),
            ]
        )
        assert main(["replay", "--trace", str(trace)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_legacy_quiescent_key_in_the_header_loads(self, tmp_path, capsys):
        # Traces written while runs took a "quiescent" switch carry it in
        # the header's config; they still load and replay.
        trace = tmp_path / "old.trace"
        main(["run", "--scenario", "path n=5", "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        header = json.loads(lines[1])
        header["config"]["quiescent"] = False
        lines[1] = json.dumps(header, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_trace(trace).meta_extra["quiescent"] is False
        assert main(["replay", "--trace", str(trace)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_tampered_trace_is_caught(self, tmp_path, capsys):
        trace = tmp_path / "r.trace"
        main(
            [
                "run",
                "--scenario",
                "path n=5",
                "--trace",
                str(trace),
            ]
        )
        lines = trace.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("step "))
        # bump the level inside the first chg entry
        head, chg = lines[idx].rsplit("chg=", 1)
        entries = chg.split(",")
        v, p, level = entries[0].split(":")
        entries[0] = f"{v}:{p}:{int(level) + 1}"
        lines[idx] = head + "chg=" + ",".join(entries)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 1
        assert "mismatch at step" in capsys.readouterr().out


class TestExitCodes:
    """0 means ok, 1 means a check failed, 2 means the input was malformed."""

    def test_header_only_trace(self, tmp_path, capsys):
        trace = tmp_path / "short.trace"
        trace.write_text("minplus-trace 1\n", encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_script_writing_to_a_correct_process(self, tmp_path, capsys):
        script = tmp_path / "rogue.script"
        script.write_text("1 1 -1 0\n", encoding="utf-8")
        code = main(
            [
                "run",
                "--scenario",
                "path n=4 byz=3",
                "--adversary",
                f"scripted:{script}",
                "--max-steps",
                "10",
            ]
        )
        assert code == 2
        assert "non-Byzantine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, error",
        [
            # No run asks about step 0 or below, so these writes were dropped.
            ("0 3 -1 0\n-2 3 -1 0\n", "script step below 1, which no run reaches: '0 3 -1 0'"),
            # The later write used to win: the trace had byz=3:2:9.
            ("1 3 -1 0\n1 3 2 9\n", "script writes process 3 twice at step 1: '1 3 2 9'"),
        ],
        ids=["step-below-1", "same-step-twice"],
    )
    def test_script_write_no_run_would_make(self, tmp_path, capsys, text, error):
        script = tmp_path / "lost.script"
        script.write_text(text, encoding="utf-8")
        code = main(["run", "--scenario", "path n=4 byz=3", "--adversary", f"scripted:{script}"])
        assert code == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["areas", "--topology", "TOPO"],
            ["areas", "--scenario", "path n=4", "--byz", "3,3"],
            ["run", "--scenario", "path n=4 byz=3,3"],
        ],
        ids=["topology-file", "byz-flag", "scenario"],
    )
    def test_byzantine_id_given_twice(self, tmp_path, capsys, args):
        # Each used to run with byzantine [3].
        topo_file = tmp_path / "path.topo"
        topo_file.write_text("4 0\n0 1\n1 2\n2 3\nbyz 3 3\n", encoding="utf-8")
        assert main([str(topo_file) if a == "TOPO" else a for a in args]) == 2
        assert "Byzantine process 3 given twice" in capsys.readouterr().err

    def test_trace_activating_a_disabled_process_is_a_failed_check(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "r.trace"
        main(["run", "--scenario", "path n=5", "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("step "))
        # The root is settled in the corrupted start, so it is not enabled.
        head, tail = lines[idx].split(" act=", 1)
        lines[idx] = f"{head} act=0,{tail}"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 1
        assert "mismatch at step 1" in capsys.readouterr().out

    def test_trace_with_an_edited_topology(self, tmp_path, capsys):
        trace = tmp_path / "r.trace"
        main(["run", "--scenario", "path n=5", "--trace", str(trace)])
        text = trace.read_text().replace("\n2 3\n", "\n1 3\n", 1)
        trace.write_text(text, encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "topology_sha256" in capsys.readouterr().err

    @staticmethod
    def oscillator_trace(tmp_path, step, old, new):
        """A six-step trace on ``path n=4 byz=3`` with ``old`` replaced by
        ``new`` in the line of the given step."""
        trace = tmp_path / "o.trace"
        main(
            [
                "run",
                "--scenario",
                "path n=4 byz=3",
                "--adversary",
                "oscillator:1",
                "--max-steps",
                "6",
                "--trace",
                str(trace),
            ]
        )
        lines = trace.read_text().splitlines()
        idx = lines.index(next(l for l in lines if l.startswith(f"step {step} ")))
        assert old in lines[idx]
        lines[idx] = lines[idx].replace(old, new, 1)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return trace

    @pytest.mark.parametrize(
        "step, old, new",
        [
            (2, "chg=1:0:1", "chg=-3:0:1"),
            (2, "chg=1:0:1", "chg=17:0:1"),
            (2, "byz=3:2:8", "byz=4:2:8"),
            (2, "act=1", "act=-1"),
            (1, "act=2", "act=2,4"),
        ],
    )
    def test_trace_with_a_process_id_out_of_range(self, tmp_path, capsys, step, old, new):
        trace = self.oscillator_trace(tmp_path, step, old, new)
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "out of range 0..3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, old, new",
        [
            (2, "byz=3:2:8", "byz=3:2:-8"),
            (1, "chg=2:3:1", "chg=2:3:-1"),
            (2, "byz=3:2:8", "byz=3:2:-1"),
        ],
    )
    def test_trace_with_a_negative_level(self, tmp_path, capsys, step, old, new):
        trace = self.oscillator_trace(tmp_path, step, old, new)
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "negative level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, old, new",
        [
            (1, "act=2", "act=+2"),
            (1, "act=2", "act=02"),
            (1, "act=2", "act=2_0"),
            (1, "act=2", "act=\t2"),
            (2, "byz=3:2:8", "byz=+3:2:8"),
            (1, "chg=2:3:1", "chg=2:03:1"),
            (1, "chg=2:3:1", "chg=2:3:+1"),
            (2, "byz=3:2:8", "byz=3:2:0_8"),
            (3, "byz=3:-1:0", "byz=3:-01:0"),
            (1, "chg=2:3:1", "chg=2:-01:1"),
            (2, "byz=3:2:8", "byz=3:2:+1"),
        ],
    )
    def test_trace_with_an_integer_not_in_canonical_form(
        self, tmp_path, capsys, step, old, new
    ):
        trace = self.oscillator_trace(tmp_path, step, old, new)
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "not in canonical form" in capsys.readouterr().err

    def test_trace_with_a_space_before_an_id(self, tmp_path, capsys):
        trace = self.oscillator_trace(tmp_path, 1, "act=2", "act= 2")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "malformed trace line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, old, new",
        [
            (1, "chg=2:3:1", "chg=2:-5:1"),
            (2, "byz=3:2:8", "byz=3:-2:8"),
            (2, "byz=3:2:8", "byz=3:-5:8"),
        ],
    )
    def test_trace_with_a_parent_below_minus_one(self, tmp_path, capsys, step, old, new):
        trace = self.oscillator_trace(tmp_path, step, old, new)
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "parent below -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, old, new, error",
        [
            (2, "chg=1:0:1,3:2:8", "chg=3:2:8,1:0:1", "out of order"),
            (1, "chg=2:3:1", "chg=1:0:4,2:3:1", "does not change"),
        ],
    )
    def test_trace_with_a_field_trace_text_never_writes(
        self, tmp_path, capsys, step, old, new, error
    ):
        trace = self.oscillator_trace(tmp_path, step, old, new)
        assert main(["replay", "--trace", str(trace)]) == 2
        assert error in capsys.readouterr().err

    def test_trace_with_steps_out_of_sequence(self, tmp_path, capsys):
        trace = self.oscillator_trace(tmp_path, 1, "step 1 ", "step 99 ")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "expected step 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("\n2 3\n", "\n02 3\n", "not in canonical form"),
            ("\n1 0 4\n", "\n1 0 04\n", "not in canonical form"),
            ("\n1 0 4\n", "\n1 -5 4\n", "parent below -1"),
            ("\n0 -1 0\n", "\n0 2 0\n", "parent is not a neighbor"),
            ('"seed": 0', '"seed":0', "not as trace_text writes it"),
            ("topology-begin\n", "topology-begin\n# a comment\n", "not as trace_text writes it"),
        ],
    )
    def test_trace_head_trace_text_never_writes(self, tmp_path, capsys, old, new, error):
        # Each edit used to load and re-encode to other bytes.
        trace = self.oscillator_trace(tmp_path, 1, "step 1 ", "step 1 ")
        text = trace.read_text()
        assert old in text
        trace.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "x"),
            ("seed", 1.5),
            ("seed", True),
            ("adversary", 5),
            ("config", [1]),
        ],
    )
    def test_trace_header_value_of_the_wrong_type(self, tmp_path, capsys, field, value):
        # JSON writes each back as it read it, so each edit used to load,
        # and replay said "ok".
        trace = self.oscillator_trace(tmp_path, 1, "step 1 ", "step 1 ")
        lines = trace.read_text().splitlines()
        header = json.loads(lines[1])
        header[field] = value
        lines[1] = json.dumps(header, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert f"trace header {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script", [[["a"], [1.5]], [[4]], [[1]]], ids=["not-ids", "out-of-range", "ids"]
    )
    def test_trace_header_with_a_script_daemon(self, tmp_path, capsys, script):
        # A schedule is no daemon, so a header naming one does not load.
        trace = self.oscillator_trace(tmp_path, 1, "step 1 ", "step 1 ")
        lines = trace.read_text().splitlines()
        header = json.loads(lines[1])
        header["daemon"] = {"fairness": "script", "kind": "distributed", "script": script}
        lines[1] = json.dumps(header, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--trace", str(trace)]) == 2
        assert "unknown fairness policy 'script'" in capsys.readouterr().err

    def test_negative_step_budget(self, capsys):
        code = main(["run", "--scenario", "path n=4", "--max-steps", "-5"])
        assert code == 2
        assert "max_steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--n-max", "0"], "n_max must be at least 1, got 0"),
            (["--f-max", "-1"], "f_max must be nonnegative, got -1"),
        ],
    )
    def test_exhaustive_sweep_that_would_certify_nothing(self, capsys, flags, error):
        # Each used to print "cases=0 runs=0 failures=0" and exit 0.
        assert main(["exhaustive", *flags]) == 2
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""


class TestExhaustiveCommand:
    def test_single_node_world_trivially_passes(self, capsys):
        assert main(["exhaustive", "--n-max", "1", "--f-max", "1"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_two_nodes(self):
        assert main(["exhaustive", "--n-max", "2", "--f-max", "1"]) == 0

    def test_no_faults_is_the_fault_free_sweep(self, capsys):
        # 1 + 2 + 6 root placements of the n <= 3 catalog, one silent run
        # from each of three initial states.
        assert main(["exhaustive", "--n-max", "3", "--f-max", "0"]) == 0
        assert "cases=9 runs=27 failures=0" in capsys.readouterr().out


class TestExecuteRun:
    def test_run_config_requires_a_source(self):
        with pytest.raises(ValueError):
            execute_run(RunConfig())

    def test_resolved_config_is_stamped_into_the_trace(self, tmp_path):
        trace = tmp_path / "t.trace"
        rc = RunConfig(
            scenario="path n=4", seed=5, trace=str(trace)
        )
        execute_run(rc)
        header = json.loads(trace.read_text().splitlines()[1])
        assert header["config"]["scenario"] == "path n=4"
        assert header["config"]["seed"] == 5
