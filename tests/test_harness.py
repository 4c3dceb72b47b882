"""Config parsing, report plumbing, and the experiment matrix."""

import inspect
import json
import math
import platform
import time
from pathlib import Path

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covlab
from covlab import brackets as br
from covlab import darboux as dx
from covlab import harness
from covlab import schrodinger as schr
from covlab.harness import (
    CSV_HEADER,
    EVOLUTIONS,
    EXPERIMENTS,
    LEDGERS,
    THEORIES,
    ExperimentConfig,
    Report,
    ReportRow,
    dump_config,
    emit_report,
    format_float,
    load_config,
    random_state,
    run_experiment,
    suite_configs,
)
from covlab.lattice import Lattice, ModeVector, ScalarField, VectorField, dft, idft, nan_max
from mutations import recompiled


def line_of(fn, text):
    """Line number in fn's file of the first source line of fn holding text."""
    lines, first = inspect.getsourcelines(fn)
    return first + next(i for i, line in enumerate(lines) if text in line)


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\nexperiment: evolve\n")
        cfg = load_config(path)
        assert cfg.theory == "kg"
        assert cfg.experiment == "evolve"
        assert cfg.dim == 1
        assert cfg.n == 64
        assert cfg.length == pytest.approx(2 * math.pi)
        assert cfg.evolution == "spectral"
        assert cfg.seed == 42
        assert cfg.sign_ledger == "resolved"

    def test_comments_and_blank_lines(self, tmp_path):
        text = (
            "# full line comment\n"
            "\n"
            "theory: schrodinger   # trailing comment\n"
            "experiment: omega-check\n"
            "n: 32\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.theory == "schrodinger"
        assert cfg.n == 32

    def test_times_list(self, tmp_path):
        text = "theory: kg\nexperiment: omega-check\ntimes: 0.5, 1.0,2.5\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.times == (0.5, 1.0, 2.5)

    def test_dashed_keys_normalized(self, tmp_path):
        text = "theory: kg\nexperiment: evolve\nsign-ledger: paper-printed\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.sign_ledger == "paper-printed"

    def test_byte_order_mark_and_crlf(self, tmp_path):
        # editors on Windows save UTF-8 with a byte-order mark and CRLF lines
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbftheory: kg\r\nexperiment: evolve\r\nn: 16\r\n")
        cfg = load_config(str(path))
        assert (cfg.theory, cfg.experiment, cfg.n) == ("kg", "evolve", 16)

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            theory="schrodinger",
            experiment="omega-check",
            mass=0.3,
            times=(0.0, 1.5),
            seed=7,
        )
        path = write_config(tmp_path, dump_config(cfg))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("out", ["res#1.csv", "a\nb", "a\rb", " padded ", "tab\t"])
    def test_dump_refuses_what_load_would_change(self, out):
        # load_config cuts a comment at '#', splits lines and strips
        # values, so these would reload as another value or not at all
        cfg = ExperimentConfig(theory="kg", experiment="evolve", out=out)
        with pytest.raises(ValueError, match="'out'"):
            dump_config(cfg)

    def test_out_path_round_trips(self, tmp_path):
        cfg = ExperimentConfig(theory="kg", experiment="evolve", out="runs/res 1.csv")
        assert load_config(write_config(tmp_path, dump_config(cfg))) == cfg

    def test_bad_n_names_the_field(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\nexperiment: evolve\nn: 63\n")
        with pytest.raises(ValueError, match="'n'"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\nexperiment: evolve\ncolor: red\n")
        with pytest.raises(ValueError, match="'color'"):
            load_config(path)

    def test_missing_required_field(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\n")
        with pytest.raises(ValueError, match="'experiment'"):
            load_config(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\nexperiment: evolve\nmass: heavy\n")
        with pytest.raises(ValueError, match="'mass'"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "theory kg\n")
        with pytest.raises(ValueError, match="expected 'key: value'"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_enum_validation(self):
        with pytest.raises(ValueError, match="'theory'"):
            ExperimentConfig(theory="dirac", experiment="evolve")
        with pytest.raises(ValueError, match="'evolution'"):
            ExperimentConfig(theory="kg", experiment="evolve", evolution="rk4")
        with pytest.raises(ValueError, match="'format'"):
            ExperimentConfig(theory="kg", experiment="evolve", format="xml")
        with pytest.raises(ValueError, match="'sign_ledger'"):
            ExperimentConfig(theory="kg", experiment="evolve", sign_ledger="folk")
        with pytest.raises(ValueError, match="'dim'"):
            ExperimentConfig(theory="kg", experiment="evolve", dim=4)

    def test_nan_mass_rejected(self, tmp_path):
        path = write_config(tmp_path, "theory: kg\nexperiment: evolve\nmass: nan\n")
        with pytest.raises(ValueError, match="'mass'"):
            load_config(path)

    @pytest.mark.parametrize(
        "field, value",
        [("length", math.inf), ("mass", -math.inf), ("dt", math.nan), ("times", (0.0, math.nan))],
    )
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}'"):
            ExperimentConfig(theory="schrodinger", experiment="omega-check", **{field: value})

    def test_oversized_section_rejected(self):
        # the dt/2 pass would transform 2001 slices of 64^3 sites, 5 floats each
        with pytest.raises(ValueError, match="'steps', 'n', 'dim'.*2001 slices x 262144 sites"):
            ExperimentConfig(theory="kg", experiment="action-residual", dim=3, n=64, steps=1000)

    # the largest steps whose dt/2 Euler-Lagrange pass, 2 steps + 1 slices of
    # n^dim sites with 2 + dim floats (kg) or 2 + 2 dim (schrodinger) each,
    # fits the 2**27 budget; steps + 1 is rejected
    @pytest.mark.parametrize(
        "theory,dim,n,steps",
        [
            ("kg", 1, 64, 349524),
            ("kg", 2, 64, 4095),
            ("kg", 3, 64, 50),
            ("schrodinger", 1, 64, 262143),
            ("schrodinger", 2, 64, 2730),
            ("schrodinger", 3, 64, 31),
        ],
    )
    def test_section_budget_limit_on_both_sides(self, theory, dim, n, steps):
        floats = 2 + dim if theory == "kg" else 2 + 2 * dim
        assert (2 * steps + 1) * n**dim * floats <= harness.SECTION_BUDGET_SITE_FLOATS
        assert (2 * steps + 3) * n**dim * floats > harness.SECTION_BUDGET_SITE_FLOATS
        ExperimentConfig(theory=theory, experiment="action-residual", dim=dim, n=n, steps=steps)
        with pytest.raises(ValueError, match="'steps', 'n', 'dim'"):
            ExperimentConfig(
                theory=theory, experiment="action-residual", dim=dim, n=n, steps=steps + 1
            )

    def test_section_guard_only_applies_to_action_residual(self):
        ExperimentConfig(theory="kg", experiment="evolve", dim=3, n=64, steps=1000)

    def test_shipped_configs_fit_the_section_budget(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert paths
        for path in paths:
            load_config(str(path))
        assert len(suite_configs()) == 12

    def test_tiny_stepped_dt_rejected_quickly(self, tmp_path):
        # 1e9 leapfrog steps on 64 sites: rejected on load instead of
        # running for hours
        path = write_config(
            tmp_path, "theory: kg\nexperiment: evolve\nevolution: stepped\ndt: 1e-9\n"
        )
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="invalid field 'dt'.*site-steps"):
            load_config(path)
        assert time.perf_counter() - t0 < 1.0

    def test_long_stepped_schrodinger_names_steps(self):
        with pytest.raises(ValueError, match="invalid field 'steps'.*site-steps"):
            ExperimentConfig(
                theory="schrodinger", experiment="evolve", evolution="stepped", steps=10**7
            )

    def test_subnormal_stepped_dt_rejected(self):
        with pytest.raises(ValueError, match="invalid field 'dt'"):
            ExperimentConfig(theory="kg", experiment="evolve", evolution="stepped", dt=5e-324)

    def test_stepped_guard_only_applies_to_stepped_evolve(self):
        for fields in (
            {"experiment": "evolve", "evolution": "spectral"},
            {"experiment": "omega-check", "evolution": "stepped"},
        ):
            ExperimentConfig(theory="kg", dt=1e-9, **fields)

    @pytest.mark.parametrize("seed", [-1, 2**128 - harness.SEED_OFFSET_MAX, 2**130])
    def test_out_of_range_seed_rejected(self, seed):
        # a run keys Philox streams with seed + offset, which must lie in
        # [0, 2**128), so such a config is rejected on load, field named
        with pytest.raises(ValueError, match="invalid field 'seed'"):
            ExperimentConfig(theory="kg", experiment="evolve", n=8, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 8.0), ("dim", 1.0), ("dim", True), ("steps", 2.5), ("seed", 1.5), ("n", "8")],
    )
    def test_non_integer_int_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"invalid field '{field}'.*integer required"):
            ExperimentConfig(theory="kg", experiment="action-residual", **{field: value})

    def test_numpy_integers_accepted(self):
        ExperimentConfig(
            theory="kg",
            experiment="evolve",
            dim=np.int64(2),
            n=np.int32(8),
            steps=np.uint8(3),
            seed=np.int64(7),
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("length", "2"),
            ("mass", None),
            ("dt", True),
            ("mass", 1 + 0j),
            ("times", 5.0),
            ("times", "0,1"),
            ("times", (0.0, "1")),
            ("times", (0.0, None)),
            ("times", (False, True)),
            ("times", np.array(1.0)),
        ],
    )
    def test_non_real_float_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"invalid field '{field}'.*real numbers? required"):
            ExperimentConfig(theory="kg", experiment="darboux-check", **{field: value})

    def test_ints_and_numpy_reals_accepted_in_float_fields(self):
        cfg = ExperimentConfig(
            theory="kg",
            experiment="darboux-check",
            length=np.float32(2.0),
            mass=1,
            dt=np.float64(1e-3),
            times=[0, np.float64(0.5), 1.5],
        )
        assert cfg.mass == 1 and list(cfg.times) == [0.0, 0.5, 1.5]
        ExperimentConfig(theory="kg", experiment="darboux-check", times=np.array([0.0, 1.0]))

    def test_numbers_are_stored_as_python_scalars(self):
        # a float32 length equals and hashes like its float64 widening, so
        # kept as given it built float32 wavenumbers into the lattice caches
        # the equal float64 config reads; a uint8 n overflowed n**dim
        cfg = ExperimentConfig(
            theory="kg",
            experiment="evolve",
            dim=np.int64(3),
            n=np.uint8(16),
            length=np.float32(2.0),
            mass=1,
            dt=np.float64(1e-3),
            seed=np.int64(7),
        )
        for name, kind in (("dim", int), ("n", int), ("seed", int), ("length", float),
                           ("mass", float), ("dt", float)):
            assert type(getattr(cfg, name)) is kind
        assert cfg.lattice.site_count == 4096 and type(cfg.lattice.length) is float

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("experiment", ["omega-check", "darboux-check"])
    def test_array_and_list_times_run_and_the_config_hashes(self, theory, experiment):
        # array times passed validation, then both experiments failed on
        # the truth value of an array; list times left the config unhashable
        want = ExperimentConfig(theory=theory, experiment=experiment, n=8, times=(0.0, 1.0, 2.0))
        rows = [(r.metric, r.value) for r in run_experiment(want).rows]
        for times in (np.array([0.0, 1.0, 2.0]), [0, np.float32(1.0), 2]):
            cfg = ExperimentConfig(theory=theory, experiment=experiment, n=8, times=times)
            assert cfg.times == (0.0, 1.0, 2.0) and all(type(t) is float for t in cfg.times)
            assert hash(cfg) == hash(want) and cfg == want
            rep = run_experiment(cfg)
            assert rep.errors == () and [(r.metric, r.value) for r in rep.rows] == rows

    @pytest.mark.parametrize("experiment", ["omega-check", "darboux-check"])
    @pytest.mark.parametrize("times", [(5.0,), (1.0, 1.0), (0.0, -0.0)])
    def test_times_need_two_distinct_values(self, experiment, times):
        # one time compares a slice with itself, so the spread reads 0
        # and the gate would pass on no comparison
        with pytest.raises(ValueError, match="invalid field 'times'"):
            ExperimentConfig(theory="kg", experiment=experiment, n=16, times=times)

    def test_times_rule_leaves_the_default_and_other_experiments(self):
        ExperimentConfig(theory="kg", experiment="omega-check", times=())
        ExperimentConfig(theory="kg", experiment="darboux-check", times=(0.0, 0.0, 1.0))
        ExperimentConfig(theory="kg", experiment="evolve", times=(5.0,))

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_darboux_check_evolves_to_every_time(self, theory, monkeypatch):
        # the invariance spread skipped the first time: with times (5.0,
        # 0.0) it compared only the evolution by 0, and the printed-ledger
        # control read rounding (9.1e-17) and failed
        cfg = ExperimentConfig(theory=theory, experiment="darboux-check", n=16, times=(5.0, 0.0))
        cls, reached = type(harness._theory(cfg)), []
        evolve = cls.evolve

        def spy(self, state, s, ledger="resolved"):
            reached.append((s, ledger))
            return evolve(self, state, s, ledger)

        monkeypatch.setattr(cls, "evolve", spy)
        rows = {r.metric: r for r in run_experiment(cfg).rows}
        assert (5.0, "resolved") in reached and (5.0, "paper-printed") in reached
        control = rows["darboux-invariance-printed-ledger-exceeds"]
        assert control.value > 1.0 and control.passed

    @pytest.mark.parametrize(
        "first, second",
        [("seed: 1", "seed: 2"), ("sign-ledger: resolved", "sign_ledger: resolved")],
    )
    def test_repeated_key_rejected(self, tmp_path, first, second):
        path = write_config(tmp_path, f"theory: kg\nexperiment: evolve\n{first}\n{second}\n")
        key = first.split(":")[0].replace("-", "_")
        with pytest.raises(ValueError, match=f"invalid field '{key}': given twice"):
            load_config(path)


class TestRandomState:
    CFG = ExperimentConfig(theory="kg", experiment="evolve")

    def test_same_seed_bit_identical(self):
        a = random_state(self.CFG)
        b = random_state(self.CFG)
        assert np.array_equal(a.phi.values, b.phi.values)
        assert np.array_equal(a.p.values, b.p.values)

    def test_seed_override_changes_data(self):
        a = random_state(self.CFG)
        b = random_state(self.CFG, seed=7)
        assert not np.array_equal(a.phi.values, b.phi.values)

    def test_band_limited_support(self):
        # the state is sampled in position space, so out-of-band modes
        # carry transform round-trip rounding rather than exact zeros
        st = random_state(self.CFG)
        coeff = dft(st.phi).coefficients
        m = np.fft.fftfreq(self.CFG.n, d=1.0 / self.CFG.n)
        outside = np.max(np.abs(coeff[np.abs(m) > self.CFG.n // 4]))
        assert outside <= 1e-13 * np.max(np.abs(coeff))

    def test_schrodinger_branch(self):
        cfg = ExperimentConfig(theory="schrodinger", experiment="evolve")
        st = random_state(cfg)
        assert hasattr(st, "phiR") and hasattr(st, "betaI")


class TestReportRows:
    def test_plain_metric_pass_semantics(self):
        row = ReportRow("e", "drift", value=1e-13, tolerance=1e-12, seconds=0.0)
        assert row.passed is True
        row = ReportRow("e", "drift", value=1e-11, tolerance=1e-12, seconds=0.0)
        assert row.passed is False

    def test_exceeds_metric_inverts_the_comparison(self):
        # negative controls report under "-exceeds" metrics: big is good
        row = ReportRow("e", "spread-exceeds", value=1.5, tolerance=1e-10, seconds=0.0)
        assert row.passed is True
        row = ReportRow("e", "spread-exceeds", value=0.0, tolerance=1e-10, seconds=0.0)
        assert row.passed is False

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gated_rows_do_not_pass(self, value):
        assert ReportRow("e", "drift", value=value, tolerance=1e-12, seconds=0.0).passed is False
        row = ReportRow("e", "spread-exceeds", value=value, tolerance=1e-10, seconds=0.0)
        assert row.passed is False
        cfg = ExperimentConfig(theory="kg", experiment="evolve")
        nan_row = ReportRow("e", "drift", value=math.nan, tolerance=1e-12, seconds=0.0)
        assert not Report(config=cfg, rows=(nan_row,)).all_pass
        info = ReportRow("e", "mismatch", value=value, tolerance=None, seconds=0.0)
        assert info.passed is None

    def test_informational_rows_do_not_gate(self):
        cfg = ExperimentConfig(theory="kg", experiment="evolve")
        info = ReportRow("e", "mismatch", value=44.7, tolerance=None, seconds=0.0)
        assert info.informational
        assert info.passed is None
        report = Report(config=cfg, rows=(info,))
        assert report.all_pass

    def test_errors_fail_the_report(self):
        cfg = ExperimentConfig(theory="kg", experiment="evolve")
        report = Report(config=cfg, rows=(), errors=("boom, with a comma",))
        assert not report.all_pass
        text = emit_report(report, None, "csv")
        assert "error: boom; with a comma" in text
        assert ",false," in text


class TestEmission:
    CFG = ExperimentConfig(theory="kg", experiment="evolve")

    def rows(self):
        return (
            ReportRow("evolve", "drift", value=math.pi * 1e-14, tolerance=1e-12, seconds=0.25),
            ReportRow("evolve", "mismatch", value=2.0, tolerance=None, seconds=0.0),
        )

    def test_csv_json_field_parity(self):
        report = Report(config=self.CFG, rows=self.rows(), wall_s=1.5)
        csv_text = emit_report(report, None, "csv")
        doc = json.loads(emit_report(report, None, "json"))
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        # the run block is JSON-only: the CSV does not see the wall time
        assert csv_text == emit_report(Report(config=self.CFG, rows=self.rows()), None, "csv")
        assert set(doc) == {"all_pass", "config", "errors", "rows", "run"}
        run = doc["run"]
        assert set(run) == {"covlab", "numpy", "python", "git_revision", "wall_s"}
        assert run["covlab"] == covlab.__version__
        assert run["numpy"] == np.__version__
        assert run["python"] == platform.python_version()
        assert run["wall_s"] == 1.5
        for line, jrow in zip(lines[1:], doc["rows"]):
            cells = line.split(",")
            assert cells[0] == jrow["experiment"]
            assert cells[1] == jrow["metric"]
            assert float(cells[2]) == jrow["value"]
        assert doc["rows"][1]["tolerance"] is None
        assert doc["rows"][1]["pass"] is None
        assert doc["all_pass"] is True

    def test_json_is_strict_with_non_finite_values(self):
        # RFC 8259 has no NaN or Infinity token: a non-finite float is
        # written as its CSV spelling in a string
        values = (math.nan, math.inf, -math.inf)
        rows = tuple(
            ReportRow("action-residual", f"m{i}", value=v, tolerance=0.8, seconds=0.0)
            for i, v in enumerate(values)
        )
        report = Report(config=self.CFG, rows=rows, wall_s=math.inf)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(emit_report(report, None, "json"), parse_constant=reject)
        assert [row["value"] for row in doc["rows"]] == ["nan", "inf", "-inf"]
        csv_values = [line.split(",")[2] for line in emit_report(report, None).splitlines()[1:]]
        assert csv_values == ["nan", "inf", "-inf"]
        for row, v in zip(doc["rows"], values):
            assert float(row["value"]) == v or (math.isnan(v) and math.isnan(float(row["value"])))
        assert doc["run"]["wall_s"] == "inf"
        with pytest.raises(ValueError):
            harness._json_text({"value": math.nan})

    def test_git_revision_from_the_checkout_files(self, tmp_path, monkeypatch):
        revision = harness._git_revision.__wrapped__
        package = tmp_path / "src" / "covlab"
        package.mkdir(parents=True)
        monkeypatch.setattr(harness, "__file__", str(package / "harness.py"))
        assert revision() is None
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n", encoding="utf-8"
        )
        assert revision() == "a" * 40
        (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n", encoding="utf-8")
        assert revision() == "b" * 40
        (git / "HEAD").write_text("c" * 40 + "\n", encoding="utf-8")
        assert revision() == "c" * 40

    def test_float_round_trip_precision(self):
        assert format_float(math.pi) == "3.1415926535897931"
        assert float(format_float(math.pi)) == math.pi

    def test_informational_cells_are_blank(self):
        report = Report(config=self.CFG, rows=self.rows())
        line = emit_report(report, None, "csv").strip().splitlines()[2]
        cells = line.split(",")
        assert cells[3] == "" and cells[4] == ""

    def test_empty_report_is_header_only(self):
        report = Report(config=self.CFG, rows=())
        assert emit_report(report, None, "csv") == CSV_HEADER + "\n"

    def test_emit_writes_the_file(self, tmp_path):
        report = Report(config=self.CFG, rows=self.rows())
        path = tmp_path / "out.csv"
        text = emit_report(report, str(path), "csv")
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_writes_and_returns_a_suite(self, tmp_path, fmt):
        # a suite's reports render as covlab suite prints them: each CSV
        # row led by its report's theory under one header, and the JSON
        # the list of the reports' documents
        schr = dataclasses.replace(self.CFG, theory="schrodinger")
        reports = [
            Report(config=self.CFG, rows=self.rows()),
            Report(config=schr, rows=self.rows(), errors=("boom, with a comma",)),
        ]
        path = tmp_path / f"suite.{fmt}"
        text = emit_report(reports, str(path), fmt)
        assert path.read_text(encoding="utf-8") == text
        if fmt == "csv":
            lines = [CSV_HEADER]
            for r in reports:
                lines += [f"{r.config.theory}/{ln}" for ln in emit_report(r, None).splitlines()[1:]]
            assert text == "\n".join(lines) + "\n"
            assert text.count("schrodinger/evolve,") == 3
        else:
            assert json.loads(text) == [json.loads(emit_report(r, None, "json")) for r in reports]

    def test_emit_rejects_unknown_format(self):
        report = Report(config=self.CFG, rows=())
        with pytest.raises(ValueError):
            emit_report(report, None, "xml")


def flip_first_gradient_term(table):
    """The table with the sign of its first gradient term flipped."""
    i = next(i for i, term in enumerate(table) if term[2] == "grad")
    c, a, op, b = table[i]
    return table[:i] + ((-c, a, op, b),) + table[i + 1:]


@pytest.mark.parametrize("theory", THEORIES)
def test_el_pairing_extrapolated_sees_a_wrong_sign(theory, monkeypatch):
    from covlab import kg, schrodinger

    cfg = next(
        c for c in suite_configs() if c.theory == theory and c.experiment == "action-residual"
    )
    rows = {r.metric: r for r in run_experiment(cfg).rows}
    assert rows["el-pairing-extrapolated"].value < harness.EL_EXTRAPOLATED_TOL
    module, name = (kg, "_kg_lagrangian") if theory == "kg" else (schrodinger, "_schr_lagrangian")
    table = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: flip_first_gradient_term(table(*args)))
    rows = {r.metric: r for r in run_experiment(cfg).rows}
    assert rows["el-pairing-extrapolated"].value > 1e-2
    assert rows["el-pairing-extrapolated"].passed is False


def fresh_residuals(cfg, levels):
    """el_residuals and ddw_residuals with a whole section built at every
    step and evaluated by the public whole-section functions, the
    reference for the streamed pass."""
    from covlab import kg, schrodinger

    el_state = harness._banded_state(cfg, cfg.seed, band=1)
    ddw_state = harness._banded_state(cfg, cfg.seed + 8, band=2)
    variation = harness._banded_state(cfg, cfg.seed + 7, band=1)
    # each window 2 intervals of cfg.dt at least, at every level
    el_window = max(2, cfg.steps if cfg.steps > 0 else 100)
    ddw_window = max(2, min(cfg.steps if cfg.steps > 0 else 100, harness.DDW_WINDOW_STEPS))
    el, ddw = [], []
    for j in range(levels):
        dt = cfg.dt / 2**j
        el_steps, ddw_steps = el_window * 2**j, ddw_window * 2**j
        if cfg.theory == "kg":
            sec = kg.kg_solution_section(el_state, dt, el_steps, cfg.mass)
            pairing = kg.kg_el_pairing(sec, variation)
            el.append(pairing / kg.kg_el_cancellation_scale(sec, variation))
            sec = kg.kg_solution_section(ddw_state, dt, ddw_steps, cfg.mass)
            ddw.append(kg.kg_dedonder_weyl_residual(sec))
        else:
            sec = schrodinger.schr_solution_section(el_state, dt, el_steps)
            pairing = schrodinger.schr_el_pairing(sec, variation)
            el.append(pairing / schrodinger.schr_el_cancellation_scale(sec, variation))
            sec = schrodinger.schr_solution_section(ddw_state, dt, ddw_steps)
            ddw.append(schrodinger.schr_dedonder_weyl_residual(sec))
    return el, ddw


@pytest.mark.parametrize(
    "dim,steps,levels",
    [(1, 1, 2), (1, 50, 3), (2, 1, 2), (2, 2, 2), (2, 50, 2), (3, 1, 2), (3, 2, 2), (3, 50, 2)],
)
@pytest.mark.parametrize("theory", THEORIES)
def test_ladder_matches_a_fresh_build_at_every_step(theory, dim, steps, levels):
    # at n=8 one chunk holds each pass; steps=1 clamps the window to 2
    # intervals of cfg.dt, so it runs as steps=2
    cfg = ExperimentConfig(
        theory=theory, experiment="action-residual", dim=dim, n=8, steps=steps, seed=5
    )
    got = harness.el_residuals(cfg, levels), harness.ddw_residuals(cfg, levels)
    assert got == fresh_residuals(cfg, levels)


# (steps, levels, fine nodes per chunk, at least 8 halos): chunk
# boundaries on odd and even nodes, with tails of 2 nodes and of 1 node,
# in two-level nests (101 and 97 fine nodes, halo 4) and three-level nests
# (197 and 129, halo 8); a clamped window (steps=1: 2 intervals of dt,
# as steps=2)
STREAM_CASES = [
    (50, 2, 33),  # 101 = 3 x 33 + 2
    (48, 2, 32),  # 97 = 3 x 32 + 1
    (49, 3, 65),  # 197 = 3 x 65 + 2
    (32, 3, 64),  # 129 = 2 x 64 + 1
    (1, 2, 16),
    (1, 3, 16),
    (2, 3, 64),
]


@pytest.mark.parametrize("steps,levels,rows", STREAM_CASES)
@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("theory", THEORIES)
def test_stream_matches_a_fresh_build_across_chunk_boundaries(
    theory, dim, steps, levels, rows, monkeypatch
):
    cfg = ExperimentConfig(
        theory=theory, experiment="action-residual", dim=dim, n=8, steps=steps, seed=5
    )
    monkeypatch.setattr(harness, "STREAM_SLICE_SITES", rows * cfg.lattice.site_count)
    name = "kg_solution_section" if theory == "kg" else "schr_solution_section"
    builder, builds = getattr(dx, name), []
    monkeypatch.setattr(dx, name, lambda *args: builds.append(args) or builder(*args))
    el = harness.el_residuals(cfg, levels)
    # one pass over the finest grid, in chunks of `rows` fine nodes
    count = max(2, steps) * 2 ** (levels - 1) + 1
    assert harness._el_steps(cfg, cfg.dt / 2 ** (levels - 1)) + 1 == count
    assert len(builds) == -(-count // rows)
    assert (el, harness.ddw_residuals(cfg, levels)) == fresh_residuals(cfg, levels)


def streamed_slices(counts, rows):
    """Slices a pass over each (fine nodes, halo) builds in chunks owning
    `rows` nodes: every node once, and each chunk's halos inside the grid."""
    total = 0
    for count, halo in counts:
        for g0 in range(0, count, rows):
            total += min(count, g0 + rows + halo) - max(0, g0 - halo)
    return total


# (steps, fine nodes per chunk, slices built): the EL pass over 2 steps + 1
# nodes at dt / 2 and the de Donder-Weyl pass over 2 min(steps, 200) + 1,
# each chunk with a halo of 4 nodes (two coarse nodes) on each side, cut
# at the ends of the grid: at 500 nodes per chunk the EL pass builds
# 2001 + 3 x 8 + (4 + 1), its last chunk holding node 2000 alone.  A chunk
# owns 8 halos at least, so 2 nodes per chunk build as 32 do.  At steps=1
# the window is clamped to 2 intervals of dt and builds as steps=2
@pytest.mark.parametrize(
    "steps,rows,slices",
    [
        (1000, 4096, 2001 + 401),
        (1000, 500, 2030 + 401),
        (1000, 64, 2698),
        (1000, 32, 2497 + 497),
        (1000, 2, 2497 + 497),
        (2, 4096, 5 + 5),
        (1, 4096, 5 + 5),
    ],
)
@pytest.mark.parametrize("theory", THEORIES)
def test_action_residual_builds_each_fine_node_once_plus_halos(
    theory, steps, rows, slices, monkeypatch
):
    name = "kg_solution_section" if theory == "kg" else "schr_solution_section"
    # the theory record calls the builder by its name in darboux
    builder = getattr(dx, name)
    calls = []

    def counted(state, dt, steps, *args, **kwargs):
        calls.append((dt, steps + 1))
        return builder(state, dt, steps, *args, **kwargs)

    monkeypatch.setattr(dx, name, counted)
    cfg = ExperimentConfig(theory=theory, experiment="action-residual", n=8, steps=steps)
    monkeypatch.setattr(harness, "STREAM_SLICE_SITES", rows * cfg.lattice.site_count)
    report = run_experiment(cfg)
    assert report.errors == ()
    assert sum(count for _, count in calls) == slices
    windows = max(2, steps), max(2, min(steps, harness.DDW_WINDOW_STEPS))
    counts = [(2 * window + 1, 4) for window in windows]
    assert streamed_slices(counts, max(rows, 8 * 4)) == slices
    # every chunk is built at the finer step
    assert {dt for dt, _ in calls} == {cfg.dt / 2}


class TestRunner:
    def test_matrix_shape_and_order(self):
        cfgs = suite_configs()
        assert len(cfgs) == 12
        assert [c.experiment for c in cfgs] == (
            ["evolve"] * 4
            + ["omega-check"] * 2
            + ["darboux-check"] * 2
            + ["bracket-check"] * 2
            + ["action-residual"] * 2
        )
        assert [c.evolution for c in cfgs[:4]] == [
            "spectral",
            "stepped",
            "spectral",
            "stepped",
        ]
        assert {c.theory for c in cfgs} == {"kg", "schrodinger"}

    def test_matrix_propagates_seed_and_ledger(self):
        cfgs = suite_configs(seed=7, sign_ledger="paper-printed")
        assert all(c.seed == 7 for c in cfgs)
        assert all(c.sign_ledger == "paper-printed" for c in cfgs)

    def test_run_experiment_captures_machinery_failures(self, monkeypatch):
        from covlab import harness

        def explode(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(harness._EXPERIMENT_TABLE, "evolve", explode)
        report = run_experiment(ExperimentConfig(theory="kg", experiment="evolve"))
        # explode lies outside the package, so the innermost package frame
        # is the runner's call
        call = line_of(harness.run_experiment, "_EXPERIMENT_TABLE[cfg.experiment](cfg)")
        assert report.errors == (
            f"RuntimeError: synthetic failure (at covlab/harness.py:{call})",
        )
        assert not report.all_pass

    def test_a_failure_after_some_rows_keeps_no_rows(self, monkeypatch):
        from covlab import harness

        def fail_late(cfg):
            yield "drift", 0.0, 1e-12
            raise RuntimeError("late failure")

        monkeypatch.setitem(harness._EXPERIMENT_TABLE, "evolve", fail_late)
        report = run_experiment(ExperimentConfig(theory="kg", experiment="evolve"))
        assert report.rows == ()
        assert len(report.errors) == 1 and report.errors[0].startswith("RuntimeError: late")

    def test_error_names_the_innermost_package_frame(self, monkeypatch):
        from covlab import harness, lattice

        monkeypatch.setitem(
            harness._EXPERIMENT_TABLE, "evolve", lambda cfg: Lattice(dim=4, n=8, length=1.0)
        )
        cfg = ExperimentConfig(theory="kg", experiment="evolve")
        report = run_experiment(cfg)
        raise_line = line_of(lattice.Lattice.__post_init__, 'f"dim must be')
        assert report.errors == (
            f"ValueError: dim must be 1, 2, or 3, got 4 (at covlab/lattice.py:{raise_line})",
        )
        csv = emit_report(report, None, "csv")
        assert "error: ValueError: dim must be 1; 2; or 3; got 4 (at covlab/lattice.py:" in csv

    def test_evolve_experiment_smoke(self):
        report = run_experiment(ExperimentConfig(theory="kg", experiment="evolve"))
        assert report.all_pass
        metrics = [r.metric for r in report.rows]
        assert metrics == ["energy-drift-spectral", "propagator-phase-error"]

    @pytest.mark.parametrize(
        "cfg",
        suite_configs()
        + [ExperimentConfig(theory=t, experiment=e, n=8) for t in THEORIES for e in EXPERIMENTS],
        ids=lambda cfg: f"{cfg.theory}-{cfg.experiment}-n{cfg.n}-{cfg.evolution}",
    )
    def test_row_seconds_partition_the_wall_time(self, cfg):
        report = run_experiment(cfg)
        assert report.rows and not report.errors
        assert all(r.seconds >= 0 for r in report.rows)
        assert sum(r.seconds for r in report.rows) <= report.wall_s + 1e-9

    def test_omega_experiment_includes_negative_control(self):
        report = run_experiment(
            ExperimentConfig(theory="schrodinger", experiment="omega-check", times=(0.0, 1.0, 2.0))
        )
        assert report.all_pass
        metrics = {r.metric for r in report.rows}
        assert "slice-spread-frozen-v-exceeds" in metrics


# (experiment, evolution) pairs: every experiment, and both evolutions of evolve
RUNS = [("evolve", "stepped")] + [(e, "spectral") for e in EXPERIMENTS]


@pytest.mark.parametrize("experiment, evolution", RUNS)
@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("theory", THEORIES)
def test_every_experiment_runs_at_every_dim(theory, dim, experiment, evolution):
    cfg = ExperimentConfig(
        theory=theory,
        experiment=experiment,
        evolution=evolution,
        dim=dim,
        n=8,
        dt=1e-2,
        steps=20,
        times=(0.0, 1.0, 2.0),
    )
    report = run_experiment(cfg)
    assert report.errors == ()
    assert report.rows
    assert all(math.isfinite(r.value) for r in report.rows)


@pytest.mark.parametrize("experiment, evolution", RUNS)
@pytest.mark.parametrize("theory", THEORIES)
def test_every_experiment_runs_at_the_largest_seed(theory, experiment, evolution):
    # every key a run derives from the largest accepted seed is a valid
    # Philox key, so no run keys past seed + SEED_OFFSET_MAX
    seed = 2**128 - 1 - harness.SEED_OFFSET_MAX
    cfg = ExperimentConfig(
        theory=theory, experiment=experiment, evolution=evolution, n=8, dt=1e-2, steps=20,
        times=(0.0, 1.0), seed=seed,
    )
    assert run_experiment(cfg).errors == ()


# ---------------------------------------------------------------------------
# a NaN in any term of a verdict's reduction fails the verdict

NAN = float("nan")


def test_nan_max_keeps_a_nan_anywhere():
    assert max(0.0, 1.0, NAN, 2.0) == 2.0  # the builtin drops it
    assert math.isnan(nan_max([0.0, 1.0, NAN, 2.0]))
    assert math.isnan(nan_max(iter([1.0, NAN])))
    assert nan_max([0.5, 3.0, 1.0]) == 3.0
    assert nan_max([]) == 0.0


def nan_on_call(fn, call):
    """fn, except that its call-th call (counting from 1) returns NaN."""
    count = 0

    def poisoned(*args, **kwargs):
        nonlocal count
        count += 1
        return NAN if count == call else fn(*args, **kwargs)

    return poisoned


def assert_row_fails(report, metric):
    row = next(r for r in report.rows if r.metric == metric)
    assert math.isnan(row.value)
    assert row.passed is False
    assert not report.all_pass


@pytest.mark.parametrize(
    "poisoned, metric",
    [
        # the fourth pair's (W, quad2) term of the antisymmetry row
        (("W", "Re<slot0, slot1>"), "bracket-antisymmetry-scaled"),
        # the third term of the second Jacobi triple
        (("W", "nested"), "jacobi-identity-scaled"),
        # the second order's derivative along X_F of the restriction row
        (("Re<slot0, slot1>", "values"), "restriction-consistency-scaled"),
    ],
)
def test_nan_in_a_later_bracket_term_fails_its_row(monkeypatch, poisoned, metric):
    real = br.jacobi_bracket

    def jacobi(F, G, point):
        return NAN if (F.name, G.name) == poisoned else real(F, G, point)

    monkeypatch.setattr(br, "jacobi_bracket", jacobi)
    report = run_experiment(ExperimentConfig(theory="kg", experiment="bracket-check", n=16))
    assert_row_fails(report, metric)


EQ, ANTI, JAC, RESTRICT = (
    "bracket-equivalence",
    "bracket-antisymmetry-scaled",
    "jacobi-identity-scaled",
    "restriction-consistency-scaled",
)

# single-site faults in X_F, the one statement of the bivector that every
# bracket reads, and in the quadratic and the linear form behind the test
# observables, with the gated bracket-check rows each fails at n=16, seed
# 42 (the values are KG's, Schrodinger's in parentheses where they differ)
BRACKET_MUTATIONS = {
    # EQ 4.3 (6.8), ANTI 0.047, JAC 0.047
    "d0-scaled": ("_field", "d0 = measure", "d0 = 1.1 * measure", {EQ, ANTI, JAC}),
    # EQ 6.6 (9.6), ANTI 0.083, JAC 0.047
    "d1-scaled": ("_field", "d1 = -measure", "d1 = 1.1 * -measure", {EQ, ANTI, JAC}),
    # EQ 1.3e2 (1.9e2), ANTI 0.99 (0.98), JAC 0.99 (0.98)
    "d1-bivector-flipped": ("_field", "d1 = -measure", "d1 = measure", {EQ, ANTI, JAC}),
    # ANTI 0.81
    "dW-plus-one": ("_field", "dW = F.evaluate", "dW = 1.0 + F.evaluate", {ANTI}),
    # ANTI 0.48
    "d1-without-reeb": ("_field", "np.conj(g0) + FW * A1", "np.conj(g0)", {ANTI}),
    # ANTI 0.48, JAC 0.33
    "dW-without-momentum": (
        "_field",
        "dW = F.evaluate(point) - float(np.real(np.sum(A1 * g1)))",
        "dW = F.evaluate(point)",
        {ANTI, JAC},
    ),
    # the slot-i term of the quadratic form's gradient: RESTRICT 0.048 (G's
    # derivative against its values along X_F), JAC 0.024
    "quadratic-gradient-scaled": ("_quadratic", "g[i] = vol", "g[i] = 1.1 * vol", {RESTRICT, JAC}),
    # the values of the linear form, the W coordinate and the product
    # against their derivatives: RESTRICT 0.159 (0.0796), 0.0909 and 0.16 (0.08)
    "linear-g1-sign-flipped": ("_linear", "+ np.sum(g[1]", "- np.sum(g[1]", {RESTRICT}),
    "w-derivative-scaled": ("w_coordinate", "lambda pt: 1.0", "lambda pt: 1.1", {RESTRICT}),
    "product-slot0-dropped": ("product_observable", "f * gg0 + g * gf0", "f * gg0", {RESTRICT}),
}


def bracket_check_failures(theory):
    cfg = ExperimentConfig(theory=theory, experiment="bracket-check", n=16)
    report = run_experiment(cfg)
    assert report.errors == ()
    return {r.metric for r in report.rows if r.passed is False}


@pytest.mark.parametrize("mutation", BRACKET_MUTATIONS)
@pytest.mark.parametrize("theory", THEORIES)
def test_a_bracket_mutation_fails_its_rows(monkeypatch, theory, mutation):
    name, old, new, rows = BRACKET_MUTATIONS[mutation]
    assert bracket_check_failures(theory) == set()
    monkeypatch.setattr(br, name, recompiled(br, name, old, new))
    assert bracket_check_failures(theory) == rows


@pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
def test_printed_invariance_spread_is_computed_once_under_the_paper_ledger(monkeypatch, ledger):
    # one random state is drawn, and both invariance spreads evolve it
    draws = []

    def counted(cfg):
        draws.append(cfg)
        return random_state(cfg)

    monkeypatch.setattr(harness, "random_state", counted)
    cfg = ExperimentConfig(theory="kg", experiment="darboux-check", n=16, sign_ledger=ledger)
    rows = {r.metric: r.value for r in run_experiment(cfg).rows}
    assert len(draws) == 1
    printed = rows["darboux-invariance-printed-ledger-exceeds"]
    assert (printed == rows["darboux-invariance-rel-spread"]) == (ledger == "paper-printed")


@pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_massless_kg_darboux_check_passes(dim, ledger):
    # at mass 0 the printed KG ledger's mass shift is 0: its flow is the
    # resolved one, so the printed-ledger controls have nothing to catch
    # and carry no verdict
    cfg = ExperimentConfig(
        theory="kg", experiment="darboux-check", dim=dim, n=4, mass=0.0, sign_ledger=ledger
    )
    report = run_experiment(cfg)
    assert report.errors == () and report.all_pass
    rows = {r.metric: r for r in report.rows}
    controls = ["darboux-invariance-printed-ledger-exceeds"]
    if ledger == "paper-printed":
        controls.append("printed-ledger-closedness-residual-exceeds")
    assert [rows[m].tolerance for m in controls] == [None] * len(controls)
    assert rows[controls[0]].value < 1e-12


@pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
@pytest.mark.parametrize("theory", THEORIES)
def test_printed_ledger_controls_stay_gated_where_the_ledgers_differ(theory, ledger):
    cfg = ExperimentConfig(
        theory=theory, experiment="darboux-check", n=8, mass=1.0, sign_ledger=ledger
    )
    rows = {r.metric: r for r in run_experiment(cfg).rows}
    controls = {"darboux-invariance-printed-ledger-exceeds": 1e-12}
    if ledger == "paper-printed":
        controls["printed-ledger-closedness-residual-exceeds"] = 1e-8
    assert {m: (rows[m].tolerance, rows[m].passed) for m in controls} == {
        m: (tol, True) for m, tol in controls.items()
    }


@pytest.mark.parametrize("theory", THEORIES)
def test_a_clamped_window_is_one_window_at_every_level(theory):
    # steps=1 clamps the window to 2 intervals of dt at every level of
    # both ladders, so the convergence ratios compare one window and the
    # run reports what steps=2 does
    cfg = ExperimentConfig(theory=theory, experiment="action-residual", n=8, steps=1)
    for steps_at in (harness._el_steps, harness._ddw_steps):
        spans = [steps_at(cfg, cfg.dt / 2**j) * (cfg.dt / 2**j) for j in range(3)]
        assert spans == [2 * cfg.dt] * 3
    rows = [(r.metric, r.value, r.tolerance) for r in run_experiment(cfg).rows]
    assert rows == [
        (r.metric, r.value, r.tolerance)
        for r in run_experiment(dataclasses.replace(cfg, steps=2)).rows
    ]


def test_nan_in_a_later_equivalence_pair_fails_the_row(monkeypatch):
    monkeypatch.setattr(br, "omega", nan_on_call(br.omega, 2))
    report = run_experiment(ExperimentConfig(theory="kg", experiment="bracket-check", n=16))
    assert_row_fails(report, "bracket-equivalence")


def test_nan_in_a_later_closure_residual_fails_the_row(monkeypatch):
    real = br.subalgebra_closure_check

    def closure(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, reeb_residuals=(rep.reeb_residuals[0], NAN))

    monkeypatch.setattr(br, "subalgebra_closure_check", closure)
    report = run_experiment(ExperimentConfig(theory="kg", experiment="bracket-check", n=16))
    assert_row_fails(report, "subalgebra-closure-residual")


def test_nan_in_a_later_darboux_term_fails_the_row(monkeypatch):
    # the oracle's second value is the second term of w-oracle-vs-derived
    monkeypatch.setattr(dx.WOracle, "value", nan_on_call(dx.WOracle.value, 2))
    report = run_experiment(ExperimentConfig(theory="kg", experiment="darboux-check", n=16))
    assert_row_fails(report, "w-oracle-vs-derived")


def test_nan_in_a_later_closedness_probe_refuses_the_oracle(monkeypatch):
    monkeypatch.setattr(
        dx.WOracle, "closedness_residual", nan_on_call(dx.WOracle.closedness_residual, 2)
    )
    with pytest.raises(dx.WOracleClosednessError, match="nan"):
        dx.WOracle("schrodinger", Lattice(dim=1, n=8, length=2 * math.pi))


# a finite, positive length so small that k^2 overflows: every value
# downstream is NaN, and no gate may pass on one
TINY_BOX = {"n": 8, "length": 1e-160}


def test_nan_state_fails_the_norm_drift():
    cfg = ExperimentConfig(theory="schrodinger", experiment="evolve", **TINY_BOX)
    with np.errstate(all="ignore"):
        report = run_experiment(cfg)
    assert_row_fails(report, "norm-drift")


@pytest.mark.parametrize("theory", THEORIES)
def test_nan_omega_values_fail_the_slice_spread(theory):
    cfg = ExperimentConfig(theory=theory, experiment="omega-check", **TINY_BOX)
    with np.errstate(all="ignore"):
        report = run_experiment(cfg)
    assert_row_fails(report, "slice-spread")


@pytest.mark.parametrize(
    "values, spread", [((0.0, 0.0), 0.0), ((1.0, NAN), NAN), ((NAN, NAN), NAN), ((2.0, 1.0), 0.5)]
)
def test_slice_spread_is_zero_only_on_zero_values(monkeypatch, values, spread):
    calls = iter(values)
    monkeypatch.setattr(br, "omega", lambda theory, u, v: next(calls))
    cfg = ExperimentConfig(theory="kg", experiment="omega-check", n=8)
    th = harness._theory(cfg)
    U = harness._banded_state(cfg, 1)
    rep = br.omega_slice_report(th, random_state(cfg), U, U, (0.0, 1.0))
    assert np.array_equal(rep.max_rel_spread, spread, equal_nan=True)


# ---------------------------------------------------------------------------
# property: a config is rejected on load, or every verdict is finite


# values that some or all experiments must reject, one at a time on top
# of an otherwise valid config
BAD_VALUES = st.sampled_from(
    [
        ("dim", 0),
        ("dim", 4),
        ("n", 2),
        ("n", 6),
        ("length", 0.0),
        ("length", math.inf),
        ("mass", -1.0),
        ("mass", NAN),
        ("dt", 0.0),
        ("dt", NAN),
        ("steps", -1),
        ("times", (0.0, NAN)),
    ]
)

small_configs = st.fixed_dictionaries(
    {
        "theory": st.sampled_from(THEORIES),
        "experiment": st.sampled_from(EXPERIMENTS),
        "dim": st.integers(1, 3),
        "n": st.sampled_from((4, 8)),
        "length": st.floats(1.0, 20.0),
        "mass": st.floats(0.0, 2.0),
        "evolution": st.sampled_from(EVOLUTIONS),
        "dt": st.floats(1e-3, 0.05),
        "steps": st.integers(0, 40),
        "times": st.lists(st.floats(-5.0, 5.0), max_size=4).map(tuple),
        "seed": st.integers(0, 2**31 - 1),
        "sign_ledger": st.sampled_from(LEDGERS),
    }
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(small_configs, st.one_of(st.none(), BAD_VALUES))
def test_generated_configs_are_rejected_or_give_finite_verdicts(fields, bad):
    if bad is not None:
        fields = {**fields, bad[0]: bad[1]}
    try:
        cfg = ExperimentConfig(**fields)
    except ValueError:
        return
    report = run_experiment(cfg)
    # a machinery error is a loud failure: it carries no rows and fails
    # the report, so no verdict can pass on it
    assert report.errors or report.rows
    verdicts = [r for r in report.rows if not r.informational]
    assert all(math.isfinite(r.value) for r in verdicts), [
        (r.metric, r.value) for r in verdicts if not math.isfinite(r.value)
    ]


# ---------------------------------------------------------------------------
# the seeded samplers, against the five separate samplers they replace


def old_random_state(cfg, seed=None):
    lat = cfg.lattice
    rng = np.random.Generator(np.random.Philox(key=cfg.seed if seed is None else seed))
    band = lat.n // 4
    f1 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    f2 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    return harness._theory(cfg).enforce(f1, f2)


def old_banded_state(cfg, seed, band):
    lat = cfg.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    f1 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    f2 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    return harness._theory(cfg).enforce(f1, f2)


def old_random_variation(cfg, seed):
    """The old variation sampler's draw, as the slice state a variation
    now is."""
    lat = cfg.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    band = lat.n // 4
    f1 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    f2 = idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))
    return harness._theory(cfg).enforce(f1, f2)


def old_darboux_mode_point(cfg, seed, s):
    lat = cfg.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    band = lat.n // 4
    a = dx.random_hermitian_modes(lat, rng, band=band)
    b = dx.random_hermitian_modes(lat, rng, band=band)
    return dx.ModeState(ModeVector(lat, a), ModeVector(lat, b), time=s)


def old_darboux_point(cfg, seed, s, W):
    lat = cfg.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    band = lat.n // 4
    a = dx.random_hermitian_modes(lat, rng, band=band)
    b = dx.random_hermitian_modes(lat, rng, band=band)
    return dx.DarbouxState(ModeVector(lat, a), ModeVector(lat, b), W=W, time=s)


def leaves(obj):
    """The arrays and numbers of a sample, field by field."""
    if isinstance(obj, ScalarField):
        return [obj.values]
    if isinstance(obj, ModeVector):
        return [obj.coefficients]
    if isinstance(obj, VectorField):
        return [c.values for c in obj.components]
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in leaves(getattr(obj, f.name))]
    return [obj]


def assert_bit_identical(new, old):
    assert type(new) is type(old)
    a, b = leaves(new), leaves(old)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_seeded_samplers_draw_what_the_old_samplers_drew(theory, dim, n, seed):
    cfg = ExperimentConfig(theory=theory, experiment="evolve", dim=dim, n=n, seed=seed)
    assert_bit_identical(random_state(cfg), old_random_state(cfg))
    assert_bit_identical(random_state(cfg, seed + 5), old_random_state(cfg, seed + 5))
    for band in (1, 2):
        assert_bit_identical(
            harness._banded_state(cfg, seed + 8, band), old_banded_state(cfg, seed + 8, band)
        )
    assert_bit_identical(
        harness._banded_state(cfg, seed + 1), old_random_variation(cfg, seed + 1)
    )
    assert_bit_identical(
        harness._darboux_mode_point(cfg, seed + 10, 0.3),
        old_darboux_mode_point(cfg, seed + 10, 0.3),
    )
    assert_bit_identical(
        harness._darboux_point(cfg, seed + 60, 1.3, 0.5),
        old_darboux_point(cfg, seed + 60, 1.3, 0.5),
    )


# ---------------------------------------------------------------------------
# stepped Schrodinger evolution


STEPPED = ExperimentConfig(theory="schrodinger", experiment="evolve", evolution="stepped")


def test_stepped_rows_pass_with_a_tolerance_per_step():
    report = run_experiment(STEPPED)
    assert report.all_pass
    row = {r.metric: r for r in report.rows}["stepped-vs-composed"]
    assert row.tolerance == harness.STEPPED_EPS_PER_STEP * STEPPED.steps
    assert 0.0 < row.value <= row.tolerance


@pytest.mark.parametrize("dim", [1, 2])
def test_midpoint_norm_drift_has_a_tolerance_per_step(dim):
    # the drift grows linearly in steps: at n=4, seed 42 its 1000 steps
    # read 1.03e-13 (1D) and 1.02e-13 (2D), over the fixed 1e-13 the row
    # had
    cfg = dataclasses.replace(STEPPED, dim=dim, n=4)
    row = {r.metric: r for r in run_experiment(cfg).rows}["midpoint-norm-drift"]
    assert row.tolerance == harness.STEPPED_EPS_PER_STEP * cfg.steps
    assert row.value > 1e-13 and row.passed


@pytest.mark.parametrize("steps", [1, 1000])
def test_a_step_off_unitarity_fails_midpoint_norm_drift(monkeypatch, steps):
    real, off = schr._schr_rotate, 1.0 + 1e-12
    monkeypatch.setattr(
        schr, "_schr_rotate", lambda a, b, c, sg, n=1: real(a, b, c * off, sg * off, n)
    )
    cfg = dataclasses.replace(STEPPED, steps=steps)
    row = {r.metric: r for r in run_experiment(cfg).rows}["midpoint-norm-drift"]
    assert row.passed is False


def test_a_stepper_that_ignores_steps_fails_stepped_vs_composed(monkeypatch):
    real = harness.schr_evolve_stepped
    monkeypatch.setattr(harness, "schr_evolve_stepped", lambda st, dt, steps: real(st, dt, 1))
    report = run_experiment(STEPPED)
    row = {r.metric: r for r in report.rows}["stepped-vs-composed"]
    assert row.passed is False
    assert row.value > 1e-3


# np.union1d, and np.unique on integer arrays (without return_inverse),
# import numpy.ma on first use, about 1.25 MB of resident memory; the mode
# flow's class table keys on the float k^2 and supports are built from
# boolean masks, so no experiment may load it
NUMPY_MA_PROBE = """
import sys
from covlab.harness import EXPERIMENTS, THEORIES, ExperimentConfig, run_experiment

for dim in (1, 3):
    for theory in THEORIES:
        for experiment in EXPERIMENTS:
            cfg = ExperimentConfig(theory=theory, experiment=experiment, dim=dim, n=8)
            assert run_experiment(cfg).errors == (), cfg
print("numpy.ma" in sys.modules)
"""


def test_no_experiment_loads_numpy_ma():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
