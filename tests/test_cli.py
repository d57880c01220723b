import dataclasses
import json

import numpy as np
import pytest

import twodiscord as td
from twodiscord import cli
from twodiscord import verification
from twodiscord.cli import main
from twodiscord.serialize import save_state

FAST = ["--restarts", "8"]


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(path, td.bell_state())
    return str(path)


@pytest.mark.parametrize("argv", [
    ["compute", "STATE"],
    ["verify", "--quick"],
    ["sweep", "--family", "werner", "--m", "2", "--x-start", "0", "--x-end", "1"],
    ["audit", "--states", "1"],
])
def test_negative_seed_exits_2(argv, bell_file, capsys):
    argv = [bell_file if a == "STATE" else a for a in argv]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


def _sweep(family, m, x_start, x_end, points):
    return main(["sweep", "--family", family, "--m", str(m), "--x-start", str(x_start),
                 "--x-end", str(x_end), "--points", str(points), *FAST])


class TestSweepSpec:
    """The sweep's checks of its family, m, x range and point count."""

    def test_valid(self, capsys):
        for args in (("werner", 3, -1.0, 1.0, 21), ("isotropic", 2, 0.0, 1.0, 5)):
            assert _sweep(*args) == 0
            captured = capsys.readouterr()
            assert len(captured.out.splitlines()) == 1 + args[4]
            assert captured.err == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("werner", 3, -1.5, 1.0, 21),
            ("isotropic", 2, -0.1, 1.0, 21),
            ("isotropic", 2, 0.8, 0.2, 21),
            ("werner", 1, -1.0, 1.0, 21),
            ("werner", 2, -1.0, 1.0, 1),
        ],
    )
    def test_invalid(self, args, capsys):
        assert _sweep(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_unknown_family_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _sweep("ghz", 2, 0.0, 1.0, 5)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCompute:
    def test_bell_csv(self, bell_file, capsys):
        assert main(["compute", bell_file, *FAST]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["geo_two_sided"]) == pytest.approx(0.5, abs=1e-6)
        assert float(rec["purity"]) == pytest.approx(1.0)
        assert rec["flagged"] == "false"

    def test_bell_entropic_json(self, bell_file, capsys):
        assert main(["compute", bell_file, "--entropic", "--format", "json", *FAST]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["entropic_two_sided"] == pytest.approx(1.0, abs=1e-4)

    def test_one_parser_carries_no_option_into_the_next_call(self, bell_file, capsys):
        # main parses every call with the same parser; an --entropic report
        # leaves no entropic keys in the plain report that follows it
        assert main(["compute", bell_file, "--entropic", "--format", "json", *FAST]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["compute", bell_file, "--format", "json", *FAST]) == 0
        second = json.loads(capsys.readouterr().out)
        entropic = {k for k in first if k.startswith("entropic_")}
        assert len(entropic) == 3
        assert not entropic & set(second)
        assert cli.make_parser() is cli.make_parser()

    def test_maximally_mixed(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        save_state(path, td.make_bipartite(np.eye(4) / 4, 2, 2))
        assert main(["compute", str(path), *FAST]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert abs(float(rec["geo_two_sided"])) <= 1e-8

    def test_out_file(self, bell_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["compute", bell_file, "--out", str(out), *FAST]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("dim_a,")

    def test_malformed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["compute", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "none.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    BAD_INPUT = {
        "directory": "error: cannot read state file {path}: Is a directory",
        "not-utf8": "error: not UTF-8 text: byte 2 is 0xe9",
        "huge-entries": "error: trace is (inf+0j), expected 1",
        "deep-nesting": "error: invalid JSON: nested too deeply",
        "long-integer": ("error: invalid JSON: "
                         "Exceeds the limit (4300 digits) for integer string conversion"),
        "missing-out-dir": "error: cannot write output file {out}: No such file or directory",
    }

    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_exits_2_with_one_error_line(self, bell_file, tmp_path, capsys,
                                                   recwarn, case):
        # a traceback, a warning or a line naming the wrong file is a failure
        path, out = str(tmp_path / "state.json"), str(tmp_path / "missing" / "r.csv")
        argv = ["compute", path, *FAST]
        if case == "directory":
            argv[1] = path = str(tmp_path)
        elif case == "not-utf8":
            (tmp_path / "state.json").write_bytes(b'{"\xe9": 1}')
        elif case == "huge-entries":
            (tmp_path / "state.json").write_text(json.dumps(
                {"dim_a": 2, "dim_b": 2,
                 "matrix": [[[1e308 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
            ))
        elif case == "deep-nesting":
            (tmp_path / "state.json").write_text(
                '{"dim_a": 2, "dim_b": 2, "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
        elif case == "long-integer":
            (tmp_path / "state.json").write_text(
                '{"dim_a": 2, "dim_b": 2, "matrix": [[[' + "1" * 5000 + ", 0]]]}")
        else:
            argv = ["compute", bell_file, "--out", out, *FAST]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.BAD_INPUT[case].format(path=path, out=out) + "\n"
        assert not recwarn.list

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_exits_2(self, bell_file, tmp_path, capsys, bad):
        path = tmp_path / "nonfinite.json"
        path.write_text(open(bell_file).read().replace("0.0", bad, 1))
        assert main(["compute", str(path), *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_entropic_above_mutual_information_flagged(self, bell_file, monkeypatch, capsys):
        real = cli.discord_two_sided

        def inflated(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, value=res.value + 1.5)

        monkeypatch.setattr(cli, "discord_two_sided", inflated)
        assert main(["compute", bell_file, "--entropic", "--format", "json", *FAST]) == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["entropic_two_sided"] > rec["mutual_information"]
        assert rec["flagged"] is True

    @pytest.mark.parametrize("name", ["two-sided-above-lower-bound",
                                      "two-sided-above-one-sided",
                                      "one-sided-above-lower-bounds"])
    def test_geometric_margin_flags(self, bell_file, monkeypatch, capsys, name):
        monkeypatch.setitem(verification.TOLERANCES, name, -np.inf)
        assert main(["compute", bell_file, *FAST]) == 3
        assert capsys.readouterr().out.strip().endswith(",true")

    @pytest.mark.parametrize("name", ["entropic-nonnegative",
                                      "entropic-below-mutual-information",
                                      "entropic-two-sided-above-one-sided"])
    def test_entropic_margin_flags_only_with_entropic(self, bell_file, monkeypatch, name):
        monkeypatch.setitem(verification.TOLERANCES, name, -np.inf)
        assert main(["compute", bell_file, "--format", "json", *FAST]) == 0
        assert main(["compute", bell_file, "--entropic", "--format", "json", *FAST]) == 3

    def test_linalg_error_exits_2(self, bell_file, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "geo_discord_two_sided", failing)
        assert main(["compute", bell_file, *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_memory_error_exits_2(self, bell_file, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(cli, "geo_discord_two_sided", failing)
        assert main(["compute", bell_file, *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 14.6 TiB\n"

    def test_one_dimensional_side_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"dim_a": 1, "dim_b": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
        ))
        assert main(["compute", str(path), *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a measured side must have dimension >= 2, got 1\n"

    def test_invalid_density_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "notdm.json"
        path.write_text(json.dumps(
            {"dim_a": 2, "dim_b": 2,
             "matrix": [[[1.0 if i == j == 0 else 0.0, 0.1] for j in range(4)]
                        for i in range(4)]}
        ))
        assert main(["compute", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSweep:
    def test_werner_csv(self, capsys):
        code = main(["sweep", "--family", "werner", "--m", "2", "--x-start", "-1",
                     "--x-end", "1", "--points", "5", *FAST])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "family,m,x,geo_closed,geo_numeric,lower_bound,abs_gap"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-6

    def test_closed_form_minimum_at_half(self, capsys):
        main(["sweep", "--family", "werner", "--m", "2", "--x-start", "-1",
              "--x-end", "1", "--points", "21", "--restarts", "4"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        closed = {float(r.split(",")[2]): float(r.split(",")[3]) for r in rows}
        assert closed[0.5] == pytest.approx(0.0, abs=1e-12)
        assert min(closed.values()) == closed[0.5]

    def test_isotropic_endpoint(self, capsys):
        main(["sweep", "--family", "isotropic", "--m", "2", "--x-start", "1",
              "--x-end", "1", "--points", "2", *FAST])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[3]) == pytest.approx(0.5)

    def test_domain_error_exits_2(self, capsys):
        code = main(["sweep", "--family", "werner", "--m", "2", "--x-start", "-2",
                     "--x-end", "1", "--points", "5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestAudit:
    def test_small_audit_clean(self, capsys):
        assert main(["audit", "--states", "3", "--dims", "2x2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "local-unitary-invariance: worst margin" in out

    def test_zero_states(self, capsys):
        assert main(["audit", "--states", "0"]) == 0
        assert "audited 0" in capsys.readouterr().out

    def test_restarts_honoured(self, capsys):
        assert main(["audit", "--states", "1", "--restarts", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("dims", ["two", "0x2"])
    def test_bad_dims(self, capsys, dims):
        assert main(["audit", "--states", "1", "--dims", dims]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_states(self, capsys):
        assert main(["audit", "--states", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_largest_dims_clean(self, capsys):
        assert main(["audit", "--dims", "4x4", "--states", "2"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_dims_above_cap(self, capsys):
        assert main(["audit", "--states", "1", "--dims", "3x6"]) == 2
        assert capsys.readouterr().err.startswith("error: audit dims are capped at 16")
