import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from tables import reference_plain_text, reference_strong_text

from collatzcert import certify, cli
from collatzcert.certify import parse_certificate
from collatzcert.cli import main


def _broken_certificate():
    # entry 12 with its path's second edge flipped no longer replays
    return parse_certificate(
        reference_plain_text().replace("12 1 3 001", "12 1 3 011"))


@pytest.fixture
def plain_cert_file(tmp_path):
    path = tmp_path / "plain.cert"
    path.write_text(reference_plain_text())
    return str(path)


@pytest.fixture
def strong_cert_file(tmp_path):
    path = tmp_path / "strong.cert"
    path.write_text(reference_strong_text())
    return str(path)


class TestVerifyCommand:
    def test_valid_file_exits_zero(self, plain_cert_file, capsys):
        assert main(["verify", "--alpha", "1/3", plain_cert_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_strong_file(self, strong_cert_file, capsys):
        assert main(["verify", "--alpha", "1/3", "--strong", strong_cert_file]) == 0

    def test_corrupted_file_exits_one(self, tmp_path, capsys):
        bad = reference_plain_text().replace("12 1 3 001", "12 1 3 011")
        path = tmp_path / "bad.cert"
        path.write_text(bad)
        assert main(["verify", "--alpha", "1/3", str(path)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_alpha_mismatch_exits_one(self, plain_cert_file, capsys):
        assert main(["verify", "--alpha", "1/4", plain_cert_file]) == 1

    def test_header_problems_print_before_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.cert"
        path.write_text(_broken_certificate().to_text())
        assert main(["verify", "--alpha", "1/4", "--strong", str(path)]) == 1
        assert capsys.readouterr().out == (
            "invalid: header alpha 1/3 != expected 1/4\n"
            "invalid: header mode plain != expected strong\n"
            "invalid: entry 12, path 1, position 1: "
            "1-edge at residue 1 mod 9, not in {2, 8}\n")

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "junk.cert"
        path.write_text("certificate v1 mode=plain alpha=1/3\n02 1 1\n")
        assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["witnesses", "--anchor", "41", "--count", "3", "--cert"],
    ["stats", "--cert"],
])
def test_unparseable_certificate_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "junk.cert"
    path.write_text("certificate v1 mode=plain alpha=1/3\n02 1 x 1\n")
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: line 2: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["witnesses", "--anchor", "41", "--count", "3", "--cert"],
    ["stats", "--cert"],
])
def test_certificate_that_is_not_utf8_is_a_located_parse_error(
        tmp_path, capsys, argv):
    path = tmp_path / "junk.cert"
    path.write_bytes(reference_plain_text().encode().replace(
        b"\n12 1 3 001", b"\n12 1 3 0\xff1"))
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "parse error: line 12: not UTF-8 text\n"
    assert captured.out == ""


class TestSearchCommand:
    def test_round_trip_with_verify(self, tmp_path, capsys):
        out = str(tmp_path / "found.cert")
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--out", out]) == 0
        assert main(["verify", "--alpha", "1/3", out]) == 0

    def test_search_writes_reference_bytes(self, tmp_path, plain_cert_file):
        out = tmp_path / "found.cert"
        main(["search", "--alpha", "1/3", "--max-weight", "4", "--out", str(out)])
        assert out.read_text() == reference_plain_text()

    def test_unclosed_exits_two(self, capsys):
        assert main(["search", "--alpha", "1/3", "--max-weight", "3"]) == 2
        out = capsys.readouterr().out
        assert "open 2221 best-ratio 2/7" in out

    def test_big_weight_needs_force(self, capsys):
        assert main(["search", "--alpha", "1/3", "--max-weight", "25"]) == 3

    def test_workers_flag_is_accepted_and_changes_nothing(self, tmp_path):
        plain, pooled = tmp_path / "plain.cert", tmp_path / "pooled.cert"
        base = ["search", "--alpha", "1/3", "--max-weight", "4"]
        assert main([*base, "--out", str(plain)]) == 0
        assert main([*base, "--workers", "2", "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == plain.read_bytes()

    def test_stdout_when_no_out_file(self, capsys):
        assert main(["search", "--alpha", "1/4", "--max-weight", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("certificate v1 mode=plain alpha=1/4\n")


class TestUnwritableOutIsRefusedFirst:
    """An ``--out`` or ``--checkpoint`` that cannot be written is refused,
    with exit 3, before any tree is grown, and the path is neither created
    nor truncated."""

    @pytest.fixture
    def no_growth(self, monkeypatch):
        def grow(*args, **kwargs):
            raise AssertionError("grow_children called")
        monkeypatch.setattr(cli.engine, "grow_children", grow)

    @pytest.mark.parametrize("argv", [
        ["search", "--alpha", "1/3", "--max-weight", "4"],
        ["max-alpha", "--level", "2"],
    ])
    def test_missing_directory(self, tmp_path, capsys, no_growth, argv):
        out = tmp_path / "missing" / "x.cert"
        assert main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: no directory {out.parent}\n"
        assert not out.parent.exists()

    def test_missing_checkpoint_directory(self, tmp_path, capsys, no_growth):
        cp = tmp_path / "missing" / "x.ckpt"
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--checkpoint", str(cp)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --checkpoint {cp}: no directory {cp.parent}\n")
        assert not cp.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["search", "--alpha", "1/3", "--max-weight", "4"],
        ["max-alpha", "--level", "2"],
    ])
    def test_directory_in_place_of_a_file(self, tmp_path, capsys, no_growth,
                                          argv):
        out = tmp_path / "taken"
        (out / "inside").mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
        assert [p.name for p in out.iterdir()] == ["inside"]

    def test_writable_out_is_left_to_the_search(self, tmp_path, monkeypatch):
        # an existing file in a writable folder passes the check untouched
        out = tmp_path / "old.cert"
        out.write_text("old\n")
        def run(*args, **kwargs):
            raise RuntimeError("search ran")

        monkeypatch.setattr(cli.engine, "run", run)
        with pytest.raises(RuntimeError, match="search ran"):
            main(["search", "--alpha", "1/3", "--max-weight", "4",
                  "--out", str(out)])
        assert out.read_text() == "old\n"


class TestSearchVerifiesBeforeWriting:
    def test_broken_search_result_is_not_written(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(cli.engine, "run",
                            lambda *args, **kwargs: _broken_certificate())
        out = tmp_path / "found.cert"
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--out", str(out)]) == 1
        assert "invalid: entry 12, path 1" in capsys.readouterr().out
        assert not out.exists()

    def test_broken_sweep_result_is_not_written(self, tmp_path, capsys,
                                                monkeypatch):
        class BrokenSweep:
            def __init__(self, **kwargs):
                pass

            def level(self, l):
                return Fraction(1, 3), _broken_certificate()

        monkeypatch.setattr(cli, "SweepState", BrokenSweep)
        out = tmp_path / "level4.cert"
        assert main(["max-alpha", "--level", "4", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert printed.startswith("invalid: entry 12, path 1")
        assert "1/3 12" not in printed
        assert not out.exists()


class TestResumeFromBadCheckpoint:
    @pytest.mark.parametrize("records,reason", [
        # Kraft sum 1/3 + 2/9: classes 02, 12, 21, 22 are missing
        (["open 01", "open 11"], "Kraft sum 2/9 + 1/3 = 5/9 != 1"),
        # the carried-over entry's path has ones-ratio 0 < 1/3
        (["closed 02 1 1 0", "open 01", "open 11", "open 12", "open 21",
          "open 22"], "entry 02, path 1: ones-ratio 0/1"),
        # exhaustive by Kraft sum, but 01 is listed twice and 02 not at all
        (["open 01", "open 01", "open 11", "open 12", "open 21", "open 22"],
         "entry 01: duplicate codeword"),
        (["open 01", "open 001", "open 02", "open 11", "open 12", "open 21",
          "open 22"], "entry 01: prefix of fellow codeword 001"),
        # exhaustive, but level-0 codewords cannot be grown
        (["open 1", "open 2"], "entry 1: open codeword of level 0"),
    ])
    def test_exits_three_without_writing(self, tmp_path, capsys, records,
                                         reason):
        cp = tmp_path / "state"
        cp.write_text("checkpoint v3 mode=plain alpha=1/3\n"
                      + "".join(r + "\n" for r in records))
        out = tmp_path / "found.cert"
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--checkpoint", str(cp), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {cp}: ")
        assert reason in err
        assert not out.exists()


    @pytest.mark.parametrize("records,located", [
        # 021 is a child of 21, and the least open codeword is 01
        (["closed 021 2 6 000101"],
         "line 8: closed codeword 021 is not at or below the least open "
         "codeword 01"),
        # splitting 01 opens 001, 101 and 201, and 001 is the least
        (["stuck 101"],
         "line 8: stuck codeword 101 is not at or below the least open "
         "codeword 001"),
        (["closed 01 1 2 01", "closed 01 1 2 01"],
         "line 9: closed codeword 01 is not at or below the least open "
         "codeword 11"),
        (["closed 01 1 2 01", "open 11"], "line 9: open record after a decision"),
        ([*(f"stuck {w}" for w in ("01", "11", "21", "02", "12", "22")),
          "stuck 22"], "line 14: stuck codeword 22 where no codeword is open"),
    ])
    def test_v3_exits_three_with_the_line(self, tmp_path, capsys, records,
                                          located):
        cp = tmp_path / "state"
        cp.write_text("checkpoint v3 mode=plain alpha=1/3\n" + "".join(
            f"{r}\n" for r in
            ["open 01", "open 11", "open 21", "open 02", "open 12", "open 22",
             *records]))
        out = tmp_path / "found.cert"
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--checkpoint", str(cp), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: checkpoint {cp}: {located}\n"
        assert not out.exists()

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_older_versions_are_refused_at_line_one(self, tmp_path, capsys,
                                                    version):
        # a search's output is a pure function of its inputs, so a file of
        # an older version is deleted and the search run again
        header = f"checkpoint {version} mode=plain alpha=1/3"
        cp = tmp_path / "state"
        cp.write_text(f"{header}\nopen 01\nopen 11\nopen 21\nopen 02\n"
                      "open 12\nopen 22\nend 0\n")
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--checkpoint", str(cp)]) == 3
        assert capsys.readouterr().err == (
            f"error: checkpoint {cp}: line 1: bad checkpoint header {header!r}\n")

    def test_text_that_is_not_utf8_is_located(self, tmp_path, capsys):
        cp = tmp_path / "state"
        cp.write_bytes(b"checkpoint v3 mode=plain alpha=1/3\nopen 01\n"
                       b"open 1\xff\n")
        assert main(["search", "--alpha", "1/3", "--max-weight", "4",
                     "--checkpoint", str(cp)]) == 3
        assert capsys.readouterr().err == (
            f"error: checkpoint {cp}: line 3: not UTF-8 text\n")


class TestMaxAlphaCommand:
    def test_level_four_row(self, capsys):
        assert main(["max-alpha", "--level", "4"]) == 0
        assert capsys.readouterr().out == "1/3 12 4 12\n"

    def test_level_six_keeps_level_five_ratio(self, capsys):
        assert main(["max-alpha", "--level", "6"]) == 0
        assert capsys.readouterr().out == "5/14 34 6 14\n"

    def test_writes_certificate(self, tmp_path, capsys):
        out = str(tmp_path / "level4.cert")
        assert main(["max-alpha", "--level", "4", "--out", out]) == 0
        assert main(["verify", "--alpha", "1/3", out]) == 0

    def test_bad_level_is_usage_error(self, capsys):
        assert main(["max-alpha", "--level", "0"]) == 3

    def test_level_past_the_codeword_limit_is_refused_at_once(
            self, monkeypatch, capsys):
        def search(*args, **kwargs):
            raise AssertionError("search called")

        monkeypatch.setattr(certify, "search", search)
        assert main(["max-alpha", "--level", "81"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: level must be within [1, 80]\n"

    def test_unwritable_out_prints_no_row(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "level2.cert")
        assert main(["max-alpha", "--level", "2", "--out", out]) == 3
        assert capsys.readouterr().out == ""


class TestTrajectoryCommand:
    def test_small(self, capsys):
        assert main(["trajectory", "3"]) == 0
        assert capsys.readouterr().out == (
            "n=3 sigma=5 gamma=4.5512 rho=2/5 parity=11000\n")

    def test_record_value(self, capsys):
        assert main(["trajectory", "1008932249296231"]) == 0
        out = capsys.readouterr().out
        assert "sigma=1142" in out
        assert "gamma=33.0558" in out

    def test_cap_exhaustion_prints_question_marks(self, capsys):
        assert main(["trajectory", "27", "--cap", "5"]) == 0
        assert capsys.readouterr().out == "n=27 sigma=? gamma=? rho=? parity=?\n"

    def test_zero_is_usage_error(self, capsys):
        assert main(["trajectory", "0"]) == 3


class TestWitnessesCommand:
    def test_chain_output(self, plain_cert_file, capsys):
        assert main(["witnesses", "--cert", plain_cert_file,
                     "--anchor", "41", "--count", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "109 3 1/3"
        assert len(lines) == 3

    def test_breadth_two(self, strong_cert_file, capsys):
        assert main(["witnesses", "--cert", strong_cert_file,
                     "--anchor", "41", "--count", "4", "--breadth", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_bad_anchor_is_usage_error(self, plain_cert_file, capsys):
        assert main(["witnesses", "--cert", plain_cert_file,
                     "--anchor", "9", "--count", "1"]) == 3

    def test_valid_certificate_is_verified_once(self, plain_cert_file,
                                                monkeypatch, capsys):
        calls = []
        real = certify.verify

        def counted(cert):
            calls.append(cert)
            return real(cert)

        monkeypatch.setattr(certify, "verify", counted)
        monkeypatch.setattr(cli, "verify", counted)
        assert main(["witnesses", "--cert", plain_cert_file,
                     "--anchor", "41", "--count", "3"]) == 0
        assert len(calls) == 1

    def test_bad_anchor_on_invalid_certificate_lists_violations(
            self, tmp_path, capsys):
        path = tmp_path / "bad.cert"
        path.write_text(_broken_certificate().to_text())
        assert main(["witnesses", "--cert", str(path),
                     "--anchor", "9", "--count", "3"]) == 1
        assert capsys.readouterr().out.startswith("invalid: entry 12, path 1")

    def test_invalid_certificate_gives_no_chain(self, tmp_path, capsys):
        path = tmp_path / "bad.cert"
        path.write_text(_broken_certificate().to_text())
        assert main(["witnesses", "--cert", str(path),
                     "--anchor", "41", "--count", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("invalid: ") for line in lines)
        assert lines[0].startswith("invalid: entry 12, path 1")


class TestTreeCommand:
    def test_dump_format(self, capsys):
        assert main(["tree", "--codeword", "12", "--alpha", "1/3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0 0 - 5 mod 3^2"
        assert lines[-2] == "3 1 001 1 mod 3^1"
        assert lines[-1].startswith("# nodes")

    def test_rejects_junk_codeword(self, capsys):
        assert main(["tree", "--codeword", "9z", "--alpha", "1/3"]) == 3

    @pytest.mark.parametrize("alpha", ["0/5", "1/1", "5/3"])
    def test_rejects_alpha_outside_unit_interval(self, alpha, capsys):
        assert main(["tree", "--codeword", "12", "--alpha", alpha]) == 3
        assert capsys.readouterr().err.startswith("error: alpha must be in (0, 1)")


class TestStatsCommand:
    def test_csv_to_stdout(self, plain_cert_file, capsys):
        assert main(["stats", "--cert", plain_cert_file]) == 0
        assert capsys.readouterr().out == "level,count\n1,12\n2,7\n3,5\n4,3\n"

    def test_csv_to_file(self, plain_cert_file, tmp_path):
        out = tmp_path / "stats.csv"
        assert main(["stats", "--cert", plain_cert_file, "--csv", str(out)]) == 0
        assert out.read_text().startswith("level,count\n")

    def test_invalid_certificate_gives_no_counts(self, tmp_path, capsys):
        path = tmp_path / "bad.cert"
        path.write_text(_broken_certificate().to_text())
        out = tmp_path / "stats.csv"
        assert main(["stats", "--cert", str(path), "--csv", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("invalid: ") for line in lines)
        assert lines[0].startswith("invalid: entry 12, path 1")
        assert not out.exists()

    def test_missing_csv_directory_is_refused_first(
            self, plain_cert_file, tmp_path, capsys, monkeypatch):
        # refused by name, before the certificate is verified
        def verify(*args, **kwargs):
            raise AssertionError("verify called")

        monkeypatch.setattr(cli, "verify", verify)
        out = tmp_path / "missing" / "x.csv"
        assert main(["stats", "--cert", plain_cert_file,
                     "--csv", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --csv {out}: no directory {out.parent}\n"
        assert not out.parent.exists()


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_bad_ratio_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--alpha", "0.3", "--max-weight", "2"])
        assert exc.value.code == 3


def _readme_commands():
    """The ``collatzcert`` lines of README's "Command line" block, each with
    the output row its ``# -> …`` comment promises, if any."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    out = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, row = line.partition("# -> ")
        if command.startswith("collatzcert "):
            out.append((shlex.split(command)[1:], row or None))
    return out


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [row for _, row in commands if row] == ["1/3 12 4 12",
                                                   "2/5 914 10 25"]
    for argv, row in commands:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out
        if row is not None:
            assert printed == row + "\n", argv
