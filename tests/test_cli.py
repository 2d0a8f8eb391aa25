import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources

import pytest

import parbelos
import parbelos.cli as cli
from parbelos.cli import main
from parbelos.errors import GeometryError

DATA = resources.files("parbelos") / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parbelos_canonical_values(capsys):
    code, out, _ = run(capsys, "--c1", "0,0", "--c2", "1,0", "--c3", "4,0")
    assert code == 0
    for line in (
        "T1 = (1/2, -1/2)",
        "T2 = (2, -2)",
        "T3 = (5/2, -3/2)",
        "F = (2, 0)",
        "O = (3/2, -1)",
        "radius_sq = 5/4",
        "contact = (1, -3/4)",
        "H = (1, -2)",
        "A1 = (1/2, -3/2)",
        "A3 = (5/2, -1/2)",
        "overall: pass",
    ):
        assert line in out
    assert "FAIL" not in out


def test_parbelos_subcommand_form(capsys):
    bare = run(capsys, "--c1", "0,0", "--c2", "1,0", "--c3", "4,0")
    named = run(capsys, "parbelos", "--c1", "0,0", "--c2", "1,0", "--c3", "4,0")
    assert bare == named


def test_parbelos_json(capsys):
    code, out, _ = run(capsys, "parbelos", "--c1", "0,0", "--c2", "1,0", "--c3", "4,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["T1"] == {"x": "1/2", "y": "-1/2"}
    assert doc["circumcircle_K"]["radius_sq"] == "5/4"
    assert doc["overall"] is True


def test_parbelos_side_and_svg(tmp_path, capsys):
    out_svg = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys, "parbelos", "--c1", "0,0", "--c2", "1,0", "--c3", "4,0",
        "--side", "right", "--svg", str(out_svg),
    )
    assert code == 0
    assert "T2 = (2, 2)" in out
    assert out_svg.read_text().startswith("<svg")


def test_parbelos_bad_cusps_exit_2(capsys):
    code, _, err = run(capsys, "parbelos", "--c1", "0,0", "--c2", "1,1", "--c3", "4,0")
    assert code == 2
    assert "error" in err


def test_check_shipped_script(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "sondow.geo"))
    assert code == 0
    assert "overall: pass" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "sondow.geo"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert all(entry["pass"] for entry in doc["assertions"])


def test_check_failing_assertion_names_line(tmp_path, capsys):
    script = tmp_path / "bad.geo"
    script.write_text("let A = point(0, 0)\nlet B = point(1, 0)\nassert eq(A, B)\n")
    code, out, err = run(capsys, "check", str(script))
    assert code == 1
    assert "assertion failed at line 3" in err
    assert "eq(A, B)" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    script = tmp_path / "broken.geo"
    script.write_text("let A = point(0, 0)\nlet B = point(1,\n")
    code, _, err = run(capsys, "check", str(script))
    assert code == 2
    assert "line 2" in err


def test_check_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "no-such-file.geo")
    assert code == 2
    assert "error" in err


def test_unreadable_scripts_exit_2_with_one_error_line(tmp_path, capsys):
    """A script that is not UTF-8, or not there, ends both commands with exit 2."""
    script = tmp_path / "latin1.geo"
    script.write_bytes(b"let A = point(0, 0)\n# caf\xe9 \xff\n")
    missing = tmp_path / "no-such-file.geo"
    out_svg = tmp_path / "o.svg"
    for path, message in (
        (script, f"error: {script} is not UTF-8 text: invalid continuation byte at byte 25\n"),
        (missing, f"error: [Errno 2] No such file or directory: '{missing}'\n"),
    ):
        commands = (("check",), ("check", "--json"), ("render", "--svg", str(out_svg)))
        for command, *flags in commands:
            code, out, err = run(capsys, command, str(path), *flags)
            assert (code, out, err) == (2, "", message)
    assert not out_svg.exists()


def test_script_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    """A UTF-8 script saved with a leading byte-order mark checks and renders as without it."""
    plain = (DATA / "sondow.geo").read_bytes()
    marked = tmp_path / "bom.geo"
    marked.write_bytes(b"\xef\xbb\xbf" + plain)
    out_svg = tmp_path / "o.svg"
    for command in (("check",), ("render", "--svg", str(out_svg))):
        results = []
        for script in (DATA / "sondow.geo", marked):
            code, out, err = run(capsys, command[0], str(script), *command[1:])
            results.append((code, out, err, out_svg.read_bytes() if out_svg.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] == 0


def test_next_line_character_in_a_comment_keeps_line_numbers(tmp_path, capsys):
    """U+0085 in a comment does not end the line, so the later error keeps its line."""
    script = tmp_path / "nel.geo"
    script.write_bytes(b"# caf\xc2\x85 note\nlet A = point(0, 0)\nlet A = point(1, 1)\n")
    code, out, err = run(capsys, "check", str(script))
    assert (code, out, err) == (2, "", "error: line 3, col 5: name 'A' is already bound\n")

def test_fuzz_small(capsys):
    code, out, _ = run(capsys, "fuzz", "--cases", "8", "--seed", "3")
    assert code == 0
    assert "0 failures" in out


def test_render_script(tmp_path, capsys):
    out_svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(out_svg))
    assert code == 0
    text = out_svg.read_text()
    assert text.startswith("<svg") and "Q " in text


def test_render_empty_scene_exit_2(tmp_path, capsys):
    script = tmp_path / "empty.geo"
    script.write_text("assert eq(1, 1)\n")
    code, _, err = run(capsys, "render", str(script), "--svg", str(tmp_path / "o.svg"))
    assert code == 2


# Each command with the one kernel call it makes before printing anything.
KERNEL_CALLS = {
    "parbelos": ("build_parbelos", ("--c1", "0,0", "--c2", "1,0", "--c3", "4,0")),
    "check": ("evaluate", (str(DATA / "sondow.geo"),)),
    "fuzz": ("run_all", ("--cases", "2")),
    "render": ("render_svg", (str(DATA / "sondow.geo"), "--svg", "OUT.svg")),
}


@pytest.mark.parametrize("error", [GeometryError("kernel fault"), OSError("disk fault")], ids=repr)
@pytest.mark.parametrize("command", sorted(KERNEL_CALLS))
def test_every_command_turns_a_kernel_or_os_error_into_one_error_line(
    command, error, tmp_path, monkeypatch, capsys
):
    """main is the one boundary: any command's GeometryError or OSError exits 2."""
    name, flags = KERNEL_CALLS[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    target = tmp_path / "out.svg"
    argv = [str(target) if arg == "OUT.svg" else arg for arg in flags]
    code, out, err = run(capsys, command, *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")
    assert not target.exists()


def test_every_command_in_the_table_dispatches(monkeypatch):
    """Each row's parser reads the flags and its handler gets the namespace."""
    calls = []
    for command, (parser, rules, _) in list(cli.COMMANDS.items()):
        handler = lambda args, _c=command: calls.append((_c, args)) or 0
        monkeypatch.setitem(cli.COMMANDS, command, (parser, rules, handler))
    flags = {
        "parbelos": ["--c1", "0,0", "--c2", "1,0", "--c3", "4,0"],
        "check": ["x.geo"],
        "fuzz": ["--seed", "7"],
        "render": ["x.geo", "--svg", "o.svg"],
    }
    for command in cli.COMMANDS:
        assert main([command, *flags[command]]) == 0
    assert main(flags["parbelos"]) == 0  # bare flags: the figure command
    expected = [(command, cli.COMMANDS[command][0].parse_args(flags[command])) for command in cli.COMMANDS]
    assert calls == expected + [expected[0]]
    assert vars(dict(calls)["fuzz"]) == {"cases": 200, "seed": 7, "max_height": 10_000, "parallel": False}
    assert sorted(cli.COMMANDS) == ["check", "fuzz", "parbelos", "render"]


def test_a_main_call_builds_no_parser(monkeypatch, tmp_path, capsys):
    """Each subcommand's parser is built once, when ``cli`` is imported."""
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    sondow = str(DATA / "sondow.geo")
    for argv in (
        ("--c1", "0,0", "--c2", "1,0", "--c3", "4,0"),
        ("check", sondow),
        ("fuzz", "--cases", "0"),
        ("render", sondow, "--svg", str(tmp_path / "o.svg")),
    ):
        run(capsys, *argv)
    assert built == []


def argparse_result(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FIGURE_USAGE = (
    "usage: parbelos parbelos [-h] --c1 X,Y --c2 X,Y --c3 X,Y [--side {left,right}]\n"
    "                         [--json] [--svg OUT.svg]\n"
)
CHECK_USAGE = "usage: parbelos check [-h] [--json] FILE.geo\n"
FUZZ_USAGE = (
    "usage: parbelos fuzz [-h] [--cases CASES] [--seed SEED]\n"
    "                     [--max-height MAX_HEIGHT] [--parallel]\n"
)
RENDER_USAGE = (
    "usage: parbelos render [-h] --svg OUT.svg [--width WIDTH] [--height HEIGHT]\n"
    "                       [--margin MARGIN] [--digits DIGITS]\n"
    "                       FILE.geo\n"
)
CUSPS = ("--c1", "0,0", "--c2", "1,0", "--c3", "4,0")
# Each subcommand's help text and argparse's refusals at 80 columns: a
# missing argument, an unknown flag and a value of the wrong type.
ARGPARSE_TEXT = {
    ("parbelos", "-h"): (
        0,
        FIGURE_USAGE + "\nbuild and verify a parbelos figure\n\noptions:\n"
        "  -h, --help           show this help message and exit\n"
        "  --c1 X,Y\n  --c2 X,Y\n  --c3 X,Y\n  --side {left,right}\n"
        "  --json               emit the JSON report\n"
        "  --svg OUT.svg        also render the figure\n",
        "",
    ),
    ("parbelos", "--c1", "0,0"): (
        2, "", FIGURE_USAGE + "parbelos parbelos: error: the following arguments are required: --c2, --c3\n"
    ),
    ("parbelos", *CUSPS, "--bogus"): (
        2, "", FIGURE_USAGE + "parbelos parbelos: error: unrecognized arguments: --bogus\n"
    ),
    ("parbelos", "--c1", "x", *CUSPS[2:]): (
        2, "", FIGURE_USAGE + "parbelos parbelos: error: argument --c1: expected X,Y with rational parts, got 'x'\n"
    ),
    ("check", "-h"): (
        0,
        CHECK_USAGE + "\nevaluate a construction script\n\npositional arguments:\n  FILE.geo\n\n"
        "options:\n  -h, --help  show this help message and exit\n  --json\n",
        "",
    ),
    ("check",): (2, "", CHECK_USAGE + "parbelos check: error: the following arguments are required: FILE.geo\n"),
    ("check", "a.geo", "--bogus"): (2, "", CHECK_USAGE + "parbelos check: error: unrecognized arguments: --bogus\n"),
    ("check", "a.geo", "b.geo"): (2, "", CHECK_USAGE + "parbelos check: error: unrecognized arguments: b.geo\n"),
    ("fuzz", "-h"): (
        0,
        FUZZ_USAGE + "\nseeded randomized invariant suites\n\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --cases CASES\n  --seed SEED\n  --max-height MAX_HEIGHT\n  --parallel\n",
        "",
    ),
    ("fuzz", "--cases"): (2, "", FUZZ_USAGE + "parbelos fuzz: error: argument --cases: expected one argument\n"),
    ("fuzz", "--bogus"): (2, "", FUZZ_USAGE + "parbelos fuzz: error: unrecognized arguments: --bogus\n"),
    ("fuzz", "--cases", "x"): (2, "", FUZZ_USAGE + "parbelos fuzz: error: argument --cases: invalid int value: 'x'\n"),
    ("fuzz", "--max-height", "1.5"): (
        2, "", FUZZ_USAGE + "parbelos fuzz: error: argument --max-height: invalid int value: '1.5'\n"
    ),
    ("render", "-h"): (
        0,
        RENDER_USAGE + "\nrender a script's constructions to SVG\n\npositional arguments:\n  FILE.geo\n\n"
        "options:\n  -h, --help       show this help message and exit\n  --svg OUT.svg\n"
        "  --width WIDTH\n  --height HEIGHT\n  --margin MARGIN\n  --digits DIGITS\n",
        "",
    ),
    ("render", "a.geo"): (2, "", RENDER_USAGE + "parbelos render: error: the following arguments are required: --svg\n"),
    ("render", "a.geo", "--svg", "o.svg", "--bogus"): (
        2, "", RENDER_USAGE + "parbelos render: error: unrecognized arguments: --bogus\n"
    ),
    ("render", "a.geo", "--svg", "o.svg", "--width", "x"): (
        2, "", RENDER_USAGE + "parbelos render: error: argument --width: invalid int value: 'x'\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(ARGPARSE_TEXT), ids=" ".join)
def test_argparse_help_and_refusals_keep_their_text(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert argparse_result(capsys, *argv) == ARGPARSE_TEXT[argv]


def test_no_arguments_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "Subcommands" in err


def test_help_exits_zero(capsys):
    code, _, err = run(capsys, "--help")
    assert code == 0
    assert "Subcommands" in err


def test_check_json_calls_dumps_once_per_statement_and_once_for_the_document(monkeypatch, capsys):
    """``evaluate`` writes each binding and each witness once, to refuse an
    integer too long to print at its statement, and ``check --json`` writes
    the report once; the document holds those same kernel values."""
    import parbelos.dsl as dsl
    from parbelos.jsonio import dumps

    calls = {dsl: [], cli: []}
    for module, written in calls.items():

        def counted(value, _written=written):
            _written.append(value)
            return dumps(value)

        monkeypatch.setattr(module, "dumps", counted)
    code, out, _ = run(capsys, "check", str(DATA / "sondow.geo"), "--json")
    assert code == 0 and json.loads(out)["overall"] is True
    statements = dsl.parse_script((DATA / "sondow.geo").read_text(encoding="utf-8")).statements
    [doc] = calls[cli]
    assert len(calls[dsl]) == len(statements) == len(doc["bindings"]) + len(doc["assertions"])
    held = [*doc["bindings"].values(), *(entry["witness"] for entry in doc["assertions"])]
    assert sorted(map(id, calls[dsl])) == sorted(map(id, held))


def test_parbelos_json_runs_each_check_pass_once(monkeypatch, capsys):
    import parbelos.cli as cli
    import parbelos.jsonio as jsonio

    calls = []
    for module in (cli, jsonio):
        for name in ("sondow_checks", "corollary_checks"):
            original = getattr(module, name)

            def counted(fig, _original=original, _name=name):
                calls.append(_name)
                return _original(fig)

            monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "--c1", "0,0", "--c2", "1,0", "--c3", "4,0", "--json")
    assert code == 0 and json.loads(out)["overall"] is True
    assert sorted(calls) == ["corollary_checks", "sondow_checks"]


def test_fuzz_nonpositive_cases_exit_2(capsys):
    for cases in ("0", "-3"):
        code, out, err = run(capsys, "fuzz", "--cases", cases)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cases") and err.count("\n") == 1


def test_fuzz_max_height_below_22_exit_2(capsys):
    for height in ("21", "10", "1"):
        code, out, err = run(capsys, "fuzz", "--cases", "2", "--max-height", height)
        assert code == 2
        assert out == ""
        assert err == f"error: --max-height must be at least 22, got {height}\n"
    code, out, _ = run(capsys, "fuzz", "--cases", "2", "--max-height", "22")
    assert code == 0 and out.endswith("overall: 0 failures in 15 cases\n")


def test_fuzz_nonpositive_max_height_exit_2(capsys):
    for height in ("0", "-1"):
        code, out, err = run(capsys, "fuzz", "--cases", "2", "--max-height", height)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --max-height") and err.count("\n") == 1


def test_non_ascii_digit_in_a_cusp_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--c1", "\u0660,0", "--c2", "1,0", "--c3", "4,0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["parbelos parbelos: error: argument --c1: not a rational literal: '\u0660'"]


def test_parbelos_unwritable_svg_exit_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "fig.svg"
    cusps = ("--c1", "0,0", "--c2", "1,0", "--c3", "4,0")
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, *cusps, *flags, "--svg", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


NUL_ERROR = "error: 'a\\x00b': embedded null byte\n"


def test_check_path_with_a_nul_byte_exit_2(capsys):
    assert run(capsys, "check", "a\x00b") == (2, "", NUL_ERROR)


def test_render_svg_path_with_a_nul_byte_exit_2(capsys):
    argv = ("render", str(DATA / "sondow.geo"), "--svg", "a\x00b")
    assert run(capsys, *argv) == (2, "", NUL_ERROR)


def test_parbelos_svg_path_with_a_nul_byte_exit_2(capsys):
    argv = ("--c1", "0,0", "--c2", "1,0", "--c3", "4,0", "--svg", "a\x00b")
    assert run(capsys, *argv) == (2, "", NUL_ERROR)


def test_render_unwritable_svg_exit_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.svg"
    code, out, err = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(target))
    assert code == 2
    assert "wrote" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_literals_exit_2_with_position(tmp_path, capsys):
    for literal in ("1/0", "5" * 4301):
        script = tmp_path / "literal.geo"
        script.write_text(f"let A = point(0, 0)\nlet B = point({literal}, 1)\n")
        for argv in (("check", str(script)), ("render", str(script), "--svg", str(tmp_path / "o.svg"))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: line 2, col 15: ") and err.count("\n") == 1
        assert not (tmp_path / "o.svg").exists()


def test_render_negative_margin_exit_2(tmp_path, capsys):
    """A negative margin would scale the drawing past its viewBox and crop it."""
    target = tmp_path / "out.svg"
    argv = ("render", str(DATA / "sondow.geo"), "--svg", str(target), "--margin", "-100")
    assert run(capsys, *argv) == (2, "", "error: --margin must not be negative, got -100\n")
    assert not target.exists()


def test_render_bad_canvas_exit_2(tmp_path, capsys):
    target = tmp_path / "out.svg"
    for flag, value in (("--digits", "-1"), ("--margin", "400"), ("--width", "0")):
        code, out, err = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(target), flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
        assert not target.exists()


WIDE = "9" * 3000


def test_unprintable_script_values_exit_2_with_position(tmp_path, capsys):
    script = tmp_path / "wide.geo"
    script.write_text(
        f"let A = point(0, 0)\nlet B = point({WIDE}, 1)\nlet C = point(1, {WIDE})\n"
        "assert collinear(A, B, C)\n"
    )
    target = tmp_path / "o.svg"
    commands = (("check",), ("check", "--json"), ("render", "--svg", str(target)))
    for command, *flags in commands:
        code, out, err = run(capsys, command, str(script), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 4, col 1: ") and "more than 4300 digits" in err
        assert err.count("\n") == 1
    assert not target.exists()


def test_figure_too_large_to_print_exit_2(tmp_path, capsys):
    half = "9" * 1500
    cusps = ("--c1", "0,0", "--c2", f"1/{half},0", "--c3", f"{half},0")
    target = tmp_path / "fig.svg"
    for extra in (("--json",), (), ("--svg", str(target))):
        code, out, err = run(capsys, *cusps, *extra)
        assert code == 2
        assert out == ""
        assert err == "error: the figure has an integer of more than 4300 digits, too long to print\n"
    assert not target.exists()


def test_render_digits_too_long_to_print_exit_2(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(target), "--digits", "4400")
    assert code == 2
    assert out == ""
    assert err == "error: the drawing has an integer of more than 4300 digits, too long to print\n"
    assert not target.exists()


def test_render_digits_past_the_print_limit_exit_2_before_evaluating(tmp_path, capsys, monkeypatch):
    import parbelos.cli as cli

    def refuse(*args):
        raise AssertionError("a script was evaluated for a drawing that can never print")

    monkeypatch.setattr(cli, "parse_script", refuse)
    monkeypatch.setattr(cli, "evaluate", refuse)
    target = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(target), "--digits", str(10**9))
    assert code == 2
    assert out == ""
    assert err == "error: the drawing has an integer of more than 4300 digits, too long to print\n"
    assert not target.exists()


def test_render_digits_unbounded_when_the_print_limit_is_off(tmp_path, capsys):
    target = tmp_path / "out.svg"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0: the interpreter prints ints of any length
    try:
        code, out, err = run(capsys, "render", str(DATA / "sondow.geo"), "--svg", str(target), "--digits", "4400")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out == f"wrote {target}\n"
    fractional_digits = [len(m) for m in re.findall(r"\.(\d+)", target.read_text())]
    assert max(fractional_digits) == 4400


def test_kernel_error_prints_long_numbers_by_digit_count(tmp_path, capsys):
    script = tmp_path / "long.geo"
    script.write_text(f"let P0 = point({'7' * 2000}, 0)\nlet X0 = line(P0, P0)\n")
    code, out, err = run(capsys, "check", str(script))
    assert code == 2
    assert out == ""
    assert err == "error: line 2, col 1: no unique line through (<2000 digits>, 0) twice\n"
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("fuzz", "--cases", "10", "--seed", "3"),
        ("check", str(DATA / "sondow.geo"), "--json"),
        ("render", str(DATA / "sondow.geo"), "--svg", "OUT.svg"),
    ],
    ids=["fuzz", "check-json", "render"],
)
def test_certification_is_the_same_under_optimize(argv, tmp_path):
    """``python -O`` strips asserts; no verdict, exit code or output may depend on them."""
    paths = (str(pathlib.Path(parbelos.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    target = tmp_path / "out.svg"
    argv = [str(target) if arg == "OUT.svg" else arg for arg in argv]

    def run_cli(*flags):
        target.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, *flags, "-m", "parbelos.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, target.read_bytes() if target.exists() else None

    plain = run_cli()
    assert plain[0] == 0 and plain[1]
    assert (plain[2] is not None) == ("render" in argv)
    assert run_cli("-O") == plain


def test_cli_workload_outputs_match_the_recorded_digests(tmp_path, capsys):
    """The three calls of the benchmark's ``cli`` workload, against its digests.

    ``benchmarks/expected.json`` is only read: a change that alters one byte
    of these outputs fails here before the benchmark's output gate.
    """
    root = pathlib.Path(__file__).parents[1]
    expected = json.loads((root / "benchmarks" / "expected.json").read_text())
    figure_svg, render_svg = tmp_path / "figure.svg", tmp_path / "render.svg"
    canonical = ["--c1", "0,0", "--c2", "1,0", "--c3", "4,0"]
    outputs = {}
    for key, argv in (
        ("figure_json", canonical + ["--json", "--svg", str(figure_svg)]),
        ("check_json", ["check", str(DATA / "sondow.geo"), "--json"]),
        ("render_svg", ["render", str(DATA / "sondow.geo"), "--svg", str(render_svg)]),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs[key] = render_svg.read_bytes() if key == "render_svg" else out.encode()
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}
    assert digests == expected["cli"]
    assert figure_svg.read_bytes() == (root / "tests" / "data" / "parbelos_p13.svg").read_bytes()


def test_figure_workload_outputs_match_every_recorded_digest(tmp_path, capsys, monkeypatch):
    """Every recorded seed of the benchmark's ``figures`` and ``figures-tall``
    workloads, through ``cli.main``, against its digest.

    The benchmark's gate checks the seed it draws; this checks all 64 of
    each.  ``benchmarks/workloads.py`` supplies the cusp triples, the argv
    and the digest, and ``benchmarks/`` is only read.
    """
    root = pathlib.Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # ``dataclass`` looks its module up there
    spec.loader.exec_module(workloads)
    expected = json.loads((root / "benchmarks" / "expected.json").read_text())
    svg = tmp_path / "figure.svg"
    for name, digits in (("figures", 4), ("figures-tall", 1000)):
        digests = {}
        for seed in range(workloads.RECORDED_SEEDS):
            outputs = []
            for triple in workloads.cusp_triples(seed, digits, workloads.REFERENCE):
                svg.unlink(missing_ok=True)
                code, out, _ = run(capsys, *workloads.figure_argv(triple, svg))
                assert code == 0
                outputs.append(out.encode() + svg.read_bytes())
            digests[str(seed)] = workloads.digest(outputs)
        assert digests == expected[name]
