import contextlib
import hashlib
import io
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from biqknot import coloring, torus_group
from biqknot.cli import main
from biqknot.group_words import format_normal
from biqknot.torus_group import (ALL_ELEMENTS, Convention, SeamTwist,
                                 build_group, calibrate_convention)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_eval(capsys):
    code, out, _ = run(capsys, "group", "eval", "(ab)^-3 a (ab)^3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("convention: word-order")
    assert lines[-1] == "a^7 b^6"


def test_group_eval_identity(capsys):
    code, out, _ = run(capsys, "group", "eval", "e")
    assert code == 0
    assert out.strip().splitlines()[-1] == "e"


def test_group_eval_bad_word(capsys):
    code, _, err = run(capsys, "group", "eval", "a^")
    assert code == 2
    assert "offset" in err


def test_group_eval_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "group", "eval", "b^-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == "b^6"
    assert "convention" in payload


def test_group_center(capsys):
    code, out, _ = run(capsys, "group", "center")
    assert code == 0
    body = out.strip().splitlines()[1:]
    assert body == ["e", "b^4", "a^4", "a^4 b^4"]


def test_group_table(capsys):
    code, out, _ = run(capsys, "group", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 64
    assert lines[1].startswith("e : ")


def test_group_parity_table(capsys):
    code, out, _ = run(capsys, "group", "parity-table")
    assert code == 0
    assert "mismatches vs stated pattern: 0" in out
    assert "all classes constant: True" in out


def test_group_calibrate(capsys):
    code, out, _ = run(capsys, "group", "calibrate")
    assert code == 0
    assert "frozen convention: word-order, even-rows-right, even-cols-up, central-b4" in out
    assert "matching variants (8):" in out


def test_audit_default_candidate_reports_f_gap(capsys):
    code, out, _ = run(capsys, "audit", "--n", "2")
    assert code == 1  # the calibrated f is not a bijection; f axioms fail
    assert "strange-I-circ domain=262144 PASS" in out
    assert "f-roundtrip" in out


def test_audit_substitution(capsys):
    code, out, _ = run(capsys, "audit", "--n", "2", "--f", "substitution")
    assert code == 1
    assert "idempotence-circ domain=64 PASS" in out
    assert "f-equivariance-circ domain=4096 FAIL" in out


def test_audit_twist_one_negative_control(capsys):
    code, out, _ = run(capsys, "audit", "--n", "1", "--f", "shear")
    assert code == 1
    assert "strange-I" in out and "FAIL" in out


def test_audit_identity_table(capsys, tmp_path):
    path = tmp_path / "id.txt"
    lines = [f"{format_normal(g)}\t{format_normal(g)}" for g in ALL_ELEMENTS]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "audit", "--n", "2", "--f", f"table:{path}")
    assert code == 0
    assert "f-equivariance-circ domain=4096 PASS" in out
    assert "f-roundtrip domain=64 PASS" in out


def test_audit_f_table_to_separator(capsys, tmp_path):
    # shear as an explicit table, written with the "from to" separator
    path = tmp_path / "shear.txt"
    lines = []
    for k in range(8):
        for l in range(8):
            src = format_normal(ALL_ELEMENTS[k * 8 + l])
            dst = format_normal(ALL_ELEMENTS[k * 8 + (k + l) % 8])
            lines.append(f"{src} to {dst}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "audit", "--f", f"table:{path}")
    assert code == 1  # shear is a bijection but not equivariant
    assert "f-roundtrip domain=64 PASS" in out
    assert "f-equivariance-circ domain=4096 FAIL" in out


def test_audit_f_table_with_byte_order_mark(capsys, tmp_path, monkeypatch):
    # an editor's leading byte-order mark is not part of the first line;
    # the report names the path, so both files are f.txt
    lines = [f"{format_normal(g)}\t{format_normal(ALL_ELEMENTS[(i + 9) % 64])}"
             for i, g in enumerate(ALL_ELEMENTS)]
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("f.txt").write_text(prefix + "\n".join(lines) + "\n",
                                 encoding="utf-8")
        outputs.append(run(capsys, "audit", "--f", "table:f.txt"))
    assert outputs[1] == outputs[0]
    assert "f = table:f.txt; bijective" in outputs[0][1]


def test_audit_f_table_duplicate_source(capsys, tmp_path):
    # the identity table plus a second image of b: rejected, not audited
    path = tmp_path / "dup.txt"
    lines = [f"{format_normal(g)}\t{format_normal(g)}" for g in ALL_ELEMENTS]
    path.write_text("\n".join(lines + ["a\tb"]) + "\n")
    code, out, err = run(capsys, "audit", "--f", f"table:{path}")
    assert code == 2
    assert out == ""
    assert "f-table line 65 maps a again" in err


def test_audit_f_table_word_error_names_line(capsys, tmp_path):
    # "a to " strips to "a to", which splits at the space: the image "to"
    # is not a word
    path = tmp_path / "bad.txt"
    path.write_text("a\ta\nb  b\na to \n")
    code, out, err = run(capsys, "audit", "--f", f"table:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: f-table line 3: image 'to': ")
    assert "illegal character 't'" in err
    path.write_text("a\ta\nb^x\tb\n")
    code, _, err = run(capsys, "audit", "--f", f"table:{path}")
    assert code == 2
    assert err.startswith("error: f-table line 2: source 'b^x': ")


def test_audit_f_table_missing_elements(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("a\ta\n")
    code, out, err = run(capsys, "audit", "--f", f"table:{path}")
    assert code == 2
    assert out == ""
    assert err == ("error: table must cover all 64 elements; "
                   "63 missing: e, b, b^2, ...\n")


# pieces of f-table lines: words, separators, comments, line breaks and
# bytes that are not UTF-8
_F_TABLE_PIECES = [s.encode() for s in (
    "e", "a", "b", "a^3", "b^-2", "a b^2", "(ab)^2", "a^", "(", "x", "\u00b2",
    "\t", " ", "  ", " to ", "to", "#", "# c", "\n", "\r\n", "\r")] + [
    b"\xff", b"\xc3", b"\x00", b"\xe2\x80"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(_F_TABLE_PIECES),
                          st.binary(max_size=3)), max_size=40))
def test_audit_f_table_loader_fuzz(tmp_path_factory, pieces):
    # any file ends in a verdict or a documented error, never exit 3
    path = tmp_path_factory.mktemp("fuzz") / "f.txt"
    path.write_bytes(b"".join(pieces))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["audit", "--f", f"table:{path}"])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


def test_audit_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "audit", "--n", "1",
                       "--f", "shear")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert any(ax["id"].startswith("strange") and not ax["passed"]
               for ax in payload["axioms"])


def test_color_right_trefoil(capsys):
    code, out, _ = run(capsys, "color", "builtin:right-trefoil",
                       "--start", "a")
    assert code == 0
    assert "count:   4" in out
    assert "(a, a b^7, a^3 b^5, a^7 b^4, a b^2)" in out


def test_color_left_trefoil_end_pinned(capsys):
    code, out, _ = run(capsys, "color", "builtin:left-trefoil",
                       "--start", "a", "--end", "a b^2")
    assert code == 0
    assert "count:   0" in out


def test_color_empty_end_word(capsys):
    # an empty --end is a word error, as an empty --start is, not no pin
    code, out, err = run(capsys, "color", "builtin:right-trefoil",
                         "--start", "a", "--end", "")
    assert code == 2
    assert out == ""
    assert "empty word (offset 0)" in err


def test_color_diagram_file(capsys, tmp_path):
    path = tmp_path / "unknot.txt"
    path.write_text("longknot unknot\n")
    code, out, _ = run(capsys, "color", str(path), "--start", "a^2 b")
    assert code == 0
    assert "count:   1" in out


def test_color_diagram_file_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "right.txt"
    path.write_text("\ufefflongknot right-trefoil\nO2+ V1 U2+ O1+ V1 U1+\n",
                    encoding="utf-8")
    from_file = run(capsys, "color", str(path), "--start", "a")
    builtin = run(capsys, "color", "builtin:right-trefoil", "--start", "a")
    assert from_file == builtin and from_file[0] == 0
    # only a leading mark is dropped: one inside the text is still an error
    path.write_text("longknot right-trefoil\n\ufeffO2+ V1 U2+ O1+ V1 U1+\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "color", str(path), "--start", "a")
    assert code == 2 and out == ""


def test_color_missing_file(capsys):
    code, _, err = run(capsys, "color", "no-such-file", "--start", "a")
    assert code == 2
    assert "error" in err


def test_color_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "color",
                       "builtin:right-trefoil", "--start", "a")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 4
    assert payload["end_colors"] == ["a b^2", "a^7 b^4"]


def test_distinguish(capsys):
    code, out, _ = run(capsys, "distinguish", "builtin:right-trefoil",
                       "builtin:left-trefoil", "--start", "a")
    assert code == 0
    assert "verdict: DISTINGUISHED" in out


def test_distinguish_json_matches_text_data(capsys):
    code, out, _ = run(capsys, "--format", "json", "distinguish",
                       "builtin:right-trefoil", "builtin:left-trefoil",
                       "--start", "a")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "DISTINGUISHED"
    assert payload["first"]["count"] == 4
    assert payload["second"]["count"] == 0


def test_unknown_f_candidate_exit_code(capsys):
    code, _, err = run(capsys, "audit", "--f", "bogus")
    assert code == 2
    assert "unknown f candidate" in err


def test_bad_diagram_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("longknot bad\nO1+ U1-\n")
    code, _, err = run(capsys, "color", str(path), "--start", "a")
    assert code == 2
    assert "sign" in err


def test_commands_use_the_calibrated_group(capsys):
    code, out, _ = run(capsys, "--format", "json", "group", "table")
    assert code == 0
    rows = json.loads(out)["table"]
    calibrated = build_group(calibrate_convention().convention)
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            assert rows[format_normal(g)][format_normal(h)] == \
                format_normal(calibrated.mul(g, h))


def test_frozen_convention_must_match_anchors(capsys, monkeypatch):
    monkeypatch.setattr(torus_group, "DEFAULT_CONVENTION",
                        Convention(seam_twist=SeamTwist.FLAT))
    code, out, err = run(capsys, "group", "eval", "a")
    assert code == 2
    assert out == ""
    assert "calibration anchors" in err


def test_deeply_nested_word_exit_code(capsys):
    code, _, err = run(capsys, "group", "eval", "(" * 1200 + "a" + ")" * 1200)
    assert code == 2
    assert "nested deeper" in err


def test_oversized_exponent_exit_code(capsys):
    code, out, err = run(capsys, "group", "eval", "a^" + "9" * 5000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "(offset 2)" in err


def _chain600(tmp_path):
    body = " ".join(f"O{i}+ U{i}+" for i in range(1, 601))
    path = tmp_path / "chain.txt"
    path.write_text(f"longknot chain600\n{body}\n")
    return path


def test_internal_error_exit_code(capsys, tmp_path, monkeypatch):
    # an unexpected exception inside a command is internal, not an audit
    # failure
    def broken_solve(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(coloring, "solve", broken_solve)
    code, out, err = run(capsys, "color", str(_chain600(tmp_path)),
                         "--start", "a")
    assert code == 3
    assert err.startswith("internal error: RuntimeError: ")
    assert "Traceback" not in err


def test_long_chain_colors(capsys, tmp_path):
    # the solver does not recurse, so 600 relations need no stack depth
    code, out, _ = run(capsys, "color", str(_chain600(tmp_path)),
                       "--start", "a")
    assert code == 0
    assert "count:   1" in out.splitlines()


def test_directory_as_diagram_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "color", str(tmp_path), "--start", "a")
    assert code == 2
    assert err.startswith("error: ")


def test_readme_commands_golden(capsys, tmp_path, monkeypatch):
    # the README commands in both formats, pinned by exit code and a digest
    # of stdout (byte for byte)
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_f.txt").write_text("".join(
        f"{format_normal(g)}\t{format_normal(g)}\n" for g in ALL_ELEMENTS))
    for case in golden["readme"]:
        code, out, err = run(capsys, *case["argv"])
        assert (code, err) == (case["exit"], ""), case["argv"]
        assert (hashlib.sha256(out.encode()).hexdigest()
                == case["stdout_sha256"]), case["argv"]
