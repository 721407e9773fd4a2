import pytest

from frobtool.inputfile import (
    InputFileError,
    parse_input_file,
    parse_input_text,
    print_input_document,
)

KATZMAN = """\
char 2
vars x y z
ideal I = x*y, y*z
"""

MINORS = """\
char 3
vars u v w x y z
order grevlex
ideal I = v*z - w*y, w*x - u*z, u*y - v*x
"""


def test_katzman_document():
    doc = parse_input_text(KATZMAN)
    assert doc.ring.field.p == 2
    assert doc.ring.variables == ("x", "y", "z")
    assert len(doc.ideals) == 1
    assert len(doc.ideals["I"]) == 2


def test_composite_characteristic_rejected():
    with pytest.raises(InputFileError, match="characteristic must be prime"):
        parse_input_text("char 4\nvars x\nideal I = x\n")


def test_minors_document():
    doc = parse_input_text(MINORS)
    gens = doc.ideals["I"]
    assert len(gens) == 3
    assert all(g.weighted_degree() == 2 for g in gens)
    # v*z - w*y prints with its own coefficients, leading term first
    assert str(gens[0]) == "2*w*y + v*z"


def test_weights_and_order_lines():
    doc = parse_input_text("char 5\nvars x y\nweights 2 3\norder lex\nideal J = x^3 - y^2\n")
    assert doc.ring.weights == (2, 3)
    assert doc.ring.order.tag == "lex"
    assert doc.ideals["J"][0].is_homogeneous()


def test_degree_guard_option():
    doc = parse_input_text(KATZMAN + "degree_guard 50\n")
    assert doc.options["degree_guard"] == 50


def test_comments_and_blank_lines():
    doc = parse_input_text("# header\nchar 2\n\nvars x y  # trailing\nideal I = x*y\n")
    assert doc.ring.variables == ("x", "y")


def test_tab_separates_a_directive():
    doc = parse_input_text("char\t2\nvars\tx y\nweights \t1\t2\nideal\tI = x\n")
    assert (doc.ring.field.p, doc.ring.variables, doc.ring.weights) == (2, ("x", "y"), (1, 2))
    assert [str(g) for g in doc.ideals["I"]] == ["x"]
    with pytest.raises(InputFileError, match="unknown directive 'foo'"):
        parse_input_text("char 2\nvars x\nfoo\tbar\n")


class TestErrors:
    def test_missing_char(self):
        with pytest.raises(InputFileError, match="missing 'char'"):
            parse_input_text("vars x\n")

    def test_missing_vars(self):
        with pytest.raises(InputFileError, match="missing 'vars'"):
            parse_input_text("char 2\n")

    def test_unknown_directive(self):
        with pytest.raises(InputFileError, match="unknown directive"):
            parse_input_text("char 2\nvars x\nfoo bar\n")

    def test_zero_generator(self):
        with pytest.raises(InputFileError, match="zero generator"):
            parse_input_text("char 2\nvars x\nideal I = x - x\n")

    def test_unknown_variable_located(self):
        with pytest.raises(InputFileError, match="unknown variable 'q'"):
            parse_input_text("char 2\nvars x\nideal I = x*q\n")

    def test_duplicate_ideal(self):
        with pytest.raises(InputFileError, match="declared twice"):
            parse_input_text("char 2\nvars x\nideal I = x\nideal I = x\n")

    @pytest.mark.parametrize("head, first, second", [
        ("char", "char 2", "char 3"),
        ("vars", "vars x y", "vars a b"),
        ("weights", "weights 1 1", "weights 1 2"),
        ("order", "order lex", "order grevlex"),
        ("degree_guard", "degree_guard 50", "degree_guard 50"),
    ])
    def test_repeated_directive_located(self, head, first, second):
        """A second line of a directive must not replace the first in
        silence: `char 2` then `char 3` would compute over GF(3)."""
        base = {"char": "char 2", "vars": "vars x y"}
        lines = [base.get(h, h) for h in ("char", "vars") if h != head]
        text = "\n".join(lines + [first, "# between", second, "ideal I = x^2 + y^2"]) + "\n"
        with pytest.raises(InputFileError) as info:
            parse_input_text(text)
        assert info.value.line == len(lines) + 3
        assert str(info.value) == f"{head!r} declared twice (first on line " \
            f"{len(lines) + 1}) (line {len(lines) + 3})"

    def test_bad_variable_name(self):
        with pytest.raises(InputFileError, match="bad variable name"):
            parse_input_text("char 2\nvars 1x\n")

    def test_missing_ideal_lookup(self):
        doc = parse_input_text(KATZMAN)
        with pytest.raises(InputFileError, match="no ideal named 'J'"):
            doc.ideal("J")


def test_round_trip_is_identity():
    doc = parse_input_text(MINORS)
    printed = print_input_document(doc)
    again = parse_input_text(printed)
    assert again.ring == doc.ring
    assert again.ideals == doc.ideals
    assert again.options == doc.options
    assert print_input_document(again) == printed


def test_parse_input_file(tmp_path):
    path = tmp_path / "katzman.frob"
    path.write_text(KATZMAN, encoding="utf-8")
    doc = parse_input_file(path)
    assert doc.ideal("I").generators[0].weighted_degree() == 2
