"""Property-based robustness tests for the language front end."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LangError, LexError, tokenize
from repro.lang.lexer import KEYWORDS
from repro.lang.interp import run_source
from repro.lang.parser import parse_module

# ----------------------------------------------------------------------
# Lexer robustness
# ----------------------------------------------------------------------
@given(source=st.text(max_size=200))
def test_lexer_never_crashes(source):
    """Arbitrary text either tokenizes or raises LexError — never a raw
    Python exception."""
    try:
        tokens = tokenize(source)
    except LexError:
        return
    assert tokens[-1].kind == "eof"


@given(value=st.integers(min_value=0, max_value=10**15))
def test_int_literals_lex_exactly(value):
    tokens = tokenize(str(value))
    assert tokens[0].kind == "int"
    assert tokens[0].value == value


@given(
    text=st.text(
        alphabet=st.characters(blacklist_characters='"\\\n', blacklist_categories=("Cs",)),
        max_size=50,
    )
)
def test_string_literals_lex_exactly(text):
    tokens = tokenize('"%s"' % text)
    assert tokens[0].kind == "string"
    assert tokens[0].value == text


@given(
    name=st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True).filter(
        lambda word: word not in KEYWORDS
    )
)
def test_identifiers_lex_exactly(name):
    tokens = tokenize(name)
    assert tokens[0].kind == "ident"
    assert tokens[0].value == name


# ----------------------------------------------------------------------
# Parser robustness
# ----------------------------------------------------------------------
@given(source=st.text(max_size=200))
@settings(max_examples=200)
def test_parser_never_crashes(source):
    """Arbitrary text parses or raises a LangError subclass."""
    try:
        parse_module(source)
    except LangError:
        pass


# ----------------------------------------------------------------------
# Generated expressions evaluate as Python evaluates them
# ----------------------------------------------------------------------
_int_expr = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=99).map(str),
        st.sampled_from(["x", "y"]),
    ),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
        lambda t: "(%s %s %s)" % t
    ),
    max_leaves=8,
)


@given(expr=_int_expr)
@settings(max_examples=100, deadline=None)
def test_generated_expressions_roundtrip(expr):
    """A fully parenthesised expression goes from source text through the
    lexer, parser, type checker and interpreter to the value Python's
    ``eval`` gives the same text."""
    source = "program main\n x: int := 1\n y: int := 2\n return (%s)\nend" % expr
    value, _system = run_source(source)
    assert value == eval(expr, {"x": 1, "y": 2})
