"""The config parser against configparser, the format it replaced.

`read_ini` must accept exactly the texts that
ConfigParser(inline_comment_prefixes=("#",), interpolation=None) accepts,
with the same sections and values, and refuse every other text with a
ConfigError.  configparser is the independent path: the package never
imports it.
"""

import configparser

from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_lab.config import read_ini
from minmax_lab.errors import ConfigError


def configparser_read(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


def outcome(read, text, errors):
    """The sections `read` returns, or None where it raises one of `errors`."""
    try:
        return read(text)
    except errors:
        return None


# Few names and keys, so that duplicates are common.  "DEFAULT" is left out:
# configparser merges that section into every other, read_ini does not.
NAMES = st.sampled_from(["model", "loss squared", "a b", "A", "x]y", " pad "])
KEYS = st.sampled_from(["n", "N", "Key", "kEY", "two words", "[k", "p", "sigma", "lo", "hi"])
INDENT = st.sampled_from(["", " ", "  ", "\t", "\x0c"])
SPACE = st.sampled_from(["", " ", "\t"])
VALUE = st.text(alphabet="ab1 %=:;#\t\x0c[]", max_size=8)
COMMENT = st.sampled_from(["", " # note", "\t#note", "# glued", " ; semi", " #", "#"])

HEADER = st.builds(lambda i, n, tail, c: f"{i}[{n}]{tail}{c}",
                   INDENT, NAMES, st.sampled_from(["", " tail", "]"]), COMMENT)
OPTION = st.builds(lambda i, k, s1, d, s2, v, c: f"{i}{k}{s1}{d}{s2}{v}{c}",
                   INDENT, KEYS, SPACE, st.sampled_from(["=", ":"]), SPACE, VALUE, COMMENT)
FULL_COMMENT = st.builds(lambda i, p, v: f"{i}{p}{v}", INDENT, st.sampled_from(["#", ";"]),
                         VALUE)
CONTINUATION = st.builds(lambda i, v, c: f"{i}{v}{c}",
                         st.sampled_from([" ", "  ", "    ", "\t", " \x0c"]), VALUE, COMMENT)
BLANK = st.sampled_from(["", " ", "\t", "  \x0c", "\x0c"])
BAD = st.sampled_from(["no delimiter", "= keyless", ": keyless", "[]", "[unclosed"])
LINE = st.one_of(HEADER, OPTION, FULL_COMMENT, CONTINUATION, BLANK, BAD)
# an option with the lines that may continue it, under a header
VALUE_LINES = st.builds(lambda option, rest: [option, *rest], OPTION,
                        st.lists(st.one_of(CONTINUATION, CONTINUATION, BLANK, FULL_COMMENT),
                                 max_size=3))
SECTION = st.builds(lambda header, values: [header, *sum(values, [])], HEADER,
                    st.lists(VALUE_LINES, max_size=4))

# Texts that start with a section, so that the rest of the file is read
# (and an error is not almost always the first line), and raw texts over a
# small alphabet that holds every character the syntax gives a meaning.
COMPOSED = st.builds(lambda first, rest, end: "\n".join(first + sum(rest, [])) + end,
                     SECTION, st.lists(st.one_of(SECTION, LINE.map(lambda line: [line])),
                                       max_size=4),
                     st.sampled_from(["", "\n"]))
RAW = st.text(alphabet="ab[]=:#; \t\x0c\nAB", max_size=40)


@settings(max_examples=400)
@given(st.one_of(COMPOSED, COMPOSED, RAW))
def test_reads_exactly_what_configparser_reads(text):
    expected = outcome(configparser_read, text, configparser.Error)
    assert outcome(lambda t: read_ini(t, "run.cfg"), text, ConfigError) == expected


def test_value_syntax():
    text = ("[model]\n"
            "Key = a # note\n"          # a comment after whitespace
            "glued: b#c\n"              # no comment without it
            "semi = c ; d\n"            # ; is never inline
            "long = e\n"
            "  f\n"                     # a continuation line
            "\n"                        # a blank line inside the value
            "  # skipped\n"             # a comment line is no part of it
            "\tg\x0ch\n"                # a form feed is no line break
            "  \n"                      # trailing blank lines are dropped
            "empty =\n"
            "  i\n"
            "[x] trailing\n"            # text after the last ] is ignored
            "%(p)s = %(q)s\n")          # nothing is interpolated
    assert read_ini(text, "run.cfg") == {
        "model": {"key": "a", "glued": "b#c", "semi": "c ; d", "long": "e\nf\n\ng\x0ch",
                  "empty": "\ni"},
        "x": {"%(p)s": "%(q)s"},
    }
    assert read_ini(text, "run.cfg") == configparser_read(text)
