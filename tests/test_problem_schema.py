"""The problem-file schema walker against a reference draft-07 validator."""

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertoric.errors import ProblemFormatError
from hypertoric.pipeline import ANALYSES, PROBLEM_SCHEMA, _check_schema

DRAFT7 = jsonschema.Draft7Validator(PROBLEM_SCHEMA)

# near-miss strings: a zero denominator passes the pattern (parse_problem
# rejects it later), "2\n" passes it because draft-07 patterns use re.search
STRINGS = st.sampled_from(["1/0", "2\n", " 1", "-1/2", "3", "x", "", "windows", *ANALYSES])
SCALARS = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.none(),
    st.integers(-3, 8).map(float),
    st.floats(allow_nan=False),
    STRINGS,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(STRINGS, inner, max_size=2),
    max_leaves=6,
)
INTS = st.lists(st.integers(-2, 2), max_size=3)
# per key, a value of the right shape (some still out of range)
FIELDS = {
    "name": st.text(max_size=3),
    "torus_rank": st.integers(-1, 3),
    "half_weights": st.lists(INTS, max_size=3),
    "chi": INTS,
    "epsilon": st.none() | INTS,
    "xi": st.lists(st.integers(-2, 2) | STRINGS, max_size=3),
    "truncation": st.integers(0, 8),
    "depth": st.integers(-1, 5),
    "analyses": st.lists(st.sampled_from([*ANALYSES, "windows"]), max_size=3),
}
REQUIRED = PROBLEM_SCHEMA["required"]


@st.composite
def documents(draw):
    """A well-shaped problem object, then up to two keys dropped or set to anything."""
    doc = draw(st.fixed_dictionaries(
        {key: FIELDS[key] for key in REQUIRED},
        optional={key: value for key, value in FIELDS.items() if key not in REQUIRED},
    ))
    for key in draw(st.lists(st.sampled_from([*FIELDS, "unknown"]), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(VALUES)
    return doc


CONIFOLD = {"torus_rank": 1, "half_weights": [[1], [1]], "chi": [1]}


def _walker_accepts(doc) -> bool:
    try:
        _check_schema(doc, PROBLEM_SCHEMA)
    except ProblemFormatError:
        return False
    return True


def _has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    if isinstance(value, dict):
        return any(_has_float(v) for v in value.values())
    return False


@settings(max_examples=300, deadline=None)
@given(documents() | VALUES)
@example(CONIFOLD)
@example({**CONIFOLD, "xi": [True]})
@example({**CONIFOLD, "xi": ["1/0"]})
@example({**CONIFOLD, "xi": ["2\n"]})
@example({**CONIFOLD, "xi": [" 1"]})
@example({**CONIFOLD, "truncation": 6.0})
@example({**CONIFOLD, "chi": [1.5]})
@example({**CONIFOLD, "analyses": []})
@example({**CONIFOLD, "unknown_field": 1})
@example({"torus_rank": 1, "half_weights": [[1]]})
def test_walker_agrees_with_draft7(doc):
    ours, theirs = _walker_accepts(doc), DRAFT7.is_valid(doc)
    # the one allowed difference: an integral float is no integer here
    assert ours == theirs or (theirs and _has_float(doc))
