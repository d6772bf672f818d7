import pytest

from fsel_ids.schema import FeatureSchema, SchemaError, parse_schema


def test_parse_basic():
    schema = parse_schema("a,numeric\nb,nominal\nlabel,class\n")
    assert schema.names == ("a", "b", "label")
    assert schema.entries == (("a", "numeric"), ("b", "nominal"), ("label", "class"))


def test_parse_skips_comments_and_blanks():
    text = "# comment\n\na,numeric\n  # indented comment\nlabel,class\n"
    schema = parse_schema(text)
    assert schema.names == ("a", "label")


def test_parse_optional_header_row():
    schema = parse_schema("name,kind\na,numeric\nlabel,class\n")
    assert schema.names == ("a", "label")


def test_roundtrip():
    schema = parse_schema("a,numeric\nb,drop\nc,nominal\nlabel,class\n")
    again = parse_schema("".join(f"{name},{kind}\n" for name, kind in schema.entries))
    assert again == schema


def test_rejects_unknown_kind():
    with pytest.raises(SchemaError, match="kind"):
        parse_schema("a,integer\nlabel,class\n")


def test_rejects_duplicate_names():
    with pytest.raises(SchemaError, match="duplicate"):
        parse_schema("a,numeric\na,nominal\nlabel,class\n")


def test_rejects_missing_class():
    with pytest.raises(SchemaError, match="class"):
        parse_schema("a,numeric\nb,nominal\n")


def test_rejects_two_class_columns():
    with pytest.raises(SchemaError, match="class"):
        parse_schema("a,class\nb,class\n")


def test_rejects_malformed_line():
    with pytest.raises(SchemaError):
        parse_schema("a numeric\nlabel,class\n")


def test_constructor_validates_directly():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", "numeric"),))
