"""The contract of strtype's records.

The records are slotted classes written by hand, not dataclasses. They
keep what the dataclasses gave them: frozen fields (except the parse
outcomes ``Success`` and ``Failure``), equality and hashing by class and
fields, the ``Name(field=value, ...)`` repr, ``__match_args__``, and copy
and pickle support. The structures a type's grammar builds
(``patterns.Structure`` records) also keep the ``dataclasses`` API:
``fields``, ``replace``, ``asdict`` and ``is_dataclass`` accept them, and so
does ``copy.replace`` where Python has it.
"""

import copy
import dataclasses
import pickle

import pytest

import strtype.builtins
import strtype.cli
import strtype.combinators
import strtype.core
import strtype.ops
import strtype.patterns
from strtype.builtins import Add, Const, Mult, build_registry
from strtype.combinators import Failure, Success
from strtype.core import Err, ErrorKind, Ok, OpError, ParsedString, ParseError, StringType
from strtype.ops import Projection
from strtype.patterns import _Alt, _Cls, _Rep, _Seq

REG = build_registry()
GMAIL = REG.get("Gmail")
VALUE = REG.from_raw("Gmail", "me@gmail.com").value
PARSE = ParseError(3, "'@'", "Email")
OP = OpError(ErrorKind.PARSE, "not an Email", PARSE, "name")
A_TO_Z = _Cls(((97, 122),))


def parsed(type_name, raw):
    return lambda: REG.from_raw(type_name, raw).value.structure


# (make, repr at the time the records were dataclasses, __match_args__).
# ``make`` is called twice to get equal records that are not the same object.
RECORDS = {
    "_Cls": (lambda: _Cls(((97, 122),)), "_Cls(spans=((97, 122),))", ("spans",)),
    "_Seq": (lambda: _Seq((A_TO_Z, A_TO_Z)),
             f"_Seq(parts=({A_TO_Z!r}, {A_TO_Z!r}))", ("parts",)),
    "_Alt": (lambda: _Alt((A_TO_Z,)), f"_Alt(options=({A_TO_Z!r},))", ("options",)),
    "_Rep": (lambda: _Rep(A_TO_Z, 1, None),
             f"_Rep(node={A_TO_Z!r}, low=1, high=None)", ("node", "low", "high")),
    "ParseError": (lambda: ParseError(3, "'@'", "Email"),
                   "ParseError(pos=3, expected=\"'@'\", type_name='Email')",
                   ("pos", "expected", "type_name")),
    "OpError": (lambda: OpError(ErrorKind.PARSE, "not an Email", PARSE, "name"),
                f"OpError(kind=<ErrorKind.PARSE: 'parse_error'>, detail='not an Email', "
                f"parse={PARSE!r}, field='name')", ("kind", "detail", "parse", "field")),
    "Ok": (lambda: Ok(1), "Ok(value=1)", ("value",)),
    "Err": (lambda: Err(OP), f"Err(error={OP!r})", ("error",)),
    "StringType": (lambda: StringType(GMAIL.name, GMAIL.recognizer, GMAIL.cast_fn,
                                      GMAIL.fields, GMAIL.checks),
                   f"StringType(name='Gmail', recognizer={GMAIL.recognizer!r}, "
                   f"cast_fn={GMAIL.cast_fn!r}, fields=('name', 'domain_left', "
                   f"'domain_right'), checks={GMAIL.checks!r}, parent=None)",
                   ("name", "recognizer", "cast_fn", "fields", "checks")),
    "ParsedString": (lambda: REG.from_raw("Gmail", "me@gmail.com").value,
                     f"ParsedString(type_name='Gmail', structure={VALUE.structure!r})",
                     ("structure", "spans", "raw")),
    "Projection": (lambda: Projection("me", "Gmail", "name"),
                   "Projection(value='me', origin_type='Gmail', field_name='name')",
                   ("value", "origin_type", "field_name")),
    "Const": (lambda: Const(1), "Const(n=1)", ("n",)),
    "Add": (lambda: Add(Const(1), Const(2)), "Add(l=Const(n=1), r=Const(n=2))", ("l", "r")),
    "Mult": (lambda: Mult(Const(1), Add(Const(2), Const(3))),
             "Mult(l=Const(n=1), r=Add(l=Const(n=2), r=Const(n=3)))", ("l", "r")),
    "Success": (lambda: Success(7, 1), "Success(value=7, end=1)", ("value", "end")),
    "Failure": (lambda: Failure(0, "x"), "Failure(pos=0, expected='x')", ("pos", "expected")),
    # The structures, each as its type's parse builds it.
    "Opaque": (parsed("UserName", "bob"), "Opaque(raw='bob')", ("raw",)),
    "CssColour": (parsed("CssColour", "#1A2B3C"), "CssColour(red=26, green=43, blue=60)",
                  ("red", "green", "blue")),
    "CssUnit": (parsed("CssUnit", "1.5px"), "CssUnit(value=1.5, unit='px')",
                ("value", "unit")),
    "Email": (parsed("Email", "me@gmail.com"),
              "Email(name='me', domain_left='gmail', domain_right='com')",
              ("name", "domain_left", "domain_right")),
    "FilePath": (parsed("FilePath", "/home/.vimrc"),
                 "FilePath(absolute=True, dirs=('home',), file_name='.vimrc', ext=None, "
                 "separator='/')", ("absolute", "dirs", "file_name", "ext", "separator")),
    "USPhone": (parsed("USPhone", "212-555-0100"), "USPhone(area=212, office=555, uniq=100)",
                ("area", "office", "uniq")),
    "EqualAandB": (parsed("EqualAandB", "aabb"), "EqualAandB(count=2)", ("count",)),
    "InnerR": (parsed("InnerR", "bar"), "InnerR(left='ba', right='')", ("left", "right")),
}
STRUCTURES = ("Opaque", "CssColour", "CssUnit", "Email", "FilePath", "USPhone",
              "EqualAandB", "InnerR")
OUTCOMES = ("Success", "Failure")
FROZEN = sorted(set(RECORDS) - set(OUTCOMES))
# Records whose fields all pickle; a descriptor or parsed value holds parsers
# built from lambdas.
PICKLABLE = sorted(set(RECORDS) - {"StringType", "ParsedString"})


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    make, _, match_args = RECORDS[name]
    record = make()
    for field in match_args:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
    assert record == make()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_have_no_instance_dict(name):
    assert not hasattr(RECORDS[name][0](), "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_alike(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != ()


def test_equality_is_by_class_and_fields():
    assert Ok(1) == Ok(1)
    assert Ok(1) != Ok(2)
    assert Ok(OP) != Err(OP) and Err(OP) != Ok(OP)
    assert ParseError(3, "x") == ParseError(3, "x", "")
    assert ParseError(3, "x") != ParseError(3, "x", "Email")
    assert Projection(1, "T", "f") != Projection(1, "T", "g")
    assert Const(1) != Add(Const(1), Const(1))
    assert len({Ok(1), Ok(1), Err(OP), Err(OP)}) == 2


def test_string_types_compare_and_hash_by_every_field():
    email = REG.get("Email")
    assert email != GMAIL
    rebuilt = StringType(email.name, email.recognizer, email.cast_fn, email.fields,
                         tuple(email.checks))
    assert rebuilt == email and hash(rebuilt) == hash(email)
    # A subtype's parent is compared too.
    assert StringType(GMAIL.name, GMAIL.recognizer, GMAIL.cast_fn, GMAIL.fields,
                      GMAIL.checks) != GMAIL
    # So are its checks, and a different set of them hashes differently.
    fewer = StringType(email.name, email.recognizer, email.cast_fn, email.fields,
                       email.checks[:1])
    assert fewer != email and hash(fewer) != hash(email)
    assert len({REG.get(name) for name in REG.names()}) == len(REG.names())
    with pytest.raises(TypeError):
        StringType("T", email.recognizer, email.cast_fn, parent="Email")


def test_parsed_strings_compare_by_type_name_and_structure():
    other_raw = REG.from_raw("Gmail", "me@gmail.com").value
    assert other_raw == VALUE and hash(other_raw) == hash(VALUE)
    assert VALUE.widen("Email") != VALUE
    assert VALUE.widen("Email").narrow("Gmail") == Ok(VALUE)
    # The tracer in the benchmark wraps these three on the class itself.
    assert {"narrow", "cast", "__hash__"} <= set(ParsedString.__dict__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    make, expected, _ = RECORDS[name]
    assert repr(make()) == expected


def test_subtype_repr_shows_its_parent():
    assert repr(GMAIL).endswith(", parent='Email')")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_match_args_are_the_constructor_fields(name):
    make, _, match_args = RECORDS[name]
    assert type(make()).__match_args__ == match_args


def test_records_match_positionally():
    match Err(OpError(ErrorKind.CLOSURE, "too long")):
        case Err(OpError(ErrorKind.CLOSURE, detail)):
            assert detail == "too long"
        case _:
            pytest.fail("no case matched")
    match Add(Const(1), Const(2)):
        case Add(Const(n), r):
            assert (n, r) == (1, Const(2))
        case _:
            pytest.fail("no case matched")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_are_equal(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("name", PICKLABLE)
def test_pickle_round_trips(name):
    record = RECORDS[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record


def test_deep_copies_share_descriptors_and_the_registry():
    assert copy.deepcopy(GMAIL) is GMAIL
    clone = copy.deepcopy(VALUE)
    assert clone == VALUE and clone.registry is REG
    assert clone.spans == VALUE.spans and clone.spans is not VALUE.spans
    tree = REG.from_raw("Expr", "1 + 2").value
    assert copy.deepcopy(tree).structure is not tree.structure


def test_a_copied_subtype_keeps_its_parent_and_checks():
    clone = copy.copy(GMAIL)
    assert (clone.parent, clone.checks) == ("Email", GMAIL.checks)


@pytest.mark.parametrize("name", STRUCTURES)
def test_structures_hash_as_the_tuple_of_their_fields(name):
    make, _, names = RECORDS[name]
    structure = make()
    assert hash(structure) == hash(tuple(getattr(structure, f) for f in names))


@pytest.mark.parametrize("name", STRUCTURES)
def test_structures_take_their_fields_positionally_or_by_keyword(name):
    make, _, names = RECORDS[name]
    structure = make()
    values = {f: getattr(structure, f) for f in names}
    cls = type(structure)
    assert cls(*values.values()) == cls(**values) == structure


@pytest.mark.parametrize("name", STRUCTURES)
def test_structures_keep_the_dataclasses_api(name):
    make, _, names = RECORDS[name]
    structure = make()
    cls = type(structure)
    for target in (cls, structure):
        assert dataclasses.is_dataclass(target)
        assert tuple(f.name for f in dataclasses.fields(target)) == names
    assert dataclasses.asdict(structure) == {f: getattr(structure, f) for f in names}
    assert dataclasses.replace(structure) == structure
    first, rest = names[0], names[1:]
    changed = dataclasses.replace(structure, **{first: "x"})
    assert type(changed) is cls and getattr(changed, first) == "x"
    assert [getattr(changed, f) for f in rest] == [getattr(structure, f) for f in rest]
    with pytest.raises(TypeError):
        dataclasses.replace(structure, nope=1)
    if hasattr(copy, "replace"):  # Python 3.13
        assert copy.replace(structure, **{first: "x"}) == changed


def test_structure_fields_keep_their_annotated_types():
    assert [(f.name, f.type) for f in dataclasses.fields(strtype.builtins.CssUnit)] == [
        ("value", "float | None"), ("unit", "str")]


def test_only_structures_are_dataclasses():
    # Generating dataclass methods is most of the package's import time, so
    # no class is made a dataclass at import. The structures, which callers
    # list and replace fields of, answer as dataclasses through the
    # ``Structure`` base, which itself does not.
    modules = (strtype.patterns, strtype.combinators, strtype.core,
               strtype.builtins, strtype.ops, strtype.cli)
    found = {cls.__name__ for module in modules
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)}
    assert found == {"Opaque", "CssColour", "CssUnit", "Email", "FilePath",
                     "USPhone", "EqualAandB", "InnerR"}
