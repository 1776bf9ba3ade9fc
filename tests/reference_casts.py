"""Hand-written canonical forms of the record roots and opaque types.

These are the cast functions the builtin types had before ``record``
derived its printer from the grammar. The tests keep them as the
reference that printer is checked against, so that no oracle shares the
printer it checks.
"""

from strtype.builtins import _format_number


def cast_colour(c):
    return f"#{c.red:02x}{c.green:02x}{c.blue:02x}"


def cast_unit(u):
    if u.unit == "auto":
        return "auto"
    return _format_number(u.value) + u.unit


def cast_email(e):
    return f"{e.name}@{e.domain_left}.{e.domain_right}"


def cast_phone(p):
    return f"{p.area}-{p.office}-{p.uniq:04d}"


def cast_inner_r(v):
    return f"{v.left}r{v.right}"


def cast_opaque(opaque):
    return opaque.raw


REFERENCE_CASTS = {
    "CssColour": cast_colour,
    "CssUnit": cast_unit,
    "Email": cast_email,
    "USPhone": cast_phone,
    "InnerR": cast_inner_r,
    "Sanitised": cast_opaque,
    "UserName": cast_opaque,
}
