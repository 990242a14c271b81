"""Exception hierarchy with stable machine-readable error codes.

Every error the library can raise on user input carries a distinct ``code``
string; the command line interface emits it as ``{"error": code, ...}`` and
exits with status 2. ``TooLarge`` reports a request past a documented size
limit (the fuzz harness's ``max_surgery`` and ``max_link``) and, on the
command line, an answer with an integer too long for the interpreter to
print. ``json_int`` is the one integer check at the JSON input boundary, so
a float, a bool or a numeric string is refused, never truncated.
"""


class IdelinkError(Exception):
    """Base class for all input-validation errors raised by this package."""

    code = "error"


class AsymmetricMatrix(IdelinkError):
    """A matrix that must be symmetric (or have zero diagonal) is not."""

    code = "asymmetric_matrix"


class NotQHS3(IdelinkError):
    """The surgery matrix is singular, so the result is not a rational homology sphere."""

    code = "not_qhs3"


class BadDimensions(IdelinkError):
    """Matrix or vector shapes do not match the declared component counts."""

    code = "bad_dimensions"


class DuplicateName(IdelinkError):
    """Surgery component and knot names must be pairwise distinct."""

    code = "duplicate_name"


class UnknownKnot(IdelinkError):
    """A referenced knot or surgery component was never declared."""

    code = "unknown_knot"


class SelfLinking(IdelinkError):
    """Linking numbers of a knot with itself are not defined here."""

    code = "self_linking"


class MismatchedKnot(IdelinkError):
    """Peripheral classes on different boundary tori cannot be combined."""

    code = "mismatched_knot"


class SupportOutsideLink(IdelinkError):
    """An idele has a nonzero component at a knot outside the chosen sublink."""

    code = "support_outside_link"


class DivisorNotPrincipal(IdelinkError):
    """The divisor's class in H1 of the ambient manifold is nonzero."""

    code = "divisor_not_principal"


class CoverIllDefined(IdelinkError):
    """The proposed cover values do not annihilate a presentation relation."""

    code = "cover_ill_defined"


class KnotOutsideLink(IdelinkError):
    """A local operation referenced a knot outside the cover's sublink."""

    code = "knot_outside_link"


class NotAdmissible(IdelinkError):
    """The sublink's knot classes do not generate H1 of the manifold."""

    code = "not_admissible"


class BadModulus(IdelinkError):
    """Cyclic cover moduli must be at least 2."""

    code = "bad_modulus"


class BadInput(IdelinkError):
    """Malformed JSON or schema violation at the input boundary."""

    code = "bad_input"


class TooLarge(IdelinkError):
    """A request past a size limit, or an answer longer than ``sys.get_int_max_str_digits()`` allows to print."""

    code = "too_large"


def json_int(value, what: str) -> int:
    """``value`` itself when it is an integer (a bool is not), else BadInput."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise BadInput(f"{what} must be an integer, got {value!r}")


def json_names(value, what: str) -> list[str]:
    """``value`` itself when it is a list of strings, else BadInput."""
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return value
    raise BadInput(f"{what} must be a list of strings, got {value!r}")
