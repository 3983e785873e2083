"""Knowledge-graph reasoning with a relational message-passing transformer."""

__version__ = "0.1.0"


class UserError(Exception):
    """A mistake the operator can fix: a bad flag, setting, path or file content.

    The command line exits 2 on this family and 1 on every other exception,
    so each module's errors derive from it exactly when the operator's input
    is at fault.
    """
