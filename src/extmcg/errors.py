"""Exception bases shared across modules.

A ParseError means the input could not be read (bad syntax, a malformed
document); the command line maps it to exit status 2.  This module
imports nothing, so the command line can catch it without loading the
modules that raise it.
"""


class ParseError(ValueError):
    """Malformed input: it could not be parsed into the expected shape."""
