"""The one exception type the pipeline raises on bad input.

Its message names the problem. The CLI turns it into exit 2, and
``extract`` into a per-image failure line; neither tells failures apart
by type, so there are no subclasses.
"""


class MammoscopeError(Exception):
    """A pipeline failure on bad input, as opposed to a programming error."""
