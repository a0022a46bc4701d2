"""Keep Hypothesis draws independent of the library's source text.

Hypothesis mixes literals found in the loaded local modules (here ``allocmap``
and the tests) into its draws, so deleting a constant from the library could
change what a property test draws, even under ``derandomize`` or ``@seed``.
The hook is read before it is replaced, so a Hypothesis version without it
fails at import instead of silently drawing from the source text again.
"""

from hypothesis.internal.conjecture import providers

providers._get_local_constants
providers._get_local_constants = lambda: providers.Constants()
