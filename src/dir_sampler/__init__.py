"""Dynamic item response model: data types, Gibbs sampler, CLI.

Import each name from the submodule that defines it; importing the package
loads none of them, so each CLI stage imports only what it runs (see ``cli``).
"""

__version__ = "0.1.0"
