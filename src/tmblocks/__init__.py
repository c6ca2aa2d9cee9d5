"""Thue-Morse factor combinatorics, N-block substitutions, and injective
non-constant-length refinements, together with verifiers for the whole chain
of structural claims.

The public names are resolved on first access (PEP 562), so importing the
package, or one command of the CLI, loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    "eta_system": "claims",
    **dict.fromkeys(
        ("build_eta", "theorem_report", "verify_fixed_point", "verify_pair_images",
         "verify_primitivity_argument", "zeta5_fixture"),
        "injectivize"),
    **dict.fromkeys(("thue_morse_block_system", "verify_block_formula"), "nblock"),
    **dict.fromkeys(("CheckEntry", "VerificationReport"), "report"),
    **dict.fromkeys(("Substitution", "pf_eigenvalue"), "substitution"),
    **dict.fromkeys(
        ("FactorSet", "LevelFailed", "descendant_words", "enumerate_by_descendants",
         "enumerate_by_scan", "matches_descendants", "thue_morse_prefix", "verify_prefix_pairs",
         "verify_quarter_descendants", "verify_quarter_minima"),
        "thue_morse"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
