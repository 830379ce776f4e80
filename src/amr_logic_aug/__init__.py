"""Logic-driven data augmentation over Abstract Meaning Representation graphs.

The package parses sentences from a controlled grammar into grammar structs
(AMR graphs only at the Penman boundary), rewrites them under four logical
equivalence laws (contraposition, implication, commutative, double
negation), verifies every rewrite against a propositional truth-table
oracle, and emits contrastive training pairs, augmented multiple-choice
prompts, altered deductive rule sets, and contrastive-loss evaluations.

The package root exports only ``__version__``; import the submodules
(``amr_logic_aug.grammar``, ``amr_logic_aug.laws``, ...) for the rest.
"""

__version__ = "0.1.0"
