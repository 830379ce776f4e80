"""Logic-driven data augmentation over Abstract Meaning Representation graphs.

The package parses sentences from a controlled grammar into grammar structs
(AMR graphs only at the Penman boundary), rewrites them under four logical
equivalence laws (contraposition, implication, commutative, double
negation), verifies every rewrite against a propositional truth-table
oracle, and emits contrastive training pairs, augmented multiple-choice
prompts, altered deductive rule sets, and contrastive-loss evaluations.
"""

__version__ = "0.1.0"

from .graph import AmrGraph, Constant, ParseError, parse_penman, serialize
from .grammar import (
    CORE,
    EXTENDED,
    Clause,
    GrammarError,
    GrammarSentence,
    Shape,
    build_graph,
    canonicalize,
    parse_sentence,
    parse_sentence_struct,
    read_graph,
    realize,
    realize_struct,
)
from .lexicon import (
    Lexicon,
    LexiconError,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
    with_overrides,
)
from .logic import (
    And,
    Atom,
    Formula,
    Implies,
    LogicError,
    Not,
    Or,
    equivalent,
    is_tautology,
    to_formula,
)
from .laws import (
    LawError,
    LawKind,
    OracleViolation,
    RewriteOutcome,
    applicable_laws,
    apply_law,
    verify_outcome,
)
from .corpus import (
    PatternKind,
    SynthSentence,
    build_corpus,
    corpus_from_jsonl,
    corpus_to_jsonl,
    generate_atomic,
    generate_pattern,
)
from .pairs import (
    DatasetError,
    PairRecord,
    build_manifest,
    build_pairs,
    emit_jsonl,
    load_jsonl,
    split,
    verify_records,
)
from .prompt import (
    AugmentationTrace,
    McqRecord,
    PromptError,
    augment_file,
    augment_record,
    split_sentences,
)
from .pararule import PararuleError, alter_pararule_rules, alter_rule
from .scoring import (
    ScoreError,
    Triplet,
    contrastive_loss,
    load_triplets_tsv,
    score,
    triplet_loss,
)

__all__ = [
    "__version__",
    # graph
    "AmrGraph", "Constant", "ParseError", "parse_penman", "serialize",
    # grammar
    "CORE", "EXTENDED", "Clause", "GrammarError", "GrammarSentence", "Shape",
    "build_graph", "canonicalize", "parse_sentence", "parse_sentence_struct",
    "read_graph", "realize", "realize_struct",
    # lexicon
    "Lexicon", "LexiconError", "default_lexicon", "load_lexicon",
    "parse_lexicon", "with_overrides",
    # logic
    "And", "Atom", "Formula", "Implies", "LogicError", "Not", "Or",
    "equivalent", "is_tautology", "to_formula",
    # laws
    "LawError", "LawKind", "OracleViolation", "RewriteOutcome",
    "applicable_laws", "apply_law", "verify_outcome",
    # corpus
    "PatternKind", "SynthSentence", "build_corpus", "corpus_from_jsonl",
    "corpus_to_jsonl", "generate_atomic", "generate_pattern",
    # pairs
    "DatasetError", "PairRecord", "build_manifest", "build_pairs",
    "emit_jsonl", "load_jsonl", "split", "verify_records",
    # prompt
    "AugmentationTrace", "McqRecord", "PromptError", "augment_file",
    "augment_record", "split_sentences",
    # pararule
    "PararuleError", "alter_pararule_rules", "alter_rule",
    # scoring
    "ScoreError", "Triplet", "contrastive_loss", "load_triplets_tsv",
    "score", "triplet_loss",
]
