"""falab: a workbench for byte-alphabet finite automata.

Compile regexes and pattern families to NFAs, optimize them by behavioral
state merging, determinize, minimize two independent ways, prove the
transformations language-preserving, and simulate rule sets over byte
streams with active-rule analytics.
"""

from ._version import __version__
from .core import (Automaton, StartKind, StatsSummary, SymbolClass,
                   canonicalize, isomorphic, stats, validate)
from .generators import (DotStarSource, HammingSource, LevenshteinSource,
                         Pattern, RandomRecipe, RegexSource, SplitMix64,
                         compile_pattern, gen_dotstar, gen_hamming,
                         gen_levenshtein, gen_mesh_patterns,
                         gen_random_automaton)
from .regex import RegexParseError, compile_regex, reference_match
from .simulate import (ActiveRuleStats, SimulationTrace, Simulator,
                       active_rule_frequency, available_kernels,
                       default_kernel, run)
from .transform import (CapExceededError, accepts, brute_force_minimal_states,
                        connected_components, determinize, equivalent,
                        merge_patterns, minimize_brzozowski,
                        minimize_hopcroft, optimize_nfa, remove_epsilon, trim)

__all__ = [
    "__version__",
    "Automaton", "StartKind", "StatsSummary", "SymbolClass",
    "canonicalize", "isomorphic", "stats", "validate",
    "Pattern", "RegexSource", "DotStarSource", "HammingSource",
    "LevenshteinSource", "RandomRecipe", "SplitMix64",
    "compile_pattern", "gen_dotstar", "gen_hamming", "gen_levenshtein",
    "gen_mesh_patterns", "gen_random_automaton",
    "RegexParseError", "compile_regex", "reference_match",
    "ActiveRuleStats", "SimulationTrace", "Simulator",
    "active_rule_frequency", "available_kernels", "default_kernel", "run",
    "CapExceededError", "accepts", "brute_force_minimal_states",
    "connected_components", "determinize", "equivalent", "merge_patterns",
    "minimize_brzozowski", "minimize_hopcroft", "optimize_nfa",
    "remove_epsilon", "trim",
]
