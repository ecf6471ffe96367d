"""Desk-scale toolkit for matrix summability over exact rationals.

Six layers, bottom up: a small language of structured subsets of N with
exact counting and densities (``setlang``); certified three-valued
membership verdicts for ideals on N (``ideals``); summability matrices,
transforms, and regularity (``summability``); strictly increasing index
selectors with an image metric (``sigma``); constructive witnesses —
escapes, oscillation certificates, adversaries (``constructions``); and
set games with auditable transcripts (``games``).  ``cli`` exposes all of
it as the ``subsum`` command.

Layers load on first use.  ``import subsum`` puts every layer in
``sys.modules`` as a lazy module (``importlib.util.LazyLoader``) that runs
its code on the first attribute read, so a command loads only the layers
it touches.  The names below resolve on first read of ``subsum.<name>``.
"""

import importlib.util
import sys

from ._version import __version__

_EXPORTS = {
    "setlang": """AP Complement DensityReport DyadicBlocks EnumerationCapError Finite
        Intersection Nu2Ge Powers2 SetDescription SetSyntaxError Shift Squares Tri Union
        density_csv density_report exact_density fraction_decimal is_finite least_members
        max_window_density member next_member nu2 parse_set render""",
    "ideals": """IdealPresentation IntervalPartition MembershipVerdict RestrictedIdeal
        RestrictionError UnsupportedIdealError nu2_column_audit parse_ideal
        restricted_blocks""",
    "summability": """CesaroMatrix ConditionReport DomainCheck DomainRiskError ExplicitMatrix
        GeneratorMatrix GeometricMatrix IdentityMatrix MatrixSpecError RegularityVerdict
        RowDropMatrix RowSeq SequenceSpec SequenceSpecError SummabilityMatrix
        TailToleranceError TransformPoint domain_check indicator_sequence parse_matrix
        parse_rle parse_row parse_sequence random_rowfinite_matrix regularity_verdict
        render_rle sequence_from_rle sequence_from_values transform_prefix
        validate_matrix_ideal""",
    "sigma": """IDENTITY_SELECTOR Consecutive FunctionalValue ImageUndecidableError
        MetricInterval RuleTail Selector SelectorSpecError metric modulus_of_continuity
        parse_selector sample_selector selector_transform""",
    "constructions": """AdversaryReport BoundaryMean ConstructionError EscapeResult
        IdealLimitVerdict MeagernessDemo OscillationCertificate OscillationPair
        PreconditionError escape_rowfinite escape_unbounded ideal_limit meagerness_demo
        oscillation_pair quantile_candidates steinhaus_adversary""",
    "games": """Adjudication GameRound GameTranscript GreedyMinStrategy IllegalMoveError
        PrefixDensityStrategy PrefixTakeStrategy ReplyStrategy SeededRandomStrategy
        StrategySearchError adjudicate nu2_tower_move parse_strategy play_game play_round
        replay_matches""",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_LAYER_OF]


def _lazy(layer):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({layer: _lazy(layer) for layer in _EXPORTS})


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_LAYER_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
