"""The layers of probrep as the traced run sees them.

Each span group names the public functions whose calls it times, in the
module that defines them. The wrapper (trace_wrapper.py) wraps every
function listed here in that module and in every probrep module that
imported it by name, so calls between modules are caught as well.

A group's self time is the time spent inside its functions minus the time
covered by spans nested inside them. The per-layer metrics below are
computed from those spans, per pass over a workload's invocation list.
"""

# (span group, defining module, function names or fnmatch patterns).
# A function belongs to the first group whose pattern matches it, so
# "*_from_payload" (read) must come before "*_payload" (write).
SPAN_GROUPS = (
    ("operators.validate", "probrep.operators",
     ("make_povm", "validate_density", "make_prob_vector", "make_ket")),
    ("operators.random", "probrep.operators",
     ("random_density", "random_povm", "random_pure_state")),
    ("operators.born_probabilities", "probrep.operators", ("born_probabilities",)),
    ("sic.search", "probrep.sic", ("sic_search",)),
    ("sic.certify", "probrep.sic",
     ("sic_certify", "frame_potential", "max_sic_deviation", "wh_orbit")),
    ("born.reference", "probrep.born",
     ("make_reference", "random_reference", "reference_from_fiducial", "sic_reference")),
    ("born.rules", "probrep.born",
     ("state_to_prob", "povm_to_cond", "urgleichung_general", "urgleichung_sic",
      "classical_law", "prob_to_state", "classicality_gap")),
    ("born.inputs", "probrep.born", ("random_ic_inputs",)),
    ("correlations.table", "probrep.correlations",
     ("correlation_table", "embedded_correlation_table", "make_table", "angle_family")),
    ("correlations.analysis", "probrep.correlations",
     ("chsh_value", "no_signalling_check", "steering_ensembles")),
    ("sampling.draw", "probrep.sampling", ("sample_outcomes", "data_table_sim")),
    ("sampling.interval", "probrep.sampling", ("binomial_interval_prob",)),
    ("serialize.read", "probrep.serialize", ("*_from_payload",)),
    ("serialize.write", "probrep.serialize", ("dumps", "*_payload", "*_csv")),
    ("cli", "probrep.cli", ("main",)),
)

# The span the wrapper records around `import probrep.cli`.
IMPORT_GROUP = "import"

LAYERS = ("import", "operators", "sic", "born", "correlations", "sampling", "serialize", "cli")

# Per-layer metrics: (name, unit, better, kind, key). kind is one of
#   self    - summed self time of span group `key`, seconds
#   calls   - number of spans of group `key`
#   work    - summed work count recorded on spans of group `key`
#   errors  - exceptions that left a span of layer `key`
#   special - computed by run.py (import time, restart ratio, known defects,
#             trace overhead)
PER_LAYER = (
    ("import.probrep_s", "s", "lower", "special", "importtime"),
    ("operators.validate.calls", "count", "lower", "calls", "operators.validate"),
    ("operators.validate.self_s", "s", "lower", "self", "operators.validate"),
    ("operators.random.self_s", "s", "lower", "self", "operators.random"),
    ("operators.born_probabilities.self_s", "s", "lower", "self", "operators.born_probabilities"),
    ("sic.search.calls", "count", "lower", "calls", "sic.search"),
    ("sic.search.restarts", "count", "lower", "work", "sic.search"),
    ("sic.search.self_s", "s", "lower", "self", "sic.search"),
    ("sic.restarts_per_fiducial", "restart/fiducial", "lower", "special", "restarts_per_fiducial"),
    ("sic.certify.self_s", "s", "lower", "self", "sic.certify"),
    ("born.reference.calls", "count", "lower", "calls", "born.reference"),
    ("born.reference.self_s", "s", "lower", "self", "born.reference"),
    ("born.rules.calls", "count", "lower", "calls", "born.rules"),
    ("born.rules.self_s", "s", "lower", "self", "born.rules"),
    ("born.inputs.self_s", "s", "lower", "self", "born.inputs"),
    ("correlations.table.calls", "count", "lower", "calls", "correlations.table"),
    ("correlations.table.self_s", "s", "lower", "self", "correlations.table"),
    ("correlations.analysis.self_s", "s", "lower", "self", "correlations.analysis"),
    ("sampling.draws", "count", "lower", "work", "sampling.draw"),
    ("sampling.draw.self_s", "s", "lower", "self", "sampling.draw"),
    ("sampling.interval.terms", "count", "lower", "work", "sampling.interval"),
    ("sampling.interval.self_s", "s", "lower", "self", "sampling.interval"),
    ("sampling.interval.known_defects", "count", "lower", "special", "known_defects"),
    ("serialize.write.bytes", "bytes", "lower", "work", "serialize.write"),
    ("serialize.write.self_s", "s", "lower", "self", "serialize.write"),
    ("serialize.read.calls", "count", "lower", "calls", "serialize.read"),
    ("serialize.read.self_s", "s", "lower", "self", "serialize.read"),
    ("cli.invocations", "count", "lower", "calls", "cli"),
    ("cli.self_s", "s", "lower", "self", "cli"),
    *((f"{layer}.errors", "count", "lower", "errors", layer) for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower", "special", "overhead"),
)

# Which end-to-end metric each layer should move, and on which workload.
MOVES = {
    "import": "setup_s on every workload; cmd_p50_s on experiments",
    "operators": "wall_s on born-sweep",
    "sic": "wall_s on sic-search; wall_s and cmd_tail_s on born-sweep (sic_reference at d >= 4)",
    "born": "wall_s on born-sweep; born.reference also cmd_p50_s on experiments (file-fed references)",
    "correlations": "wall_s on experiments",
    "sampling": "wall_s and cmd_tail_s on experiments",
    "serialize": "cmd_p50_s on experiments",
    "cli": "wall_s on born-sweep (argparse, file I/O, the per-trial loop of born-check)",
}
