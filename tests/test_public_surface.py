"""The public surface: package names, their signatures, CLI verbs and options, exit codes.

A change here changes what users of the package or the command line rely on;
internal refactors must leave every table below as it is.
"""

import argparse
import inspect
import types

import bagkit
from bagkit import cli

# The names ``bagkit.__all__`` lists, with the errors below: the names
# ``from bagkit import *`` binds.
SIGNATURES = {
    "BootstrapPlan": "(n, m, dataset_size, base_seed, first_level, second_level)",
    "BootstrapSample": "(source_size, indices, seed)",
    "ConfigResult": (
        "(config_id, task_accuracy, task_macro_f1, avg_accuracy, experiment_type, models, "
        "total_params)"
    ),
    "Dataset": "(name, examples, num_classes)",
    "Ensemble": "(members, num_classes)",
    "EnsembleConfig": "(config_id, config_type, members, tasks, base_seed)",
    "EvalResult": "(accuracy, macro_f1, per_class_f1, num_examples)",
    "Example": "(id, text_a, label, text_b=None)",
    "FeatureSpec": "(dims=32768, ngram_max=1, lowercase=True)",
    "Hyperparams": "(learning_rate=0.5, epochs=30, l2=0.0001, hidden_size=0, seed=0)",
    "MemberSpec": (
        "(model_kind, feature_spec=FeatureSpec(dims=32768, ngram_max=1, lowercase=True), "
        "hyper_override=None, prune_fraction=0.0, bagged=False)"
    ),
    "Model": "(spec, hyper, num_classes, params)",
    "PruneSpec": "(fraction)",
    "SplitSpec": "(fraction=0.5, seed=0, stratified=True)",
    "TaskData": "(train, val, test, metric='accuracy')",
    "VarianceReport": (
        "(task, model, n, m, metric, singles, ensembles, single_mean, single_std, "
        "ensemble_mean, ensemble_std)"
    ),
    "accuracy": "(predictions, labels)",
    "bootstrap": "(dataset_size, seed)",
    "derive_seed": "(base_seed, level, i, j=0)",
    "equivalence_group": "(total_params, baselines)",
    "evaluate": "(predictions, labels, num_classes)",
    "featurize": "(example, spec)",
    "fit": "(train, spec, hyper)",
    "grid_search": (
        "(space, train, val, metric='accuracy', "
        "feature_spec=FeatureSpec(dims=32768, ngram_max=1, lowercase=True))"
    ),
    "initialize": "(spec, hyper, num_classes)",
    "load_jsonl": "(path, num_classes, label_map)",
    "load_model": "(path)",
    "macro_f1": "(predictions, labels, num_classes)",
    "make_plan": "(n, m, dataset_size, base_seed)",
    "materialize": "(dataset, sample)",
    "mean_std": "(values)",
    "param_count": "(model)",
    "plan_from_manifest": "(text)",
    "plan_to_manifest": "(plan)",
    "predict": "(ensemble, example)",
    "predict_dataset": "(ensemble, dataset)",
    "predict_proba": "(model, example)",
    "predict_proba_dataset": "(model, dataset)",
    "prune_magnitude": "(model, spec)",
    "run_config": "(config, data)",
    "save_model": "(model, path)",
    "soft_vote": "(member_probs)",
    "sparsity": "(model)",
    "split": "(dataset, spec)",
    "training_loss": "(model, dataset)",
    "variance_analysis": "(task_data, member, n, m, base_seed, task_name='task')",
    "write_report": "(results, path)",
    "write_variance_report": "(report, path)",
}

ERRORS = {
    "BagkitError": Exception,
    "ConfigError": bagkit.BagkitError,
    "DataError": bagkit.BagkitError,
    "TrainingDiverged": bagkit.BagkitError,
}

VERBS = {
    "validate": ["--config"],
    "run": ["--config", "--data", "--out", "--seed", "--jobs", "--top"],
    "variance": ["--task", "--data", "--out", "--model", "--dims", "--hidden", "--prune", "--n",
                 "--m", "--seed"],
    "prune": ["--model", "--out", "--fraction"],
    "report": ["--results", "--top"],
}

EXIT_CODES = {
    "EXIT_OK": 0, "EXIT_OTHER": 1, "EXIT_USAGE": 2, "EXIT_VALIDATION": 3, "EXIT_PARTIAL": 4,
    "EXIT_IO": 5,
}


def star_import() -> dict:
    """The names ``from bagkit import *`` binds, and their values."""
    namespace = {}
    exec("from bagkit import *", namespace)
    del namespace["__builtins__"]
    return namespace


def bare_signature(obj) -> str:
    """The signature without annotations: parameter names, kinds and defaults."""
    sig = inspect.signature(obj)
    empty = inspect.Parameter.empty
    return str(sig.replace(
        parameters=[p.replace(annotation=empty) for p in sig.parameters.values()],
        return_annotation=empty,
    ))


def test_public_names():
    assert len(bagkit.__all__) == len(set(bagkit.__all__))
    assert set(bagkit.__all__) == set(SIGNATURES) | set(ERRORS)
    namespace = star_import()
    assert set(namespace) == set(bagkit.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def test_signatures():
    assert {name: bare_signature(getattr(bagkit, name)) for name in SIGNATURES} == SIGNATURES


def test_error_hierarchy():
    assert {name: getattr(bagkit, name).__bases__ for name in ERRORS} == {
        name: (base,) for name, base in ERRORS.items()
    }


def test_cli_verbs_and_options():
    (verbs,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {
        verb: [opt for action in parser._actions for opt in action.option_strings
               if opt not in ("-h", "--help")]
        for verb, parser in verbs.choices.items()
    } == VERBS


def test_exit_codes():
    assert {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")} == (
        EXIT_CODES
    )
