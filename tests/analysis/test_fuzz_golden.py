"""Golden fuzz corpus: the harness's reference traces, pinned by hash.

For each policy the test pins the sha256 over the reference trace JSON
(``list`` backend, batch driver, monitor armed) of every case in two
corpora: ``generate_case`` seeds 0-199 (alarm populations with churn,
externals and holds) and ``generate_scenario_case`` seeds 0-49 (source
compositions).  It also pins that every case is clean under every
detector.  A change to case generation, scenario compilation or the
engine that moves one byte of one of these traces fails here.

The trace JSON carries deterministic alarm ids (the harness renumbers
them per run), and clean cases carry no violations, so the hashes are
stable across processes.
"""

import hashlib
import importlib

import pytest

# The package re-exports the ``fuzz`` function under the module's name.
harness = importlib.import_module("repro.analysis.fuzz")

#: Compositions may have their own entry point; the one-type harness
#: runs every case through ``run_case``.
_run_composition = getattr(harness, "run_scenario_case", harness.run_case)

#: corpus -> (generator, runner, seeds).
CORPORA = {
    "alarms": (harness.generate_case, harness.run_case, range(200)),
    "compositions": (
        harness.generate_scenario_case,
        _run_composition,
        range(50),
    ),
}

#: (corpus, policy) -> sha256 over the newline-joined reference traces.
GOLDEN = {
    ("alarms", "native"): (
        "89bb3f220621445ab2f4c3041e18375b69f6eb0115e8ff747424dd9b83777db9"
    ),
    ("alarms", "simty"): (
        "d6bdb87bdc7271713fad11a71bcc279ee10b4b1177553d682226ddb0700185a8"
    ),
    ("compositions", "native"): (
        "233d439e3de901779e61b17ed9423f4e030433d34ea857173fa1d23cd4a3a15b"
    ),
    ("compositions", "simty"): (
        "f28f4e35981fc4b616bca00cfa97b91d6b95b70608aad6fb31da5ab1187b259c"
    ),
}


def corpus_digests(corpus):
    """Per-policy trace digests of one corpus, plus its dirty cases."""
    generate, run, seeds = CORPORA[corpus]
    digests = {policy: hashlib.sha256() for policy in harness.POLICY_NAMES}
    dirty = []
    for seed in seeds:
        outcome = run(generate(seed))
        if not outcome.ok:
            dirty.append((seed, [f.detail for f in outcome.failures]))
        for policy, digest in digests.items():
            digest.update(outcome.outcomes[policy].trace_json.encode())
            digest.update(b"\n")
    return {p: d.hexdigest() for p, d in digests.items()}, dirty


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_corpus_is_clean_and_byte_identical(corpus):
    digests, dirty = corpus_digests(corpus)
    assert not dirty, dirty
    assert digests == {
        policy: GOLDEN[(corpus, policy)] for policy in harness.POLICY_NAMES
    }
