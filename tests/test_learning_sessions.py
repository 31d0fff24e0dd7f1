"""Learning sessions per image: ``learn()`` reuses or resumes a model
already learned on the same :class:`Binary` object.

The contract is exactness: an exact hit or a prefix resume must give
the result a from-scratch ``learn()`` on a freshly built image gives —
the same canonical database, procedure set, observation count and
excluded runs — while results handed out earlier never change.  The
session is scoped to the image object, never to its content.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import build_browser, expanded_learning_pages, learning_pages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment
from repro.learning import learn
from repro.redteam import RedTeamExercise
from repro.redteam.exploits import all_exploits


def fingerprint(result) -> tuple:
    """Everything a learned result says, in a comparable form."""
    payload = result.database.to_dict()
    invariants = sorted(json.dumps(item, sort_keys=True)
                        for item in payload["invariants"])
    procedures = {entry: tuple(cfg.instruction_addresses())
                  for entry, cfg in result.procedures.procedures.items()}
    return (invariants, payload["samples"], procedures,
            result.observations, result.excluded_runs)


def fresh_image():
    return build_browser().stripped()


@pytest.fixture(scope="module")
def scratch_default():
    return fingerprint(learn(fresh_image(), learning_pages()))


@pytest.fixture(scope="module")
def scratch_expanded():
    return fingerprint(learn(fresh_image(), expanded_learning_pages()))


class RunCounter:
    """Counts learning runs by patching ``ManagedEnvironment.run``."""

    def __init__(self, monkeypatch):
        self.runs = 0
        original = ManagedEnvironment.run

        def counted(environment, payload=b""):
            self.runs += 1
            return original(environment, payload)

        monkeypatch.setattr(ManagedEnvironment, "run", counted)


class TestReuseExactness:
    def test_default_then_expanded(self, monkeypatch, scratch_default,
                                   scratch_expanded):
        image = fresh_image()
        default = learn(image, learning_pages())
        counter = RunCounter(monkeypatch)
        expanded = learn(image, expanded_learning_pages())
        # The resume ran only the pages the expanded suite adds.
        assert counter.runs == \
            len(expanded_learning_pages()) - len(learning_pages())
        assert fingerprint(default) == scratch_default
        assert fingerprint(expanded) == scratch_expanded

    def test_expanded_then_default(self, scratch_default, scratch_expanded):
        image = fresh_image()
        expanded = learn(image, expanded_learning_pages())
        default = learn(image, learning_pages())
        assert fingerprint(expanded) == scratch_expanded
        assert fingerprint(default) == scratch_default
        # A suite that is no extension starts a fresh session, which
        # the expanded suite then resumes, still exactly.
        assert fingerprint(learn(image, expanded_learning_pages())) == \
            scratch_expanded

    def test_exact_hit_returns_stored_result(self, monkeypatch):
        image = fresh_image()
        first = learn(image, learning_pages())
        counter = RunCounter(monkeypatch)
        assert learn(image, learning_pages()) is first
        assert counter.runs == 0

    def test_reconfigured_exercises(self, monkeypatch, scratch_default,
                                    scratch_expanded):
        """The Red Team reconfigurations: a stack-only change reuses the
        model, and the expanded suite resumes it after protected runs
        (with patches installed) have executed on the same image."""
        base = RedTeamExercise(build_browser())
        base.prepare()
        exploit = next(exploit for exploit in all_exploits()
                       if not exploit.defect.needs_expanded_learning
                       and exploit.defect.needs_stack_procedures <= 1)
        assert base.attack(exploit).patched

        counter = RunCounter(monkeypatch)
        deeper = RedTeamExercise(binary=base.binary, stack_procedures=2)
        assert deeper.binary is base.binary
        assert deeper.prepare() is base.learning_result
        assert counter.runs == 0
        expanded = RedTeamExercise(binary=base.binary,
                                   expanded_learning=True)
        expanded.prepare()
        assert counter.runs == \
            len(expanded_learning_pages()) - len(learning_pages())

        assert fingerprint(base.learning_result) == scratch_default
        assert fingerprint(deeper.learning_result) == scratch_default
        assert fingerprint(expanded.learning_result) == scratch_expanded

    def test_parameters_key_the_session(self):
        image = fresh_image()
        pages = learning_pages()[:3]
        block = learn(image, pages)
        procedure = learn(image, pages, pair_scope="procedure")
        assert procedure is not block
        assert fingerprint(procedure) == fingerprint(
            learn(fresh_image(), pages, pair_scope="procedure"))
        assert learn(image, pages, config=EnvironmentConfig.full()) \
            is block


class TestIsolationAndScope:
    def test_handed_out_results_do_not_change(self):
        image = fresh_image()
        default = learn(image, learning_pages())
        before = fingerprint(default)
        procedures = default.procedures
        entries, version = procedures.entries(), procedures.version
        attributed = dict(procedures._instruction_to_procedure)
        expanded = learn(image, expanded_learning_pages())
        # The resume discovered more code; the earlier copy saw none.
        assert expanded.procedures.version > version
        assert procedures.entries() == entries
        assert procedures.version == version
        assert procedures._instruction_to_procedure == attributed
        assert fingerprint(default) == before

    def test_fresh_image_never_hits_another_images_session(self,
                                                           monkeypatch):
        first_image = fresh_image()
        first = learn(first_image, learning_pages())
        second_image = fresh_image()
        assert second_image == first_image  # equal content...
        assert second_image._learning is None  # ...but no session
        counter = RunCounter(monkeypatch)
        second = learn(second_image, learning_pages())
        assert counter.runs == len(learning_pages())
        assert second is not first
        assert fingerprint(second) == fingerprint(first)

    def test_prune_learns_fresh(self, monkeypatch):
        image = fresh_image()
        pages = learning_pages()[:4]
        base = learn(image, pages)
        counter = RunCounter(monkeypatch)
        pruned = learn(image, pages, prune=True)
        assert counter.runs >= len(pages)
        assert pruned is not base and pruned.pruned_pcs > 0
        assert learn(image, pages) is base
        assert len(image._learning) == 1

    def test_save_snapshot_learns_fresh_and_writes(self, tmp_path,
                                                   monkeypatch):
        image = fresh_image()
        pages = learning_pages()[:3]
        path = tmp_path / "cache.json"
        config = EnvironmentConfig(save_snapshot=str(path))
        first = learn(image, pages, config=config)
        assert path.exists()
        path.unlink()
        counter = RunCounter(monkeypatch)
        second = learn(image, pages, config=config)
        assert counter.runs == len(pages)
        assert path.exists()
        assert second is not first
        assert fingerprint(second) == fingerprint(first)
        assert image._learning is None


class TestStripped:
    def test_symbol_free_image_is_itself(self):
        image = fresh_image()
        assert image.stripped() is image

    def test_debug_info_is_dropped_from_a_copy(self):
        built = build_browser()
        assert built.symbols and built.listing
        image = built.stripped()
        assert image is not built
        assert not image.symbols and not image.listing
        assert image.content_digest() == built.content_digest()
        assert (image.code, image.data, image.entry_point) == \
            (built.code, built.data, built.entry_point)
