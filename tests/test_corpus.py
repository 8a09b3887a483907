import json

from rmtt.corpus import (
    boundary_bases,
    corpus_bases,
    corpus_generate,
    corpus_presheaves,
    corpus_representable_maps,
)
from rmtt.fincat import validate_category
from rmtt.rfib import is_representable_map


def test_bases_validate_and_pin_required_members():
    names = [n for n, _ in corpus_bases(0)]
    assert "delta1" in names and "chain2" in names
    for name, base in corpus_bases(0):
        assert validate_category(base).ok, name
        assert len(base.objects) <= 3 and len(base.arrow_ids) <= 8


def test_every_seed_draws_valid_bases():
    # a relation whose closure has a cycle is redrawn, not returned
    for seed in range(200):
        for name, base in corpus_bases(seed):
            assert validate_category(base).ok, (seed, name)


def test_seed_reproducibility():
    a = json.dumps(corpus_generate(0), sort_keys=True)
    b = json.dumps(corpus_generate(0), sort_keys=True)
    assert a == b


def test_seeds_differ():
    a = json.dumps(corpus_generate(0), sort_keys=True)
    b = json.dumps(corpus_generate(5), sort_keys=True)
    assert a != b  # random preorders depend on the seed


def test_presheaves_bounded_and_valid():
    for name, base in corpus_bases(0):
        for p in corpus_presheaves(base, seed=0, max_total=6):
            assert p.total_size() <= 6
            assert not p.violations()


def test_representable_maps_carry_valid_witnesses():
    for name, base in corpus_bases(0)[:4]:
        for f, w in corpus_representable_maps(base, seed=0, limit=6):
            assert not w.violations()
            assert is_representable_map(f) is not None


def test_boundary_bases_are_separate():
    accepted = {n for n, _ in corpus_bases(0)}
    boundary = {n for n, _ in boundary_bases()}
    assert not (accepted & boundary)
