"""The committed list of equivalent mutants names mutants that exist."""

import mutants


def test_every_equivalent_mutant_exists():
    names = {m.name for m in mutants.all_mutants()}
    assert set(mutants.EQUIVALENT) <= names, sorted(set(mutants.EQUIVALENT) - names)
