"""The package's export surface."""

import types

import wordbeam


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(wordbeam).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert all(hasattr(wordbeam, name) for name in wordbeam.__all__)
    assert sorted(wordbeam.__all__) == sorted(public)  # no stale, missing or repeated name
    # The search state is the decoder's own: no hypothesis type or search stage is exported.
    assert not {"Beam", "BeamSet", "frame_beams", "complete_beams"} & public
