"""Any config text drawn from the schema loads, or is rejected naming a section and key it holds."""

import re
from dataclasses import fields, is_dataclass

from hypothesis import given
from hypothesis import strategies as st

from crowdloss.config import RunConfig, load_run_config
from crowdloss.errors import ConfigError, CrowdLossError
from crowdloss.simulator import generate_scene, spawn_proposals
from test_roundtrip import roundtrip


def _text(value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


# each section's keys with their default values as text, plus an unknown key
SCHEMA = {
    f.name: {g.name: _text(getattr(f.default, g.name)) for g in fields(f.default)} | {"walrus": "1"}
    for f in fields(RunConfig)
    if is_dataclass(f.default)
}
SCHEMA["run"] = {"seeds": "0, 1", "out": ".", "variants": "baseline, couloss", "walrus": "1"}
SCHEMA["sim"]["descent_steps"] = "3"  # counts stay <= 20, descent_steps <= 3
SCHEMA["gradcheck"]["num_scenes"] = "20"
# negatives, 0, nan, inf, empty, one-, two- and three-element lists, and words; no count above 20
NUMBERS = ("-3", "-0.5", "0", "0.3", "0.5", "1", "2", "20", "nan", "inf", "-inf")
LISTS = ("", "0.5, 0.3", "0.3, 0.5", "20, 20", "1, 2, 3")
WORDS = ("true", "false", "walrus", "bump", "flat", "triplet-literal")


@st.composite
def config_texts(draw):
    """A config file's text and the (section, key) pairs it sets."""
    lines, drawn = [], []
    # [sim] decides the scene, so every file sets one of its keys or more
    sections = draw(st.lists(st.sampled_from(sorted(SCHEMA.keys() - {"sim"})), max_size=2, unique=True)) + ["sim"]
    for section in sections:
        lines.append(f"[{section}]")
        least = 1 if section == "sim" else 0
        for key in draw(st.lists(st.sampled_from(sorted(SCHEMA[section])), min_size=least, max_size=2, unique=True)):
            # about a third of the values are the key's default, so that some files load
            numbers = tuple(v for v in NUMBERS if v != "20") if key == "descent_steps" else NUMBERS
            pools = (numbers, LISTS + WORDS, (SCHEMA[section][key],))
            value = draw(st.one_of(*map(st.sampled_from, pools)))
            lines.append(f"{key} = {value}")
            drawn.append((section, key))
    return "\n".join(lines) + "\n", drawn


@roundtrip
@given(config_texts())
def test_config_loads_or_names_a_drawn_key(tmp_path, config):
    text, drawn = config
    path = tmp_path / "run.cfg"
    path.write_text(text)
    try:
        cfg = load_run_config(str(path))
    except ConfigError as exc:
        message = str(exc)
        named = [(s, k) for s, k in drawn if f"[{s}]" in message and re.search(rf"\b{k}\b", message)]
        assert named, f"{message!r} names none of {drawn}"
        return
    seed = cfg.run.seeds[0]
    try:
        spawn_proposals(generate_scene(cfg.sim, seed), cfg.sim, seed + 1)
    except CrowdLossError:
        pass
