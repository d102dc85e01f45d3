"""The layout rule behind the shared input CSV reader, and the exit-code
contract under mutated input files and odd flag values: a malformed
manifest, pairs file, runs file, removal log, evolution file, external-score
file or synth config ends in exit 0 or 1 with at most one ``error:`` line,
and a NaN, infinite, negative, reversed, zero or empty flag value in exit 0,
1 or 2; never in a traceback.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbalance.cli import main

SOURCES = Path(__file__).resolve().parent.parent / "src" / "fairbalance"


def test_csv_reader_lives_in_util_only():
    for name in ("csv.reader", "csv.writer", "import csv"):
        users = sorted(
            path.name for path in SOURCES.glob("*.py") if name in path.read_text()
        )
        assert users == ["_util.py"], name


def run_quietly(argv):
    """``main(argv)`` with stdout and stderr captured: (code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each input kind, made by the commands themselves."""
    base = tmp_path_factory.mktemp("inputs")
    config = base / "config.json"
    config.write_text(
        '{"seed": 4, "groups": ["a", "b"], "identities_per_group": [4, 3],\n'
        ' "images_per_identity": [1, 3], "concentration": [2.5, 6.0],\n'
        ' "label_noise": 0.25}\n'
    )
    manifest = base / "manifest.csv"
    log, evolution = base / "log.csv", base / "evolution.csv"
    for argv in (
        ["synth", "--config", str(config), "--out", str(manifest)],
        ["sample", str(manifest), "--protocol", "A", "--remove", "2",
         "--log", str(log), "--evolution", str(evolution),
         "--out", str(base / "subset.csv")],
    ):
        assert run_quietly(argv) == (0, "")
    pairs = base / "pairs.csv"
    pairs.write_text(
        "group,similarity,is_genuine\n"
        "a,0.81,1\na,0.35,0\na,0.52,1\nb,0.77,1\nb,0.12,0\nb,0.64,0\n"
    )
    runs = base / "runs.csv"
    runs.write_text(
        "run_id,strategy,size,acc_a,acc_b\n"
        "r1,A,50%,0.96,0.94\nr2,random,50%,0.945,0.945\nr3,B,25%,1.0,0.9\n"
    )
    external = base / "external.csv"
    images = manifest.read_text().splitlines()[1:]
    external.write_text(
        "image_id,score\n"
        + "".join(f"{row.split(',')[0]},0.{k + 1}\n" for k, row in enumerate(images))
    )
    return {
        "manifest": manifest, "pairs": pairs, "runs": runs, "log": log,
        "evolution": evolution, "external": external, "config": config,
        "out": base / "out",
    }


# the command that reads each input kind; {input} is the mutated file
COMMANDS = {
    "manifest": ["validate", "{input}"],
    "pairs": ["metrics", "--pairs", "{input}", "--mode", "similarity"],
    "runs": ["pareto", "--runs", "{input}", "--bias", "std", "--out", "{out}"],
    "log": ["equilibrium", "--trace", "{input}", "--epsilon", "0.01"],
    "evolution": ["equilibrium", "--trace", "{input}", "--epsilon", "0.01"],
    "external": ["scatter", "{manifest}", "--external", "{input}", "--out", "{out}"],
    "config": ["synth", "--config", "{input}", "--out", "{out}"],
}

# replacements for a number; none is a large count, so a mutated synth
# config stays a small job
BAD_NUMBERS = ("x", "", "-1", "nan", "inf", "1e999", "0x1", "1,5", "0")


def mutate(text, mutation, at, token):
    if mutation == "truncate":
        return text[: at % (len(text) + 1)]
    if mutation == "bad_number":
        numbers = list(re.finditer(r"\d+(?:\.\d+)?", text))
        if not numbers:
            return text
        number = numbers[at % len(numbers)]
        return text[: number.start()] + token + text[number.end():]
    if mutation == "nul":
        at %= len(text) + 1
        return text[:at] + "\0" + text[at:]
    if mutation == "bom":
        return "\ufeff" + text
    if mutation == "duplicate_header":
        header, newline, rest = text.partition("\n")
        return header + "," + header.split(",")[-1] + newline + rest
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    assert mutation == "empty"
    return ""


mutations = st.lists(
    st.tuples(
        st.sampled_from(
            ("truncate", "bad_number", "nul", "bom", "duplicate_header", "crlf",
             "empty")
        ),
        st.integers(0, 10_000),
        st.sampled_from(BAD_NUMBERS),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("kind", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(steps=mutations)
def test_mutated_input_exits_zero_or_one(valid_inputs, kind, steps):
    text = valid_inputs[kind].read_text(encoding="utf-8")
    for mutation, at, token in steps:
        text = mutate(text, mutation, at, token)
    mutated = valid_inputs["out"].with_name(f"mutated-{kind}")
    mutated.write_text(text, encoding="utf-8", newline="")
    names = {**valid_inputs, "input": mutated}
    code, err = run_quietly([arg.format(**names) for arg in COMMANDS[kind]])
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


# odd flag values; counts stay tiny, so no draw can allocate much
ODD_FLOATS = ("nan", "inf", "-inf", "-1", "-0.5", "0", "-0", "1e-300", "0.5",
              "1", "1.5", "1e300", "x", "")
small_ints = st.integers(-3, 12).map(str)
odd_float = st.sampled_from(ODD_FLOATS)
odd_list = st.lists(st.one_of(small_ints, odd_float), max_size=4).map(",".join)
label_list = st.sampled_from(("a,b", "a", "a,a", "b,a", "a,b,c", ",", ""))


def flag(name, values):
    """``--name=value``, so that a value like ``-inf`` is not read as a
    flag."""
    return values.map(lambda v: [f"--{name}={v}"])


def maybe(name, values):
    """``flag``, or no flag at all."""
    return st.one_of(st.just([]), flag(name, values))


def argv_of(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


FLAG_COMMANDS = {
    "synth": argv_of(
        st.just(["synth", "--out={out}"]),
        flag("seed", st.one_of(small_ints, st.sampled_from(("x", "2e3", str(2**70))))),
        maybe("groups", label_list),
        maybe("identities-per-group", st.lists(st.integers(-1, 3).map(str),
                                               max_size=4).map(",".join)),
        maybe("images-per-identity", st.lists(st.integers(-1, 3).map(str),
                                              max_size=3).map(",".join)),
        maybe("concentration", odd_list),
        maybe("label-noise", odd_float),
    ),
    "sample": argv_of(
        st.just(["sample", "{manifest}", "--out={out}"]),
        flag("protocol", st.sampled_from(("A", "B", "C", "random"))),
        st.one_of(flag("remove", small_ints), flag("target-size", small_ints),
                  flag("remove", odd_float)),
        maybe("seed", st.one_of(small_ints, odd_float)),
        st.lists(st.sampled_from(("--relabel-first", "--naive")), max_size=2),
        maybe("log", st.just("{log_out}")),
        maybe("evolution", st.just("{evolution_out}")),
    ),
    "single": argv_of(
        st.just(["single", "{manifest}", "--out={out}"]),
        flag("group", st.sampled_from(("a", "b", "zz", ""))),
        flag("strategy", st.sampled_from(("min", "max", "rand"))),
        flag("keep-fraction", st.one_of(odd_float, small_ints)),
        maybe("seed", st.one_of(small_ints, odd_float)),
        maybe("log", st.just("{log_out}")),
    ),
    "equilibrium": argv_of(
        st.just(["equilibrium"]),
        flag("trace", st.sampled_from(("{log}", "{evolution}", "{manifest}"))),
        flag("epsilon", odd_float),
    ),
    "metrics": argv_of(
        st.just(["metrics"]),
        flag("accuracies", odd_list),
        maybe("group-labels", label_list),
        maybe("out", st.just("{out}")),
    ),
}


def run_flags(argv):
    """``run_quietly``, with argparse's own exit (code 2) caught too."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", FLAG_COMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_odd_flag_values_exit_zero_one_or_two(valid_inputs, command, data):
    out = valid_inputs["out"]
    names = {
        **valid_inputs,
        "log_out": out.with_name("flags-log.csv"),
        "evolution_out": out.with_name("flags-evolution.csv"),
    }
    argv = [arg.format(**names) for arg in data.draw(FLAG_COMMANDS[command])]
    code, err = run_flags(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
