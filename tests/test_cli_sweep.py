"""A property sweep of the command line: argv for every subcommand is built
from cli.COMMAND_OPTIONS, with numeric values from the edges of float
arithmetic, and cli.main runs it in-process.  Every run must end in an
exit status, 0, 2 (an OrdextError) or 3 (an OSError), or 1 from validate
(a failed check); pyproject's filter turns a numpy warning raised inside
the package into an error, so a bad value must be refused before numpy
sees it."""

import contextlib
import io
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

from ordext import cli  # noqa: E402

# numeric values as (edge cases, small valid values), passed as --opt=value
# so that argparse reads a leading -; the valid integers keep every
# accepted run small (--n <= 500, --n-times <= 30, --reps <= 2,
# --max-outer 1), and an edge size lies below its floor or past the ceiling
FLOATS = (("nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324",
           "-1"), ("0.25", "0.3", "0.75", "1", "1.5", "2", "4", "100"))
INTS = {"n": ((-1, 0, 10 ** 11), (1, 2, 500)),
        "grid": ((-1, 2, 10 ** 11), (3, 11)),
        "reps": ((-1, 0, 10 ** 11), (1, 2)),
        "n_times": ((-1, 0, 1, 10 ** 11), (3, 30)),
        "max_outer": ((-1, 0), (1,)), "seed": ((-1,), (0, 7))}
# simulate's margin parameters, given all together or not at all
MARGINS = ("mu_x", "sigma_x", "xi_x", "mu_y", "sigma_y", "xi_y")
# options always given: their defaults would make a run large
ALWAYS = {"reps", "n_times", "max_outer", "paper_defaults"}
FAMILIES = ("restricted", "asymmetric", "upper", "interval", "bogus")
# examples per command: a study or a fit costs more than a curve
EXAMPLES = {"simulate": 300, "fit": 40, "depfn": 150, "estimate-c": 10,
            "diagnose": 20, "validate": 150, "study": 30}
# the cases found by the sweep and by probing next to them, each of which
# once ended in a numpy warning inside the package; simulate's also take an
# --out path
FOUND = {
    "validate": [["--family=asymmetric", "--theta1=5e-324"]],
    "simulate": [
        ["--mu-x=1", "--sigma-x=4", "--xi-x=0.2", "--mu-y=150",
         "--sigma-y=2", "--xi-y=0.2", "--slope-x=inf"],
        ["--mu-x=-1e308", "--sigma-x=4", "--xi-x=0.2", "--mu-y=150",
         "--sigma-y=2", "--xi-y=0.2", "--slope-x=-1e308"],
        ["--mu-x=0", "--sigma-x=1e308", "--xi-x=0.25", "--mu-y=0.25",
         "--sigma-y=0.25", "--xi-y=0.25"],
        ["--mu-x=1e308", "--sigma-x=1e308", "--xi-x=0", "--mu-y=1e308",
         "--sigma-y=1", "--xi-y=0", "--n=1", "--seed=7"]],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A data-scale series, exponential-scale pairs and a fit of the series."""
    root = tmp_path_factory.mktemp("sweep")
    paths = {name: str(root / name)
             for name in ("data.csv", "pairs.csv", "fit")}
    margins = ["--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
               "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2"]
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the fit stops at its cap
        assert cli.main(["simulate", "--c", "0.03", "--n", "40", "--seed", "3",
                         "--out", paths["data.csv"], *margins]) == 0
        assert cli.main(["simulate", "--n", "40", "--seed", "3",
                         "--out", paths["pairs.csv"]]) == 0
        assert cli.main(["fit", "--data", paths["data.csv"], "--max-outer",
                         "1", "--out-dir", paths["fit"]]) == 0
    return paths


def option_values(dest, option, inputs, out, edge):
    """The strategy of one option's value (an edge case where edge is
    true and the option has them), or None for a flag."""
    if option.parse is cli._BOOL:
        return None
    if option.parse in (float, int):
        pools = FLOATS if option.parse is float else INTS[dest]
        return st.sampled_from(pools[0 if edge else 1])
    if dest == "family":
        return st.sampled_from(FAMILIES)
    if dest == "data":
        return st.sampled_from((inputs["data.csv"], inputs["pairs.csv"]))
    if dest == "fit_dir":
        return st.sampled_from((inputs["fit"], os.path.join(out, "none")))
    return st.just(os.path.join(out, dest + (".svg" if dest == "svg" else "")))


@st.composite
def argvs(draw, command, inputs, out):
    """argv of one run: each option given or not, and a given numeric
    option an edge case one time in four."""
    argv, margins = [command], draw(st.booleans())
    for dest, option in cli.COMMAND_OPTIONS[command].items():
        given = (margins if dest in MARGINS else dest in ALWAYS
                 or option.required or draw(st.booleans()))
        if not given:
            continue
        flag = "--" + dest.replace("_", "-")
        edge = draw(st.integers(0, 3)) == 0
        values = option_values(dest, option, inputs, out, edge)
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
@pytest.mark.filterwarnings("ignore:replicate [0-9]+. fit failed")
@pytest.mark.parametrize("command", list(cli.COMMAND_OPTIONS))
def test_every_argv_ends_in_an_exit_status(command, inputs):
    statuses = {0, 2, 3} | ({1} if command == "validate" else set())
    with tempfile.TemporaryDirectory() as out:

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = cli.main(argv)
            assert status in statuses, (argv, status, err.getvalue())

        run = given(argvs(command, inputs, out))(run)
        where = ["--out=" + os.path.join(out, "out")] * (command == "simulate")
        for case in FOUND.get(command, ()):
            run = example([command, *case, *where])(run)
        settings(max_examples=EXAMPLES[command])(run)()
