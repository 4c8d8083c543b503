"""The run contract of the CLI on generated input: exit 0, 1 or 2, never a traceback.

cli.main runs in-process and sequentially on a few hundred seeded argument
lists: prime sets with non-primes, small heights, malformed and degenerate
curves, bad --prime values, and witness files mutated from the bundled
charts.  Searches run with one worker, so no process pool starts.
"""

import copy
import json
import random
import signal

from picard.cli import main
from picard.fixtures import load_fixtures

CASES = 400
ALARM_S = 5


def _witnesses():
    return [fix["witness"] for fix in load_fixtures() if fix.get("witness")]


def _mutate(rng, witness):
    """One malformed or hostile variant of a bundled witness."""
    w = copy.deepcopy(witness)
    chart = rng.choice(w["charts"])
    kind = rng.randrange(8)
    if kind == 0:  # a field of the wrong type
        bad = rng.choice(("3", [3], None, {"a": 1}, 1.5, True))
        target, key = rng.choice(((w, "m"), (w, "charts"), (w, "curve"), (chart, "x_scale"),
                                  (chart, "x_center"), (chart, "y_poly"), (chart, "y_codim")))
        target[key] = bad
    elif kind == 1:  # a missing key
        target = rng.choice((w, chart))
        target.pop(rng.choice(sorted(target)))
    elif kind == 2:  # a negative scale
        chart[rng.choice(("x_scale", "y_scale", "y_codim"))] = -rng.randrange(1, 6)
    elif kind == 3:  # a huge scale
        chart[rng.choice(("x_scale", "y_scale", "y_codim"))] = 10 ** rng.randrange(3, 40)
    elif kind == 4:  # a curve that is not a separable quartic, or not the analyzed one
        w["curve"] = rng.choice(([1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, -2, 2, -2, 1],
                                 [1, 0, 0, 0, 2], [], [1, 0, 0, 0, 1, 0]))
    elif kind == 5:  # another m
        w["m"] = rng.choice((0, 2, 3, 5, 7, 10, 16, -4))
    elif kind == 6:  # shifted chart data
        chart["x_center"] = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))]
        chart["y_poly"] = [[rng.randrange(-3, 4)] for _ in range(rng.randrange(0, 4))]
    else:  # a long y_poly: the chart substitution costs about its length squared
        chart["y_poly"] += [[0] * 8 + [rng.randrange(-3, 4)]] * 10 ** rng.randrange(1, 4)
    return w


def _curve_text(rng):
    kind = rng.randrange(9)
    if kind == 0:  # degree-deficient or too long
        return "[" + ",".join(str(rng.randrange(-5, 6)) for _ in range(rng.choice((0, 1, 3, 4, 6)))) + "]"
    if kind == 1:  # a zero leading coefficient
        return f"[0,{rng.randrange(-5, 6)},1,2,3]"
    if kind == 2:  # huge: the factorization budget refuses Delta at once
        return f"[1,0,0,0,{10 ** rng.randrange(900, 1500) + rng.randrange(1, 9)}]"
    if kind == 3:  # inseparable: (x - a)^2 (x^2 + 1)
        a = rng.randrange(-3, 4)
        return f"[1,{-2 * a},{a * a + 1},{-2 * a},{a * a}]"
    if kind == 4:  # not a list of ints
        return rng.choice(("", "[", "[1,x,0,0,1]", "1,0,0,0,1", "[1.5,0,0,0,1]", "[[1],0,0,0,1]"))
    lead = rng.choice((1, 1, 2, 3, -1, 27))
    return "[" + ",".join(map(str, [lead] + [rng.randrange(-12, 13) for _ in range(4)])) + "]"


def _prime(rng):
    return rng.choice((None, None, 0, 1, 4, -5, 2**61 - 1, 2, 3, 3, 5, 7, 13))


def _args(rng, tmp_path, i, witnesses):
    if rng.randrange(4) == 0:
        primes = rng.sample((0, 1, -2, -3, 2, 2, 3, 4, 5, 6, 7, 9, 15), rng.randrange(0, 4))
        return ["search", "--set", ",".join(map(str, primes)), "--height", str(rng.randrange(0, 4)),
                "--workers", "1", "--out", str(tmp_path / f"s{i}.jsonl")]
    args = ["analyze", "--curve", _curve_text(rng)]
    p = _prime(rng)
    if p is not None:
        args += ["--prime", str(p)]
    if rng.randrange(2):
        wfile = tmp_path / f"w{i}.json"
        wfile.write_text(json.dumps(_mutate(rng, rng.choice(witnesses))))
        args[2] = rng.choice(("[1,0,0,0,1]", "[1,0,0,0,-1]", "[3,1,0,0,-54]", args[2]))
        args += ["--witness", str(wfile)]
    return args + ["--json"] * rng.randrange(2)


def _timeout(signum, frame):
    raise TimeoutError("case did not finish")


def test_cli_contract_on_generated_arguments(tmp_path, capsys):
    rng = random.Random(2608)
    witnesses = _witnesses()
    codes = set()
    old = signal.signal(signal.SIGALRM, _timeout)
    try:
        for i in range(CASES):
            args = _args(rng, tmp_path, i, witnesses)
            signal.alarm(ALARM_S)
            try:
                code = main(args)
            except SystemExit as ex:  # argparse usage errors
                code = ex.code
            except Exception as ex:
                raise AssertionError(f"{args}: {type(ex).__name__}: {ex}") from ex
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (args, code)
            assert "Traceback" not in err, (args, err)
            if code == 0 and "--json" in args:
                json.loads(out)
            codes.add(code)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert codes == {0, 1, 2}
