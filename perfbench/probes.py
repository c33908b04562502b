"""One-shot probes behind the ROADMAP baselines; not part of the repeated runs.

    python3 perfbench/probes.py [OUT]   (default perfbench/results/probes.json)

Each probe runs once in a fresh interpreter with src/ on the path:

- weyl_e6_build: seconds to build WeylGroup(E6), and its order;
- weyl_e8_refusal: seconds until weyl_group(E8) raises (the group is over
  the materialization limit), and the message;
- verify_g2_grid: `demtensor verify --grid G2:1` under a time cap, with
  the suites it completed and when each line appeared;
- g2_decompose / g2_decompose_cprofile: the g2-decompose command without
  and with cProfile attached, to show what the profiler adds.

The JSON it writes records the machine it ran on.
"""

import json
import os
import platform
import selectors
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VERIFY_CAP_S = 150.0
G2_ARGV = ["decompose", "--type", "G2", "--v", "1,2,1,2,1,2", "--w", "1,2,1,2,1,2",
           "--lambda", "1,1", "--mu", "1,1"]

CHILD = {
    "weyl_e6_build": """
t = perf_counter()
order = len(weyl_group(root_system("E", 6)))
result = {"seconds": perf_counter() - t, "order": order}
""",
    "weyl_e8_refusal": """
t = perf_counter()
try:
    weyl_group(root_system("E", 8))
    result = {"seconds": perf_counter() - t, "refused": False}
except ValueError as caught:
    result = {"seconds": perf_counter() - t, "refused": True, "message": str(caught)}
""",
    "g2_decompose": """
t = perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(%r)
result = {"seconds": perf_counter() - t, "exit": code}
""" % (G2_ARGV,),
    "g2_decompose_cprofile": """
import cProfile
profile = cProfile.Profile()
t = perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = profile.runcall(cli.main, %r)
result = {"seconds": perf_counter() - t, "exit": code}
""" % (G2_ARGV,),
}

PRELUDE = """
import contextlib, io, json
from time import perf_counter
from demtensor import cli
from demtensor.cartan import root_system
from demtensor.weyl import weyl_group
"""


def env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")


def run_child(name):
    code = PRELUDE + CHILD[name] + "\nprint(json.dumps(result))\n"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env(), check=True,
                         stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(out.stdout.splitlines()[-1])


def verify_g2_grid():
    """Stream `verify --grid G2:1`, stop it at the cap, keep what finished."""
    argv = [sys.executable, "-u", "-m", "demtensor.cli", "verify", "--grid", "G2:1"]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env(), stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while perf_counter() - start < VERIFY_CAP_S:
                if not selector.select(timeout=VERIFY_CAP_S - (perf_counter() - start)):
                    break
                line = proc.stdout.readline()
                if not line:
                    break
                lines.append({"at_s": perf_counter() - start, "line": line.rstrip("\n")})
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return {
        "cap_s": VERIFY_CAP_S,
        "finished": proc.returncode == 0,
        "exit": proc.returncode,
        "completed_suites": [entry["line"].split()[1] for entry in lines],
        "lines": lines,
    }


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            names = [l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "system": platform.system()}


def main(argv):
    out_path = argv[0] if argv else os.path.join(HERE, "results", "probes.json")
    results = {"machine": machine()}
    for name in CHILD:
        results[name] = run_child(name)
        print(name, json.dumps(results[name]), flush=True)
    results["verify_g2_grid"] = verify_g2_grid()
    print("verify_g2_grid", results["verify_g2_grid"]["completed_suites"], flush=True)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
