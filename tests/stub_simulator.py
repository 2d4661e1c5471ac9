"""Stub external simulator: the in-repo dram-small cost model behind the
wire protocol of :mod:`dsegym.envs.external`.

    python stub_simulator.py MODE [AT]

``ok`` answers every request.  Handshake modes misbehave before any
request: ``silent`` never handshakes, ``bad-json`` and ``not-object`` send a
handshake that is not JSON or not an object, ``version`` announces protocol
2.  Request modes answer every request except the one with id AT (default
0): ``hang`` never answers it, ``crash`` exits with code 3, ``garbage``
answers with a line that is not JSON, ``wrong-id`` with the next id,
``nan`` with a non-finite metric, ``huge-int`` with a 400-digit integer
metric, ``text`` with a metric given as a string,
``valid-text`` with ``"valid": "false"``, ``no-metrics`` with an empty
metric map and ``invalid`` with ``"valid": false``.
"""

import json
import sys
import time
from pathlib import Path

HANDSHAKES = {
    "bad-json": '{"protocol": 1,',
    "not-object": "[1, 2]",
    "version": json.dumps({"protocol": 2, "metrics": ["latency", "power", "energy"]}),
}


def send(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def answer(request: dict) -> dict:
    # imported on first use, so that the handshake goes out before it
    from dsegym.envs import make_env
    from dsegym.spaces import point_from_map

    env = make_env("dram-small", request["workload"])
    obs = env.observe(point_from_map(env.space(), request["design"]))
    return {"id": request["id"], "metrics": obs.metrics, "valid": obs.valid}


def main(mode: str, at: int) -> None:
    if mode == "silent":
        time.sleep(60)
        return
    handshake = {"protocol": 1, "metrics": ["latency", "power", "energy"]}
    send(HANDSHAKES.get(mode, json.dumps(handshake)))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    for line in sys.stdin:
        request = json.loads(line)
        if request["id"] != at or mode == "ok":
            send(json.dumps(answer(request)))
        elif mode == "hang":
            time.sleep(60)
        elif mode == "crash":
            sys.exit(3)
        elif mode == "garbage":
            send("this is not json")
        else:
            response = answer(request)
            if mode == "wrong-id":
                response["id"] += 1
            elif mode == "nan":
                response["metrics"]["power"] = float("nan")
            elif mode == "huge-int":
                response["metrics"]["power"] = 10**400
            elif mode == "text":
                response["metrics"]["power"] = str(response["metrics"]["power"])
            elif mode == "valid-text":
                response["valid"] = "false"
            elif mode == "no-metrics":
                response["metrics"] = {}
            elif mode == "invalid":
                response["valid"] = False
            send(json.dumps(response))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 0)
