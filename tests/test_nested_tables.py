"""Each nested field table refuses an unknown key, a missing key and a value
of the wrong type, with the one error type of the reader it belongs to."""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from dsegym.dataset import DataError
from dsegym.envs import external
from dsegym.envs.external import SimulatorProcess, SimulatorProtocolError
from dsegym.orchestrator import SweepSummary
from dsegym.proxy import RandomForestModel
from dsegym.spaces import space_from_config

MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"

SUMMARY = SweepSummary(
    env_id="dram-small", workload_id="stream", objective="low-power", budgets=[2], seeds=[0],
    configs={"RW": {"d": {}}}, best_rewards={"RW": {"d": {"2": {"0": 0.5}}}},
    stats={"RW": {"2": {"min": 0.5, "q1": 0.5, "median": 0.5, "q3": 0.5, "max": 0.5,
                        "iqr": 0.0, "n": 1, "best_digest": "d"}}},
    mean_normalized={"RW": {"2": 0.5}}, timing={"RW": {"total_wall_s": 0.1, "trials": 1}},
    failures=[],
)


def _tree_node(i):
    """Reads a model file whose tree 0 has node `i` replaced by the given node."""
    def read(node, tmp_path):
        doc = json.loads(MODEL_V1.read_text(encoding="utf-8"))
        doc["trees"][0][i] = node
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        RandomForestModel.load(path)
    return read


def _parameter(entry, tmp_path):
    space_from_config([entry])


def _summary_with(put):
    """Reads a summary in which `put(doc, record)` puts the given record."""
    def read(record, tmp_path):
        doc = asdict(SUMMARY)
        put(doc, record)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        SweepSummary.load(path)
    return read


def _handshake(handshake, tmp_path):
    """Starts and stops a simulator whose handshake is `handshake`."""
    script = "import sys, time; print(sys.argv[1], flush=True); time.sleep(60)"
    with SimulatorProcess([sys.executable, "-c", script, json.dumps(handshake)], "stream"):
        pass


def _response(response, tmp_path):
    external._parse_response(json.dumps(response), 0)


LEAF = {"v": 1.5}
SPLIT = {"f": 0, "t": 0.5, "l": 1, "r": 2}
CATEGORICAL = {"name": "A", "kind": "categorical", "values": ["x", "y"]}
NUMERIC = {"name": "B", "kind": "numeric", "min": 0, "max": 4, "step": 2}
STAT = SUMMARY.stats["RW"]["2"]
TIMING = SUMMARY.timing["RW"]
HANDSHAKE = {"protocol": 1, "metrics": ["power"]}
RESPONSE = {"id": 0, "metrics": {"power": 1.0}, "valid": True}

# table -> (reader, a document it accepts, its error, the key to drop, a value of the wrong type)
TABLES = {
    "leaf": (_tree_node(-1), LEAF, DataError, "v", "1.5"),
    "split": (_tree_node(0), SPLIT, DataError, "t", None),
    "categorical": (_parameter, CATEGORICAL, ValueError, "values", [True, 2]),
    "numeric": (_parameter, NUMERIC, ValueError, "step", "2"),
    "stat-record": (_summary_with(lambda doc, r: doc["stats"]["RW"].update({"2": r})), STAT,
                    DataError, "best_digest", 5),
    "timing": (_summary_with(lambda doc, r: doc["timing"].update(RW=r)), TIMING, DataError,
               "trials", 2.5),
    "handshake": (_handshake, HANDSHAKE, SimulatorProtocolError, "metrics", "power"),
    "response": (_response, RESPONSE, SimulatorProtocolError, "valid", "true"),
}


def _faults(accepted, key, wrong):
    """The accepted document with an unknown key, without `key`, and with `key` = `wrong`."""
    return {
        "unknown-key": {**accepted, "extra": 1},
        "missing-key": {k: v for k, v in accepted.items() if k != key},
        "wrong-type": {**accepted, key: wrong},
    }


CASES = [
    pytest.param(table, fault, id=f"{table}-{fault}")
    for table in TABLES for fault in ("unknown-key", "missing-key", "wrong-type")
]


@pytest.mark.parametrize("table", list(TABLES))
def test_a_nested_table_reads_what_the_package_writes(table, tmp_path):
    read, accepted, *_ = TABLES[table]
    read(accepted, tmp_path)


@pytest.mark.parametrize("table, fault", CASES)
def test_a_nested_table_refuses_a_fault_with_its_readers_error(table, fault, tmp_path):
    read, accepted, error, key, wrong = TABLES[table]
    with pytest.raises(error) as info:
        read(_faults(accepted, key, wrong)[fault], tmp_path)
    assert type(info.value) is error
