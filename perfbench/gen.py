"""Seeded generator of UNSW-NB15-shaped train/test CSV pairs.

The files follow the 45-column layout of ``fsel_ids.unsw.UNSW_SCHEMA``:
a row id, 39 numeric inputs, the nominal ``proto``, ``service`` and
``state`` columns with 133, 13 and 9 categories, the multiclass
``attack_cat`` and the binary ``label`` (1 = attack).

Make-up, following what is known of the real corpus:

* Class counts are exact. At full scale they are the official split counts
  in ``unsw.py``; at a smaller scale each class keeps its official share.
* Most counters are integer-valued and zero-heavy (losses, FTP and HTTP
  counters, TCP fields of non-TCP flows), as in the real files.
* The ttl-like columns ``sttl``, ``dttl`` and ``ct_state_ttl`` carry most
  of the signal (they head the published filter rankings); bytes, means,
  ``proto``, ``service`` and the ``ct_*`` counters carry a weaker signal;
  the rest is class-independent.
* Label noise: for exactly ``NOISE`` of the rows (5 %), the features
  are drawn from the other class's distribution; the row keeps its label.

Every train file holds each proto, service and state category at least
once, so the full one-hot width is 39 + 133 + 13 + 9 = 194.

Run ``python3 perfbench/gen.py --seed 1 --scale grid --out DIR`` to write
``train.csv`` and ``test.csv`` into DIR. The wrapper scale also writes
``train-1.csv`` and ``train-2.csv``, further training files drawn from
the same seed after the first pair.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

import numpy as np

# Official split facts (mirrors fsel_ids.unsw; kept here so the generator
# does not read the package under test).
TRAIN_ROWS, TEST_ROWS = 175_341, 82_332
TRAIN_ATTACK, TEST_ATTACK = 119_341, 45_332

SCALES = {
    "wrapper": (1_100, 5_000),
    "grid": (10_000, 5_000),
    "full": (TRAIN_ROWS, TEST_ROWS),
}

# Extra training files drawn after the first pair, train-1.csv onwards:
# the wrapper search runs on each, so its cost averages over independent draws.
EXTRA_TRAIN = {"wrapper": 2, "grid": 0, "full": 0}

NOISE = 0.05

PROTOS = ("tcp", "udp", "unas", "arp", "ospf", "sctp") + tuple(
    f"proto-{i:03d}" for i in range(127)
)
SERVICES = ("-", "dns", "http", "smtp", "ftp-data", "ftp", "ssh", "pop3",
            "dhcp", "snmp", "ssl", "irc", "radius")
STATES = ("INT", "FIN", "CON", "REQ", "RST", "ECO", "PAR", "URN", "no")
ATTACK_CATS = ("Generic", "Exploits", "Fuzzers", "DoS", "Reconnaissance",
               "Analysis", "Backdoor", "Shellcode", "Worms")

NUMERIC = (
    "dur", "spkts", "dpkts", "sbytes", "dbytes", "rate", "sttl", "dttl",
    "sload", "dload", "sloss", "dloss", "sinpkt", "dinpkt", "sjit", "djit",
    "swin", "stcpb", "dtcpb", "dwin", "tcprtt", "synack", "ackdat", "smean",
    "dmean", "trans_depth", "response_body_len", "ct_srv_src", "ct_state_ttl",
    "ct_dst_ltm", "ct_src_dport_ltm", "ct_dst_sport_ltm", "ct_dst_src_ltm",
    "is_ftp_login", "ct_ftp_cmd", "ct_flw_http_mthd", "ct_src_ltm",
    "ct_srv_dst", "is_sm_ips_ports",
)
HEADER = ("id", "dur", "proto", "service", "state") + NUMERIC[1:] + ("attack_cat", "label")
# Columns written with six decimals; every other numeric column is an integer.
FLOAT_COLUMNS = frozenset({"dur", "rate", "sload", "dload", "sinpkt", "dinpkt",
                           "sjit", "djit", "tcprtt", "synack", "ackdat"})
PLANTED = ("sttl", "dttl", "ct_state_ttl")


def class_counts(rows: int, official_rows: int, official_attack: int) -> int:
    """Attack rows at this scale: the official count, or its share rounded."""
    if rows == official_rows:
        return official_attack
    return int(round(rows * official_attack / official_rows))


def _pick(rng, values, p_normal, p_attack, fc):
    """Draw from one of two categorical distributions by feature class."""
    values = np.asarray(values)
    out = np.empty(fc.size, dtype=values.dtype)
    for cls, p in ((0, p_normal), (1, p_attack)):
        rows = np.flatnonzero(fc == cls)
        out[rows] = rng.choice(values, size=rows.size, p=np.asarray(p) / np.sum(p))
    return out


def _skewed(k: int, head: float) -> np.ndarray:
    """Probability vector whose first entry gets ``head`` and the rest decay."""
    tail = 1.0 / np.arange(1, k) ** 1.3
    return np.concatenate([[head], (1.0 - head) * tail / tail.sum()])


def make_split(rng: np.random.Generator, rows: int, attack_rows: int,
               cover_categories: bool) -> dict[str, np.ndarray]:
    """Columns of one split with exactly ``attack_rows`` attack labels."""
    label = np.zeros(rows, dtype=np.int64)
    label[rng.choice(rows, size=attack_rows, replace=False)] = 1
    flip = np.zeros(rows, dtype=bool)
    flip[rng.choice(rows, size=int(round(NOISE * rows)), replace=False)] = True
    fc = np.where(flip, 1 - label, label)  # class the features are drawn from
    att = fc == 1
    n = rows
    c: dict[str, np.ndarray] = {"id": np.arange(1, n + 1)}

    proto = _pick(rng, np.arange(len(PROTOS)), _skewed(len(PROTOS), 0.55),
                  np.concatenate([[0.25, 0.45], _skewed(len(PROTOS) - 2, 0.1) * 0.3]), fc)
    service = _pick(rng, np.arange(len(SERVICES)), _skewed(len(SERVICES), 0.45),
                    _skewed(len(SERVICES), 0.6), fc)
    state = _pick(rng, np.arange(len(STATES)),
                  [0.15, 0.5, 0.25, 0.05, 0.02, 0.01, 0.01, 0.005, 0.005],
                  [0.6, 0.3, 0.02, 0.05, 0.01, 0.005, 0.005, 0.005, 0.005], fc)
    if cover_categories:
        # Every category appears at least once in a training file.
        for values, k in ((proto, len(PROTOS)), (service, len(SERVICES)), (state, len(STATES))):
            values[:k] = np.arange(k)
    tcp = proto == 0

    dur = rng.exponential(np.where(att, 0.4, 1.5)) * (rng.random(n) > 0.25)
    spkts = 1 + rng.poisson(np.where(att, 6.0, 9.0) * rng.lognormal(0, 1.0, n))
    dpkts = rng.poisson(np.where(att, 5.0, 8.0) * rng.lognormal(0, 1.0, n))
    smean = np.round(rng.lognormal(np.where(att, 5.0, 4.8), 0.8)).astype(np.int64)
    dmean = np.where(dpkts > 0, np.round(rng.lognormal(5.0, 1.0, n)), 0).astype(np.int64)
    sbytes = spkts * smean
    dbytes = dpkts * dmean
    span = np.maximum(dur, 1e-6)
    rate = np.where(dur > 0, (spkts + dpkts - 1) / span, rng.uniform(0, 2.5e5, n))
    sttl = _pick(rng, [0, 29, 31, 62, 252, 254], [0.03, 0.02, 0.80, 0.12, 0.02, 0.01],
                 [0.03, 0.01, 0.06, 0.08, 0.02, 0.80], fc)
    dttl = _pick(rng, [0, 29, 252, 253], [0.09, 0.75, 0.15, 0.01],
                 [0.70, 0.20, 0.09, 0.01], fc)
    ct_state_ttl = np.select(
        [(sttl == 254) & (dttl == 0), (sttl == 254), (sttl == 62) & (dttl == 252),
         (sttl == 31) & (dttl == 29), sttl == 0],
        [2, 3, 1, 0, 6], default=4)

    def zero_heavy(p_zero, lam):
        return np.where(rng.random(n) < p_zero, 0, 1 + rng.poisson(lam, n))

    c.update({
        "dur": dur,
        "proto": proto,
        "service": service,
        "state": state,
        "spkts": spkts,
        "dpkts": dpkts,
        "sbytes": sbytes,
        "dbytes": dbytes,
        "rate": rate,
        "sttl": sttl,
        "dttl": dttl,
        "sload": sbytes * 8.0 / span * (dur > 0),
        "dload": dbytes * 8.0 / span * (dur > 0),
        "sloss": zero_heavy(0.7, np.where(att, 1.0, 3.0)),
        "dloss": zero_heavy(0.75, 2.0),
        "sinpkt": dur * 1000.0 / np.maximum(spkts - 1, 1),
        "dinpkt": dur * 1000.0 / np.maximum(dpkts - 1, 1),
        "sjit": rng.exponential(50.0, n) * (rng.random(n) > 0.5),
        "djit": rng.exponential(30.0, n) * (rng.random(n) > 0.55),
        "swin": np.where(tcp, 255, 0),
        "stcpb": np.where(tcp, rng.integers(0, 2**32, n), 0),
        "dtcpb": np.where(tcp, rng.integers(0, 2**32, n), 0),
        "dwin": np.where(tcp & (dpkts > 0), 255, 0),
        "tcprtt": np.where(tcp, rng.exponential(np.where(att, 0.01, 0.06)), 0.0),
        "synack": np.where(tcp, rng.exponential(0.03, n), 0.0),
        "ackdat": np.where(tcp, rng.exponential(0.03, n), 0.0),
        "smean": smean,
        "dmean": dmean,
        "trans_depth": zero_heavy(0.85, 0.3) * (service == 2),
        "response_body_len": zero_heavy(0.9, 2.0) * rng.integers(100, 5000, n),
        "ct_srv_src": 1 + rng.poisson(np.where(att, 8.0, 7.0)),
        "ct_state_ttl": ct_state_ttl,
        "ct_dst_ltm": 1 + rng.poisson(np.where(att, 5.0, 4.5)),
        "ct_src_dport_ltm": 1 + rng.poisson(np.where(att, 3.0, 2.5)),
        "ct_dst_sport_ltm": 1 + rng.poisson(np.where(att, 2.0, 1.5)),
        "ct_dst_src_ltm": 1 + rng.poisson(6.0, n),
        "is_ftp_login": (service == 5) & (rng.random(n) < 0.5),
        "ct_ftp_cmd": zero_heavy(0.98, 0.5),
        "ct_flw_http_mthd": zero_heavy(0.9, 1.0) * (service == 2),
        "ct_src_ltm": 1 + rng.poisson(5.0, n),
        "ct_srv_dst": 1 + rng.poisson(np.where(att, 8.0, 7.0)),
        "is_sm_ips_ports": (rng.random(n) < np.where(att, 0.002, 0.03)),
        "attack_cat": np.where(label == 1, rng.integers(1, len(ATTACK_CATS) + 1, n), 0),
        "label": label,
    })
    return c


def _cells(name: str, values: np.ndarray) -> list[str]:
    if name == "proto":
        return [PROTOS[i] for i in values]
    if name == "service":
        return [SERVICES[i] for i in values]
    if name == "state":
        return [STATES[i] for i in values]
    if name == "attack_cat":
        names = ("Normal",) + ATTACK_CATS
        return [names[i] for i in values]
    if name in FLOAT_COLUMNS:
        return np.char.mod("%.6f", values).tolist()
    return values.astype(np.int64).astype(str).tolist()


def write_split(path: Path, columns: dict[str, np.ndarray]) -> None:
    cells = [_cells(name, columns[name]) for name in HEADER]
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    os.replace(tmp, path)


def extra_train_paths(out: Path, scale: str) -> list[Path]:
    return [out / f"train-{i}.csv" for i in range(1, EXTRA_TRAIN[scale] + 1)]


def generate(out: Path, seed: int, scale: str) -> tuple[Path, Path]:
    """Write train.csv, test.csv and any extra train files for (seed, scale) once."""
    train_path, test_path = out / "train.csv", out / "test.csv"
    extra = extra_train_paths(out, scale)
    if all(p.exists() for p in [train_path, test_path, *extra]):
        return train_path, test_path
    out.mkdir(parents=True, exist_ok=True)
    train_rows, test_rows = SCALES[scale]
    train_attack = class_counts(train_rows, TRAIN_ROWS, TRAIN_ATTACK)
    rng = np.random.default_rng([seed, train_rows])
    train = make_split(rng, train_rows, train_attack, cover_categories=True)
    test = make_split(rng, test_rows, class_counts(test_rows, TEST_ROWS, TEST_ATTACK),
                      cover_categories=False)
    for path in extra:
        write_split(path, make_split(rng, train_rows, train_attack, cover_categories=True))
    write_split(test_path, test)
    write_split(train_path, train)
    return train_path, test_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="grid")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    train, test = generate(Path(args.out), args.seed, args.scale)
    print(train, test)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
