"""UNSW-NB15 bindings: column schema, official split facts, reference subsets.

The two official partition files (a training split of 175,341 rows and a
test split of 82,332 rows) ship as 45-column CSVs. We drop the row id and
the multiclass attack category, keep the 42 input features (3 nominal, 39
numeric), and use the binary label column with 1 meaning attack.
"""

from __future__ import annotations

from .schema import FeatureSchema

TRAIN_FILE = "UNSW_NB15_training-set.csv"
TEST_FILE = "UNSW_NB15_testing-set.csv"
DATA_DIR_ENV = "FSEL_IDS_DATA_DIR"

# Known sizes of the official splits, used as integrity checks.
TRAIN_ROWS = 175_341
TEST_ROWS = 82_332
TRAIN_ATTACK = 119_341
TRAIN_NORMAL = 56_000
TEST_ATTACK = 45_332
TEST_NORMAL = 37_000

_COLUMNS = (
    ("id", "drop"),
    ("dur", "numeric"),
    ("proto", "nominal"),
    ("service", "nominal"),
    ("state", "nominal"),
    ("spkts", "numeric"),
    ("dpkts", "numeric"),
    ("sbytes", "numeric"),
    ("dbytes", "numeric"),
    ("rate", "numeric"),
    ("sttl", "numeric"),
    ("dttl", "numeric"),
    ("sload", "numeric"),
    ("dload", "numeric"),
    ("sloss", "numeric"),
    ("dloss", "numeric"),
    ("sinpkt", "numeric"),
    ("dinpkt", "numeric"),
    ("sjit", "numeric"),
    ("djit", "numeric"),
    ("swin", "numeric"),
    ("stcpb", "numeric"),
    ("dtcpb", "numeric"),
    ("dwin", "numeric"),
    ("tcprtt", "numeric"),
    ("synack", "numeric"),
    ("ackdat", "numeric"),
    ("smean", "numeric"),
    ("dmean", "numeric"),
    ("trans_depth", "numeric"),
    ("response_body_len", "numeric"),
    ("ct_srv_src", "numeric"),
    ("ct_state_ttl", "numeric"),
    ("ct_dst_ltm", "numeric"),
    ("ct_src_dport_ltm", "numeric"),
    ("ct_dst_sport_ltm", "numeric"),
    ("ct_dst_src_ltm", "numeric"),
    ("is_ftp_login", "numeric"),
    ("ct_ftp_cmd", "numeric"),
    ("ct_flw_http_mthd", "numeric"),
    ("ct_src_ltm", "numeric"),
    ("ct_srv_dst", "numeric"),
    ("is_sm_ips_ports", "numeric"),
    ("attack_cat", "drop"),
    ("label", "class"),
)

UNSW_SCHEMA = FeatureSchema(_COLUMNS)

# Published 19-feature selections for this corpus, one per search strategy.
# Each is in the strategy's own reported order (rank order for the filter
# scores, discovery order is not meaningful for the subset search so it is
# listed in dataset column order).
WRAPPER_SUBSET = (
    "proto",
    "service",
    "spkts",
    "sbytes",
    "dbytes",
    "dttl",
    "sloss",
    "dloss",
    "swin",
    "stcpb",
    "trans_depth",
    "response_body_len",
    "ct_srv_src",
    "ct_src_dport_ltm",
    "ct_dst_sport_ltm",
    "ct_dst_src_ltm",
    "ct_flw_http_mthd",
    "ct_src_ltm",
    "ct_srv_dst",
)

INFOGAIN_SUBSET = (
    "sbytes",
    "dbytes",
    "sttl",
    "dttl",
    "ct_state_ttl",
    "rate",
    "sload",
    "smean",
    "dur",
    "dmean",
    "dinpkt",
    "dpkts",
    "dload",
    "sinpkt",
    "tcprtt",
    "synack",
    "ackdat",
    "sjit",
    "spkts",
)

GAINRATIO_SUBSET = (
    "sttl",
    "dttl",
    "ct_state_ttl",
    "is_sm_ips_ports",
    "state",
    "ackdat",
    "tcprtt",
    "synack",
    "dinpkt",
    "dload",
    "dbytes",
    "dpkts",
    "rate",
    "sbytes",
    "dmean",
    "dur",
    "ct_dst_sport_ltm",
    "response_body_len",
    "smean",
)

RELIEF_SUBSET = (
    "service",
    "proto",
    "dttl",
    "sttl",
    "ct_dst_sport_ltm",
    "smean",
    "ct_state_ttl",
    "ct_dst_ltm",
    "ct_src_ltm",
    "ct_src_dport_ltm",
    "dload",
    "ct_srv_dst",
    "ct_srv_src",
    "rate",
    "ct_dst_src_ltm",
    "dmean",
    "is_sm_ips_ports",
    "dtcpb",
    "stcpb",
)

REFERENCE_SUBSETS = {
    "wrapper": WRAPPER_SUBSET,
    "infogain": INFOGAIN_SUBSET,
    "gainratio": GAINRATIO_SUBSET,
    "relief": RELIEF_SUBSET,
}
