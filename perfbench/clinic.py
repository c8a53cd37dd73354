"""The clinic schema, its seeded data, and its statement streams.

Used by the ``oltp_wire`` launcher and the ``adhoc_inproc`` workload.
Everything the engine receives is generated SQL (plus parameters for the
parameterized statements), derived only from the run's seed.
"""

from __future__ import annotations

import random

PATIENTS = 20_000
VISITS_PER_PATIENT = 3
ADHOC_VISITS = PATIENTS * VISITS_PER_PATIENT

#: rows per multi-row INSERT while loading
LOAD_BATCH = 1_000

#: risk values are uniform in [0, 100); ``risk >= 80`` is the sensitive
#: fifth of the table, as in the paper's ~20 % audit expressions
RISK_LIMIT = 100
SENSITIVE_RISK = 80

AUDIT_NAME = "sensitive"

SCHEMA_SQL = (
    "CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, "
    "zip VARCHAR, risk INT)",
    "CREATE TABLE visits (vid INT PRIMARY KEY, pid INT, day INT, cost INT)",
    "CREATE TABLE log (uid VARCHAR, pid INT, sqltext VARCHAR)",
)

ARM_SQL = (
    f"CREATE AUDIT EXPRESSION {AUDIT_NAME} AS SELECT * FROM patients "
    f"WHERE risk >= {SENSITIVE_RISK} "
    "FOR SENSITIVE TABLE patients, PARTITION BY pid",
    f"CREATE TRIGGER log_access ON ACCESS TO {AUDIT_NAME} AS "
    "INSERT INTO log SELECT user_id(), pid, sql_text() FROM accessed",
)

DISARM_SQL = (
    "DROP TRIGGER log_access",
    f"DROP AUDIT EXPRESSION {AUDIT_NAME}",
)

POINT_READ = "SELECT pid, name, risk FROM patients WHERE pid = :pid"
VISIT_INSERT = "INSERT INTO visits VALUES (:vid, :pid, :day, :cost)"
RISK_UPDATE = "UPDATE patients SET risk = :r WHERE pid = :pid"
LOG_COUNT = "SELECT COUNT(*) FROM log"


def rng(seed: int, stream: str) -> random.Random:
    """An independent generator for one named stream of one seed."""
    return random.Random(f"{seed}:{stream}")


def patients(seed: int) -> list[tuple[int, str, int]]:
    """``(pid, zip, risk)`` of every patient."""
    generator = rng(seed, "patients")
    return [
        (pid, f"9{generator.randrange(1000, 10000)}",
         generator.randrange(RISK_LIMIT))
        for pid in range(1, PATIENTS + 1)
    ]


def patient_rows(seed: int) -> list[str]:
    return [
        f"({pid}, 'patient {pid}', '{zip_code}', {risk})"
        for pid, zip_code, risk in patients(seed)
    ]


def load_sql(seed: int, visits: bool) -> list[str]:
    """Schema DDL plus the statements that load the data.

    Patients arrive as multi-row INSERTs. Visits (when asked for) are
    derived in SQL from the patients: ``VISITS_PER_PATIENT`` rounds, each
    a seeded permutation of the pids, so every patient has the same
    number of visits.
    """
    statements = list(SCHEMA_SQL)
    rows = patient_rows(seed)
    for start in range(0, len(rows), LOAD_BATCH):
        statements.append(
            "INSERT INTO patients VALUES "
            + ", ".join(rows[start:start + LOAD_BATCH])
        )
    if visits:
        generator = rng(seed, "visits")
        for round_ in range(VISITS_PER_PATIENT):
            # odd and not a multiple of 5: coprime to PATIENTS, so
            # pid -> visit pid is a permutation
            stride = generator.choice(
                [n for n in range(1001, 9999, 2) if n % 5]
            )
            offset = generator.randrange(PATIENTS)
            statements.append(
                "INSERT INTO visits SELECT "
                f"pid + {round_ * PATIENTS}, "
                f"(pid * {stride} + {offset}) % {PATIENTS} + 1, "
                f"(pid * {generator.randrange(1, 365)} + {round_}) % 365, "
                f"(pid * {generator.randrange(1, 490)}) % 490 + 10 "
                "FROM patients"
            )
        statements.append("CREATE INDEX visits_pid ON visits (pid)")
    return statements


def verification_pids(seed: int, count: int, stream: str = "verify"
                      ) -> list[int]:
    """Distinct pids of the fixed verification round.

    Half are sensitive and half are not, so the offline auditor's work
    on the round does not swing with how many sensitive pids a seed
    happens to draw.
    """
    generator = rng(seed, stream)
    sensitive, other = [], []
    for pid, _zip, risk in patients(seed):
        (sensitive if risk >= SENSITIVE_RISK else other).append(pid)
    half = count // 2
    pids = generator.sample(sensitive, half) + generator.sample(
        other, count - half
    )
    generator.shuffle(pids)
    return pids


def check_point_read(pid: int, result) -> bool:
    """ACCESSED is ``{pid}`` exactly when the returned row is sensitive."""
    if len(result.rows) != 1 or result.rows[0][0] != pid:
        return False
    accessed = result.accessed.get(AUDIT_NAME, frozenset())
    expected = {pid} if result.rows[0][2] >= SENSITIVE_RISK else set()
    return set(accessed) == expected
