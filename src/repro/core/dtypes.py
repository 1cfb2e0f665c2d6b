"""Column type detection (paper §3.2: "DataPrep.EDA first detects the data
type" before applying the Figure-2 mapping rules).

Three EDA types are distinguished: Numerical (N), Categorical (C), and
Datetime (D). Spark dtypes map directly; Datetime columns participate in
overview/missing analysis but univariate/bivariate mapping rules treat
them as out of scope, as does the paper.
"""
from __future__ import annotations

from enum import Enum

from pyspark.sql import DataFrame
from pyspark.sql import types as T


class EDAType(str, Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"


_NUMERIC = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
    T.FloatType, T.DoubleType, T.DecimalType,
)
_DATETIME = (T.DateType, T.TimestampType, T.TimestampNTZType)


def detect_type(df: DataFrame, col: str) -> EDAType:
    """EDA type of one column from its Spark schema (no data scan)."""
    field = df.schema[col]
    dt = field.dataType
    if isinstance(dt, _NUMERIC):
        return EDAType.NUMERICAL
    if isinstance(dt, _DATETIME):
        return EDAType.DATETIME
    if isinstance(dt, (T.StringType, T.BooleanType)):
        return EDAType.CATEGORICAL
    raise TypeError(
        f"column {col!r} has unsupported type {dt.simpleString()} for EDA "
        "(project it to a scalar first)"
    )


def detect_types(df: DataFrame) -> dict[str, EDAType]:
    """EDA type for every column, schema-only."""
    return {c: detect_type(df, c) for c in df.columns}

