"""Hand-built EvalRecords swept by ``pr_curve``, which takes per-query arrays."""

from vprfuse import pr_curve


def records_curve(records):
    """``pr_curve`` of the records, one array entry per record."""
    return pr_curve(
        [r.confidence for r in records],
        [r.place is not None for r in records],
        [bool(r.correct) for r in records],
    )
