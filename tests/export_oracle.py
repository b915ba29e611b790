"""Row-at-a-time formatting of the field export, the independent oracle for
scenes.format_rows: every cell goes through one "%" conversion, with no
sharing of text between cells."""

ROW = ",".join(["%.17g"] * 14 + ["%d"]) + "\n"


def format_rows(cols):
    """The export rows of 14 float columns and the integer flags column."""
    return "".join(ROW % row for row in zip(*(c.tolist() for c in cols)))
