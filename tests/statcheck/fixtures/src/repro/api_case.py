"""Fixture: api-hygiene violations.  Linted by tests, never imported."""


def shadowing(values, list=None):  # finding: parameter shadows builtin
    sum = 0.0  # finding: assignment shadows builtin
    for v in values:
        sum += v
    return sum, list


def tail(x):
    return x
    x += 1  # finding: unreachable statement
