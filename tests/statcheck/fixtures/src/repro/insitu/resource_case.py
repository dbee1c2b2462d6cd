"""Fixture: resource-discipline violations.  Linted by tests, never imported."""


def read_header(path):
    f = open(path)  # finding: open() outside a with-statement
    return f.readline()


def read_safe(path):
    with open(path) as f:  # context-managed: allowed
        return f.read()
