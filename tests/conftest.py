"""The nodes of one input that runs on each way of building the Hermitian
form (``helpers.WAYS``) run in a row, so that they share its references
(``helpers.share_references``)."""

from helpers import input_of


def pytest_collection_modifyitems(items):
    first = {}
    for item in items:
        first.setdefault(input_of(item), len(first))
    items.sort(key=lambda item: first[input_of(item)])
