#!/usr/bin/env python3
"""What does the untrusted server actually see?

The paper claims the server learns nothing about the data or the query.
This example makes the server's view concrete:

* the stored share polynomials are one-time-padded by the client's random
  shares — their value distribution is independent of the document;
* during queries the server sees opaque *points*, evaluation requests and
  prune notices — the access pattern, but never tag names or plaintext;
* repeated queries for the same tag reuse the same point, which is the
  query-pattern leakage later work on searchable encryption formalised.

Run with::

    python examples/security_audit.py
"""

from repro.analysis import audit_server_view, format_table, share_value_histogram
from repro.core import outsource_document
from repro.net import connect_in_process
from repro.workloads import CatalogConfig, generate_catalog_document


def main() -> None:
    document = generate_catalog_document(CatalogConfig(customers=8))
    client, server_tree, _ = outsource_document(document, seed=b"audit-seed")
    print(f"Outsourced {document.size()} elements in ring {client.ring.name}\n")

    # -- static view: the stored shares look random ---------------------------------------
    histogram = share_value_histogram(server_tree, coefficient_index=0)
    print(format_table(
        ["constant coefficient value", "occurrences"],
        sorted(histogram.items())[:10],
        title="Distribution of the first coefficient across server shares "
              "(flat ≈ independent of the data; first 10 values shown)"))
    print()

    # -- dynamic view: run some queries and audit the observations -----------------------------
    adapter, server, channel = connect_in_process(server_tree)
    for query_tag in ["customer", "order", "customer", "balance", "customer"]:
        client.lookup(adapter, query_tag)
    report = audit_server_view(server)
    print(format_table(
        ["observation", "value"],
        [[key, value] for key, value in report.as_dict().items()],
        title="Server view after 5 lookups (3 of them for the same tag)"))
    print()
    print("Query points seen by the server (point -> times queried):",
          dict(server.observations.point_counts))
    print("The server sees that one point recurred 3 times (query-pattern "
          "leakage) but never learns which tag name any point stands for.")
    print(f"\nTotal traffic for the 5 lookups: {channel.stats.total_bytes} bytes "
          f"in {channel.stats.round_trips} round trips.")


if __name__ == "__main__":
    main()
