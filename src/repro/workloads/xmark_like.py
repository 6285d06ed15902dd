"""An XMark-flavoured synthetic auction document.

XMark is the standard XML benchmark family of the era the paper was
written in; its auction-site schema (regions, items, people, open
auctions, bids) produces deeper and more varied trees than the catalog
workload.  This generator follows the shape of that schema at a small,
parameterised scale — enough to exercise the scheme on documents with a
larger tag vocabulary and recursive-looking structures.
"""

from __future__ import annotations

import random

from ..xmltree import XmlDocument, XmlElement

__all__ = ["XMarkConfig", "generate_xmark_document", "XMARK_QUERIES"]

_REGIONS = ["africa", "asia", "australia", "europe", "namerica", "samerica"]

#: Queries exercised by examples and benchmarks on this workload.
XMARK_QUERIES = [
    "//item",
    "//person/name",
    "//open_auction/bidder",
    "//regions//item/description",
    "//europe/item",
    "//open_auction//person",
]


class XMarkConfig:
    """Size knobs of the XMark-like generator."""

    def __init__(self, items_per_region: int = 3, people: int = 10,
                 open_auctions: int = 6, max_bidders: int = 4,
                 seed: int = 42) -> None:
        if items_per_region < 0 or people < 1 or open_auctions < 0:
            raise ValueError("people must be positive, counts non-negative")
        self.items_per_region = items_per_region
        self.people = people
        self.open_auctions = open_auctions
        self.max_bidders = max_bidders
        self.seed = seed


def generate_xmark_document(config: XMarkConfig = XMarkConfig()) -> XmlDocument:
    """Generate the auction-site document."""
    rng = random.Random(config.seed)
    site = XmlElement("site")

    regions = site.add("regions")
    for region_name in _REGIONS:
        region = regions.add(region_name)
        for item_index in range(config.items_per_region):
            item = region.add("item")
            item.add("name", text=f"{region_name}-item-{item_index}")
            description = item.add("description")
            description.add("text", text="lorem ipsum")
            item.add("quantity", text=str(rng.randint(1, 5)))
            if rng.random() < 0.5:
                shipping = item.add("shipping")
                shipping.add("text", text="Will ship internationally")

    people = site.add("people")
    for person_index in range(config.people):
        person = people.add("person")
        person.add("name", text=f"Person {person_index}")
        person.add("emailaddress", text=f"person{person_index}@example.org")
        if rng.random() < 0.6:
            profile = person.add("profile")
            profile.add("interest")
            profile.add("education", text="graduate")

    auctions = site.add("open_auctions")
    for auction_index in range(config.open_auctions):
        auction = auctions.add("open_auction")
        auction.add("initial", text=str(rng.randint(1, 100)))
        for _ in range(rng.randint(0, config.max_bidders)):
            bidder = auction.add("bidder")
            bidder.add("date", text="2004-08-30")
            bidder.add("increase", text=str(rng.randint(1, 20)))
            reference = bidder.add("personref")
            reference.add("person", text=f"Person {rng.randrange(config.people)}")
        auction.add("current", text=str(rng.randint(1, 500)))
        seller = auction.add("seller")
        seller.add("person", text=f"Person {rng.randrange(config.people)}")
    return XmlDocument(site)
