"""A realistic outsourced-database workload: a customer/order catalog.

The paper's motivating scenario is a company outsourcing its customer
database to an untrusted provider.  This workload scales the figure-1
document up to a realistic shape: customers with addresses, accounts and
orders, orders with line items referencing products from a catalog — the
kind of document a thin client would want to query with paths such as
``//customer/order//product`` without revealing the data to the provider.
"""

from __future__ import annotations

import random

from ..xmltree import XmlDocument, XmlElement

__all__ = ["CatalogConfig", "generate_catalog_document", "CATALOG_QUERIES"]

#: Queries exercised by examples and benchmarks on this workload.
CATALOG_QUERIES = [
    "//customer",
    "//order",
    "//customer/profile/name",
    "//customer//product",
    "//customer/order/item//product",
    "//warehouse//product",
]


class CatalogConfig:
    """Size knobs of the catalog generator."""

    def __init__(self, customers: int = 10, max_orders_per_customer: int = 3,
                 max_items_per_order: int = 4, products: int = 8,
                 warehouses: int = 2, seed: int = 7) -> None:
        if customers < 1 or products < 1 or warehouses < 0:
            raise ValueError("customers and products must be positive")
        self.customers = customers
        self.max_orders_per_customer = max_orders_per_customer
        self.max_items_per_order = max_items_per_order
        self.products = products
        self.warehouses = warehouses
        self.seed = seed


def generate_catalog_document(config: CatalogConfig = CatalogConfig()) -> XmlDocument:
    """Generate the catalog document."""
    rng = random.Random(config.seed)
    root = XmlElement("company")

    catalog = root.add("catalog")
    for product_index in range(config.products):
        product = catalog.add("product")
        product.add("sku", text=f"SKU-{product_index:04d}")
        product.add("price", text=str(10 + product_index))

    for warehouse_index in range(config.warehouses):
        warehouse = root.add("warehouse")
        warehouse.add("location", text=f"W{warehouse_index}")
        stocked = rng.sample(range(config.products),
                             k=max(1, config.products // 2))
        for product_index in stocked:
            stock = warehouse.add("stock")
            stock.add("product", text=f"SKU-{product_index:04d}")
            stock.add("quantity", text=str(rng.randint(0, 500)))

    customers = root.add("customers")
    for customer_index in range(config.customers):
        customer = customers.add("customer")
        profile = customer.add("profile")
        profile.add("name", text=f"Customer {customer_index}")
        address = profile.add("address")
        address.add("street", text=f"{customer_index} Main Street")
        address.add("city", text="Enschede")
        account = customer.add("account")
        account.add("balance", text=str(rng.randint(-100, 1000)))
        for _ in range(rng.randint(0, config.max_orders_per_customer)):
            order = customer.add("order")
            order.add("date", text="2004-08-30")
            for _ in range(rng.randint(1, config.max_items_per_order)):
                item = order.add("item")
                item.add("product", text=f"SKU-{rng.randrange(config.products):04d}")
                item.add("quantity", text=str(rng.randint(1, 9)))
    return XmlDocument(root)
