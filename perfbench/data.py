"""Seeded inputs for the benchmark: a customer warehouse and key streams.

The benchmark makes its own rows instead of calling the program's
``repro.datagen`` so that a change to the program never changes the
inputs it is measured on.  The schema is the paper's section 3.1
warehouse (Customers and Sales); customers belong to latent segments that
drive both their age and what they buy, so an age model trained on the
nested purchases has real signal to find.

Everything here is a pure function of its ``random.Random`` argument.
"""

import bisect
import random
from typing import Dict, List, Tuple

# product -> (product type, mean quantity)
PRODUCTS: Dict[str, Tuple[str, float]] = {
    "TV": ("Electronic", 1.0), "VCR": ("Electronic", 1.0),
    "Laptop": ("Electronic", 1.0), "Beer": ("Beverage", 6.0),
    "Wine": ("Beverage", 2.0), "Soda": ("Beverage", 8.0),
    "Coffee": ("Beverage", 2.0), "Ham": ("Food", 2.0),
    "Bread": ("Food", 3.0), "Chips": ("Food", 4.0),
    "Diapers": ("Baby", 2.0), "Formula": ("Baby", 3.0),
    "Toy Car": ("Toys", 1.0), "Board Game": ("Toys", 1.0),
}
PRODUCT_NAMES = sorted(PRODUCTS)

# (share, age mean, age stdev, product propensities)
SEGMENTS = [
    (0.25, 22.0, 3.0, {"Beer": 0.8, "Chips": 0.7, "Soda": 0.6,
                       "Laptop": 0.4, "Coffee": 0.5, "Bread": 0.3}),
    (0.35, 38.0, 5.0, {"Diapers": 0.7, "Formula": 0.6, "Toy Car": 0.5,
                       "Board Game": 0.4, "Bread": 0.8, "Ham": 0.6,
                       "Soda": 0.4, "TV": 0.3}),
    (0.25, 47.0, 6.0, {"Wine": 0.7, "Coffee": 0.8, "Laptop": 0.6,
                       "TV": 0.4, "Ham": 0.4}),
    (0.15, 68.0, 7.0, {"Wine": 0.5, "Bread": 0.7, "Ham": 0.5,
                       "Coffee": 0.6, "TV": 0.5, "VCR": 0.4}),
]
HAIR = ["Black", "Brown", "Blond", "Red", "Gray"]

CUSTOMERS_DDL = ("CREATE TABLE Customers ([Customer ID] LONG PRIMARY KEY, "
                 "Gender TEXT, [Hair Color] TEXT, Age DOUBLE, "
                 "[Age Prob] DOUBLE)")
SALES_DDL = ("CREATE TABLE Sales (CustID LONG, [Product Name] TEXT, "
             "Quantity DOUBLE, [Product Type] TEXT)")
INDEX_DDL = ["CREATE INDEX ix_customer_id ON Customers([Customer ID])",
             "CREATE INDEX ix_sales_cust ON Sales(CustID)"]


class Warehouse:
    """Generated Customers and Sales rows, as loaded into the program."""

    def __init__(self, customers: List[tuple], sales: List[tuple]):
        self.customers = customers  # (id, gender, hair, age, age prob)
        self.sales = sales          # (cust id, product, quantity, type)


def make_customers(rng: random.Random, first_id: int,
                   count: int) -> Warehouse:
    """``count`` customers with ids from ``first_id``, and their purchases."""
    customers, sales = [], []
    cumulative = []
    total = 0.0
    for share, *_ in SEGMENTS:
        total += share
        cumulative.append(total)
    for cid in range(first_id, first_id + count):
        index = min(bisect.bisect(cumulative, rng.random() * total),
                    len(SEGMENTS) - 1)
        _, age_mean, age_sd, propensities = SEGMENTS[index]
        age = round(min(90.0, max(18.0, rng.gauss(age_mean, age_sd))), 1)
        gender = "Male" if rng.random() < 0.5 else "Female"
        customers.append((cid, gender, rng.choice(HAIR), age, 1.0))
        for product in sorted(propensities):
            if rng.random() < propensities[product]:
                ptype, mean = PRODUCTS[product]
                quantity = max(1.0, round(rng.gauss(mean, mean * 0.3), 1))
                sales.append((cid, product, quantity, ptype))
    return Warehouse(customers, sales)


def random_purchase(rng: random.Random, cid: int) -> tuple:
    """One Sales row for customer ``cid``."""
    product = rng.choice(PRODUCT_NAMES)
    ptype, mean = PRODUCTS[product]
    return (cid, product, round(rng.uniform(1.0, 2.0 * mean), 1), ptype)


ZIPF_EXPONENT = 1.0


class ZipfKeys:
    """Keys 1..n drawn with P(rank k) proportional to 1/k**ZIPF_EXPONENT.

    Ranks map to keys through a seeded permutation, so the hot keys are
    scattered over the key space instead of being the smallest ids.
    """

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self._keys = list(range(1, n + 1))
        rng.shuffle(self._keys)
        self._cumulative = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** ZIPF_EXPONENT
            self._cumulative.append(total)
        self._total = total

    def draw(self) -> int:
        rank = bisect.bisect(self._cumulative, self._rng.random() * self._total)
        return self._keys[min(rank, len(self._keys) - 1)]


def sql_literal(value) -> str:
    """A DMX literal for a generated value."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def values_clause(rows: List[tuple]) -> str:
    return ", ".join("(" + ", ".join(sql_literal(v) for v in row) + ")"
                     for row in rows)
