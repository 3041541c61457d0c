//! The catalogs of the two workloads, written once: every runner, test,
//! example and figure driver deploys the same tables and constraints.

use std::sync::Arc;

use mdcc_storage::{AttrConstraint, Catalog, TableSchema};
use mdcc_workloads::{micro, tpcw};

/// The micro-benchmark catalog: one item table, `stock ≥ 0`.
pub fn micro_catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new().with(
            TableSchema::new(micro::MICRO_ITEMS, "item")
                .with_constraint(AttrConstraint::at_least(micro::STOCK, 0)),
        ),
    )
}

/// The TPC-W catalog: eight tables, `stock ≥ 0` on items.
pub fn tpcw_catalog() -> Arc<Catalog> {
    use tpcw::tables as t;
    Arc::new(
        Catalog::new()
            .with(
                TableSchema::new(t::ITEM, "item")
                    .with_constraint(AttrConstraint::at_least(tpcw::STOCK, 0)),
            )
            .with(TableSchema::new(t::CUSTOMER, "customer"))
            .with(TableSchema::new(t::ORDERS, "orders"))
            .with(TableSchema::new(t::ORDER_LINE, "order_line"))
            .with(TableSchema::new(t::CC_XACTS, "cc_xacts"))
            .with(TableSchema::new(t::CART, "shopping_cart"))
            .with(TableSchema::new(t::CART_LINE, "shopping_cart_line"))
            .with(TableSchema::new(t::AUTHOR, "author")),
    )
}
