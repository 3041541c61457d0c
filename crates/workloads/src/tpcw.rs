//! TPC-W, the paper's macro-benchmark (§5.2).
//!
//! Fourteen web interactions over the TPC-W schema, using the *ordering*
//! mix (the most write-heavy profile), no think time, and — exactly as
//! the paper does — only the database part of each interaction (no HTML).
//! The one transaction that exploits commutativity is *Buy Confirm*: it
//! decrements each purchased item's stock under the `stock ≥ 0`
//! constraint.

use mdcc_common::{CommutativeUpdate, Key, PhysicalUpdate, RecordUpdate, Row, UpdateOp, Version};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::mix::WebInteraction;
use crate::{Transaction, TxnAction, Workload};

/// TPC-W table ids.
pub mod tables {
    use mdcc_common::TableId;

    /// Items for sale (stock ≥ 0).
    pub const ITEM: TableId = TableId(10);
    /// Registered customers.
    pub const CUSTOMER: TableId = TableId(11);
    /// Orders.
    pub const ORDERS: TableId = TableId(12);
    /// Order lines.
    pub const ORDER_LINE: TableId = TableId(13);
    /// Credit-card transactions.
    pub const CC_XACTS: TableId = TableId(14);
    /// Shopping carts.
    pub const CART: TableId = TableId(15);
    /// Shopping-cart lines.
    pub const CART_LINE: TableId = TableId(16);
    /// Authors (static dimension table).
    pub const AUTHOR: TableId = TableId(17);
}

/// The stock attribute of an item.
pub const STOCK: &str = "stock";

/// Item key for id `i`.
pub fn item_key(i: u64) -> Key {
    Key::new(tables::ITEM, format!("i{i}"))
}

/// Customer key for initial customer `c`.
pub fn customer_key(c: u64) -> Key {
    Key::new(tables::CUSTOMER, format!("c{c}"))
}

/// Author key.
pub fn author_key(a: u64) -> Key {
    Key::new(tables::AUTHOR, format!("a{a}"))
}

/// Initial rows: items with TPC-W-style stock (uniform 10..=30),
/// customers and authors. Deterministic in `seed`.
pub fn initial_data(cfg: &TpcwConfig, seed: u64) -> Vec<(Key, Row)> {
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for i in 0..cfg.items {
        let stock: i64 = rng.gen_range(10..=30);
        let price: i64 = rng.gen_range(100..=10_000);
        rows.push((
            item_key(i),
            Row::new()
                .with(STOCK, stock)
                .with("price", price)
                .with("title", format!("book-{i}"))
                .with("author", (i % cfg.items.clamp(1, 500)) as i64),
        ));
    }
    for c in 0..cfg.customers {
        rows.push((
            customer_key(c),
            Row::new()
                .with("name", format!("customer-{c}"))
                .with("discount", (c % 50) as i64),
        ));
    }
    for a in 0..cfg.items.min(500) {
        rows.push((
            author_key(a),
            Row::new().with("name", format!("author-{a}")),
        ));
    }
    rows
}

/// TPC-W knobs.
#[derive(Debug, Clone)]
pub struct TpcwConfig {
    /// Scale factor: number of items.
    pub items: u64,
    /// Number of pre-loaded customers.
    pub customers: u64,
    /// Unique id of the client this generator drives (key uniqueness for
    /// inserted orders/customers/carts).
    pub client_id: u64,
    /// Use commutative stock decrements in Buy Confirm (MDCC); physical
    /// read-modify-write otherwise.
    pub commutative: bool,
}

impl TpcwConfig {
    /// Standard configuration at a given scale factor.
    pub fn with_scale(items: u64, client_id: u64) -> Self {
        Self {
            items,
            customers: items,
            client_id,
            commutative: true,
        }
    }
}

/// Per-client TPC-W session state and generator.
pub struct TpcwWorkload {
    cfg: TpcwConfig,
    customer: u64,
    cart_seq: u64,
    cart_created: bool,
    cart_items: Vec<(u64, i64)>,
    order_seq: u64,
    reg_seq: u64,
    last_order: Option<Key>,
}

impl TpcwWorkload {
    /// Creates the generator for one emulated browser.
    pub fn new(cfg: TpcwConfig) -> Self {
        let customer = cfg.client_id % cfg.customers.max(1);
        Self {
            cfg,
            customer,
            cart_seq: 0,
            cart_created: false,
            cart_items: Vec::new(),
            order_seq: 0,
            reg_seq: 0,
            last_order: None,
        }
    }

    fn cart_key(&self) -> Key {
        Key::new(
            tables::CART,
            format!("sc{}x{}", self.cfg.client_id, self.cart_seq),
        )
    }

    fn cart_line_key(&self, item: u64) -> Key {
        Key::new(
            tables::CART_LINE,
            format!("scl{}x{}-{item}", self.cfg.client_id, self.cart_seq),
        )
    }

    fn random_item(&self, rng: &mut SmallRng) -> u64 {
        rng.gen_range(0..self.cfg.items)
    }

    fn random_items(&self, rng: &mut SmallRng, n: usize) -> Vec<Key> {
        (0..n).map(|_| item_key(self.random_item(rng))).collect()
    }

    fn build(&mut self, wi: WebInteraction, rng: &mut SmallRng) -> TpcwTxn {
        match wi {
            WebInteraction::Home => TpcwTxn::read_only(
                "home",
                [customer_key(self.customer)]
                    .into_iter()
                    .chain(self.random_items(rng, 2))
                    .collect(),
            ),
            WebInteraction::NewProducts => {
                TpcwTxn::read_only("new-products", self.random_items(rng, 10))
            }
            WebInteraction::BestSellers => {
                TpcwTxn::read_only("best-sellers", self.random_items(rng, 10))
            }
            WebInteraction::ProductDetail => {
                let item = self.random_item(rng);
                TpcwTxn::read_only(
                    "product-detail",
                    vec![
                        item_key(item),
                        author_key(item % self.cfg.items.clamp(1, 500)),
                    ],
                )
            }
            WebInteraction::SearchRequest => {
                TpcwTxn::read_only("search-request", self.random_items(rng, 1))
            }
            WebInteraction::SearchResults => {
                TpcwTxn::read_only("search-results", self.random_items(rng, 8))
            }
            WebInteraction::ShoppingCart => {
                let item = self.random_item(rng);
                let qty: i64 = rng.gen_range(1..=3);
                let cart = self.cart_key();
                let line = self.cart_line_key(item);
                self.cart_created = true;
                match self.cart_items.iter_mut().find(|(i, _)| *i == item) {
                    Some((_, q)) => *q += qty,
                    None => self.cart_items.push((item, qty)),
                }
                TpcwTxn {
                    wi: WebInteraction::ShoppingCart,
                    label: "shopping-cart",
                    reads: vec![cart.clone(), line.clone(), item_key(item)],
                    plan: WritePlan::CartAdd {
                        cart,
                        line,
                        qty,
                        item,
                    },
                }
            }
            WebInteraction::CustomerRegistration => {
                if rng.gen::<f64>() < 0.8 {
                    self.reg_seq += 1;
                    let key = Key::new(
                        tables::CUSTOMER,
                        format!("c{}x{}", self.cfg.client_id, self.reg_seq),
                    );
                    TpcwTxn {
                        wi,
                        label: "customer-registration",
                        reads: vec![],
                        plan: WritePlan::Register { customer: key },
                    }
                } else {
                    TpcwTxn::read_only("customer-registration", vec![customer_key(self.customer)])
                }
            }
            WebInteraction::BuyRequest => TpcwTxn::read_only(
                "buy-request",
                vec![self.cart_key(), customer_key(self.customer)],
            ),
            WebInteraction::BuyConfirm => {
                // An emulated browser always has something in the cart by
                // purchase time; top it up if the session skipped the
                // cart pages.
                if self.cart_items.is_empty() {
                    for _ in 0..rng.gen_range(1..=3) {
                        let item = self.random_item(rng);
                        match self.cart_items.iter_mut().find(|(i, _)| *i == item) {
                            Some((_, q)) => *q += 1,
                            None => self.cart_items.push((item, 1)),
                        }
                    }
                    self.cart_created = true;
                }
                self.order_seq += 1;
                let order = Key::new(
                    tables::ORDERS,
                    format!("o{}x{}", self.cfg.client_id, self.order_seq),
                );
                let cart = self.cart_key();
                let items: Vec<(Key, i64)> = self
                    .cart_items
                    .iter()
                    .map(|(i, q)| (item_key(*i), *q))
                    .collect();
                let mut reads = vec![cart.clone()];
                reads.extend(items.iter().map(|(k, _)| k.clone()));
                let line_prefix = format!("ol{}x{}", self.cfg.client_id, self.order_seq);
                let cc = Key::new(
                    tables::CC_XACTS,
                    format!("cc{}x{}", self.cfg.client_id, self.order_seq),
                );
                self.last_order = Some(order.clone());
                // The purchase closes the session's cart.
                self.cart_items.clear();
                self.cart_created = false;
                self.cart_seq += 1;
                TpcwTxn {
                    wi,
                    label: "buy-confirm",
                    reads,
                    plan: WritePlan::BuyConfirm {
                        cart,
                        order,
                        items,
                        commutative: self.cfg.commutative,
                        line_prefix,
                        cc,
                    },
                }
            }
            WebInteraction::OrderInquiry => TpcwTxn::read_only(
                "order-inquiry",
                vec![self
                    .last_order
                    .clone()
                    .unwrap_or_else(|| customer_key(self.customer))],
            ),
            WebInteraction::OrderDisplay => {
                let mut reads = vec![customer_key(self.customer)];
                if let Some(o) = &self.last_order {
                    reads.push(o.clone());
                }
                TpcwTxn::read_only("order-display", reads)
            }
            WebInteraction::AdminRequest => {
                TpcwTxn::read_only("admin-request", self.random_items(rng, 1))
            }
            WebInteraction::AdminConfirm => {
                let item = self.random_item(rng);
                TpcwTxn {
                    wi,
                    label: "admin-confirm",
                    reads: vec![item_key(item)],
                    plan: WritePlan::AdminUpdate {
                        item: item_key(item),
                        new_price: rng.gen_range(100..=10_000),
                    },
                }
            }
        }
    }
}

impl Workload for TpcwWorkload {
    fn next_txn(&mut self, rng: &mut SmallRng) -> Box<dyn Transaction> {
        let wi = WebInteraction::from_draw(rng.gen_range(0..10_000));
        Box::new(self.build(wi, rng))
    }
}

/// One TPC-W web interaction as a transaction.
pub struct TpcwTxn {
    wi: WebInteraction,
    label: &'static str,
    reads: Vec<Key>,
    plan: WritePlan,
}

enum WritePlan {
    None,
    CartAdd {
        cart: Key,
        line: Key,
        item: u64,
        qty: i64,
    },
    Register {
        customer: Key,
    },
    BuyConfirm {
        cart: Key,
        order: Key,
        items: Vec<(Key, i64)>,
        commutative: bool,
        line_prefix: String,
        cc: Key,
    },
    AdminUpdate {
        item: Key,
        new_price: i64,
    },
}

impl TpcwTxn {
    fn read_only(label: &'static str, reads: Vec<Key>) -> Self {
        Self {
            wi: WebInteraction::Home,
            label,
            reads,
            plan: WritePlan::None,
        }
    }

    /// The interaction this transaction implements.
    pub fn interaction(&self) -> WebInteraction {
        self.wi
    }
}

fn find<'a>(
    reads: &'a [(Key, Version, Option<Row>)],
    key: &Key,
) -> Option<&'a (Key, Version, Option<Row>)> {
    reads.iter().find(|(k, _, _)| k == key)
}

/// Insert if absent, version-checked overwrite otherwise.
fn upsert(reads: &[(Key, Version, Option<Row>)], key: &Key, row: Row) -> RecordUpdate {
    match find(reads, key) {
        Some((_, version, Some(_))) => RecordUpdate::new(
            key.clone(),
            UpdateOp::Physical(PhysicalUpdate::write(*version, row)),
        ),
        _ => RecordUpdate::new(key.clone(), UpdateOp::Physical(PhysicalUpdate::insert(row))),
    }
}

impl Transaction for TpcwTxn {
    fn read_set(&self) -> Vec<Key> {
        self.reads.clone()
    }

    fn decide(&mut self, reads: &[(Key, Version, Option<Row>)]) -> TxnAction {
        match &self.plan {
            WritePlan::None => TxnAction::Commit(Vec::new()),
            WritePlan::CartAdd {
                cart,
                line,
                item,
                qty,
            } => {
                let mut updates = Vec::new();
                let cart_row = Row::new().with("status", "active").with("touched", *qty);
                updates.push(upsert(reads, cart, cart_row));
                let line_row = Row::new().with("item", *item as i64).with("qty", *qty);
                updates.push(upsert(reads, line, line_row));
                TxnAction::Commit(updates)
            }
            WritePlan::Register { customer } => TxnAction::Commit(vec![RecordUpdate::new(
                customer.clone(),
                UpdateOp::Physical(PhysicalUpdate::insert(
                    Row::new().with("name", "new-customer").with("discount", 0),
                )),
            )]),
            WritePlan::BuyConfirm {
                cart,
                order,
                items,
                commutative,
                line_prefix,
                cc,
            } => {
                let mut updates = Vec::new();
                let mut total = 0i64;
                for (n, (item, qty)) in items.iter().enumerate() {
                    let Some((_, version, Some(row))) = find(reads, item) else {
                        return TxnAction::ClientAbort;
                    };
                    let stock = row.get_int(STOCK).unwrap_or(0);
                    total += row.get_int("price").unwrap_or(0) * qty;
                    if *commutative {
                        if stock <= 0 {
                            return TxnAction::ClientAbort;
                        }
                        updates.push(RecordUpdate::new(
                            item.clone(),
                            UpdateOp::Commutative(CommutativeUpdate::delta(STOCK, -qty)),
                        ));
                    } else {
                        let new_stock = stock - qty;
                        if new_stock < 0 {
                            return TxnAction::ClientAbort;
                        }
                        let mut new_row = row.clone();
                        new_row.set(STOCK, new_stock);
                        updates.push(RecordUpdate::new(
                            item.clone(),
                            UpdateOp::Physical(PhysicalUpdate::write(*version, new_row)),
                        ));
                    }
                    // Order line for this item.
                    updates.push(RecordUpdate::new(
                        Key::new(tables::ORDER_LINE, format!("{line_prefix}-{n}")),
                        UpdateOp::Physical(PhysicalUpdate::insert(
                            Row::new().with("item", &*item.pk).with("qty", *qty),
                        )),
                    ));
                }
                updates.push(RecordUpdate::new(
                    order.clone(),
                    UpdateOp::Physical(PhysicalUpdate::insert(
                        Row::new().with("total", total).with("status", "pending"),
                    )),
                ));
                updates.push(RecordUpdate::new(
                    cc.clone(),
                    UpdateOp::Physical(PhysicalUpdate::insert(Row::new().with("amount", total))),
                ));
                // Close the cart (upsert: sessions may buy without ever
                // touching the cart pages).
                updates.push(upsert(reads, cart, Row::new().with("status", "purchased")));
                TxnAction::Commit(updates)
            }
            WritePlan::AdminUpdate { item, new_price } => {
                let Some((_, version, Some(row))) = find(reads, item) else {
                    return TxnAction::ClientAbort;
                };
                let mut new_row = row.clone();
                new_row.set("price", *new_price);
                TxnAction::Commit(vec![RecordUpdate::new(
                    item.clone(),
                    UpdateOp::Physical(PhysicalUpdate::write(*version, new_row)),
                )])
            }
        }
    }

    fn is_write(&self) -> bool {
        !matches!(self.plan, WritePlan::None)
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> TpcwConfig {
        TpcwConfig::with_scale(1_000, 7)
    }

    fn rows_for(txn: &TpcwTxn, stock: i64) -> Vec<(Key, Version, Option<Row>)> {
        txn.read_set()
            .into_iter()
            .map(|k| {
                let row = if k.table == tables::ITEM {
                    Some(Row::new().with(STOCK, stock).with("price", 500))
                } else {
                    None
                };
                (k, Version(1), row)
            })
            .collect()
    }

    #[test]
    fn initial_data_has_items_customers_authors() {
        let data = initial_data(&cfg(), 1);
        let items = data.iter().filter(|(k, _)| k.table == tables::ITEM).count();
        let customers = data
            .iter()
            .filter(|(k, _)| k.table == tables::CUSTOMER)
            .count();
        let authors = data
            .iter()
            .filter(|(k, _)| k.table == tables::AUTHOR)
            .count();
        assert_eq!(items, 1_000);
        assert_eq!(customers, 1_000);
        assert_eq!(authors, 500);
        for (k, row) in &data {
            if k.table == tables::ITEM {
                let s = row.get_int(STOCK).unwrap();
                assert!((10..=30).contains(&s));
            }
        }
    }

    #[test]
    fn buy_confirm_decrements_each_cart_item() {
        let mut w = TpcwWorkload::new(cfg());
        let mut rng = SmallRng::seed_from_u64(3);
        // Put two items in the cart, then buy.
        let mut cart1 = w.build(WebInteraction::ShoppingCart, &mut rng);
        let _ = cart1.decide(&rows_for(&cart1, 20));
        let mut buy = w.build(WebInteraction::BuyConfirm, &mut rng);
        let action = buy.decide(&rows_for(&buy, 20));
        let TxnAction::Commit(updates) = action else {
            panic!("expected commit");
        };
        let stock_updates: Vec<_> = updates
            .iter()
            .filter(|u| u.key.table == tables::ITEM)
            .collect();
        assert!(!stock_updates.is_empty());
        for u in &stock_updates {
            let UpdateOp::Commutative(c) = &u.op else {
                panic!("stock update must be commutative");
            };
            assert!(c.delta_for(STOCK) < 0);
        }
        // Orders, order lines, cc_xacts and the cart update ride along.
        assert!(updates.iter().any(|u| u.key.table == tables::ORDERS));
        assert!(updates.iter().any(|u| u.key.table == tables::ORDER_LINE));
        assert!(updates.iter().any(|u| u.key.table == tables::CC_XACTS));
        assert!(updates.iter().any(|u| u.key.table == tables::CART));
    }

    #[test]
    fn buy_confirm_aborts_on_empty_stock_in_physical_mode() {
        let mut c = cfg();
        c.commutative = false;
        let mut w = TpcwWorkload::new(c);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut buy = w.build(WebInteraction::BuyConfirm, &mut rng);
        assert!(matches!(
            buy.decide(&rows_for(&buy, 0)),
            TxnAction::ClientAbort
        ));
    }

    #[test]
    fn read_only_interactions_have_no_writes() {
        let mut w = TpcwWorkload::new(cfg());
        let mut rng = SmallRng::seed_from_u64(5);
        for wi in [
            WebInteraction::Home,
            WebInteraction::NewProducts,
            WebInteraction::BestSellers,
            WebInteraction::ProductDetail,
            WebInteraction::SearchRequest,
            WebInteraction::SearchResults,
            WebInteraction::BuyRequest,
            WebInteraction::OrderInquiry,
            WebInteraction::OrderDisplay,
            WebInteraction::AdminRequest,
        ] {
            let mut txn = w.build(wi, &mut rng);
            assert!(!txn.is_write(), "{wi:?}");
            assert!(!txn.read_set().is_empty(), "{wi:?} must read something");
            let reads = rows_for(&txn, 10);
            assert!(matches!(txn.decide(&reads), TxnAction::Commit(u) if u.is_empty()));
        }
    }

    #[test]
    fn registration_inserts_unique_customers() {
        let mut w = TpcwWorkload::new(cfg());
        let mut rng = SmallRng::seed_from_u64(6);
        let mut inserted = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut txn = w.build(WebInteraction::CustomerRegistration, &mut rng);
            if txn.is_write() {
                let TxnAction::Commit(updates) = txn.decide(&[]) else {
                    panic!()
                };
                assert_eq!(updates.len(), 1);
                assert!(
                    inserted.insert(updates[0].key.clone()),
                    "duplicate customer pk"
                );
                assert!(matches!(
                    &updates[0].op,
                    UpdateOp::Physical(p) if p.is_insert()
                ));
            }
        }
        assert!(!inserted.is_empty(), "80% of registrations insert");
    }

    #[test]
    fn cart_add_upserts_against_read_state() {
        let mut w = TpcwWorkload::new(cfg());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut txn = w.build(WebInteraction::ShoppingCart, &mut rng);
        // Cart does not exist yet → both writes are inserts.
        let reads: Vec<(Key, Version, Option<Row>)> = txn
            .read_set()
            .into_iter()
            .map(|k| {
                let row = (k.table == tables::ITEM).then(|| Row::new().with(STOCK, 5));
                (k, Version(0), row)
            })
            .collect();
        let TxnAction::Commit(updates) = txn.decide(&reads) else {
            panic!()
        };
        for u in updates {
            if let UpdateOp::Physical(p) = &u.op {
                assert!(p.is_insert(), "fresh cart rows are inserts");
            }
        }
        // Existing cart row → version-checked write.
        let mut txn2 = w.build(WebInteraction::ShoppingCart, &mut rng);
        let reads2: Vec<(Key, Version, Option<Row>)> = txn2
            .read_set()
            .into_iter()
            .map(|k| (k, Version(3), Some(Row::new().with("status", "active"))))
            .collect();
        let TxnAction::Commit(updates2) = txn2.decide(&reads2) else {
            panic!()
        };
        assert!(updates2.iter().any(|u| matches!(
            &u.op,
            UpdateOp::Physical(p) if p.vread == Some(Version(3))
        )));
    }

    #[test]
    fn generated_keys_are_client_unique() {
        let mut w1 = TpcwWorkload::new(TpcwConfig::with_scale(100, 1));
        let mut w2 = TpcwWorkload::new(TpcwConfig::with_scale(100, 2));
        let mut rng = SmallRng::seed_from_u64(8);
        let b1 = w1.build(WebInteraction::BuyConfirm, &mut rng);
        let b2 = w2.build(WebInteraction::BuyConfirm, &mut rng);
        let WritePlan::BuyConfirm { order: o1, .. } = &b1.plan else {
            panic!()
        };
        let WritePlan::BuyConfirm { order: o2, .. } = &b2.plan else {
            panic!()
        };
        assert_ne!(o1, o2);
    }

    #[test]
    fn mix_drives_roughly_37_percent_writes() {
        let mut w = TpcwWorkload::new(cfg());
        let mut rng = SmallRng::seed_from_u64(9);
        let writes = (0..2_000)
            .filter(|_| w.next_txn(&mut rng).is_write())
            .count();
        let frac = writes as f64 / 2_000.0;
        assert!((0.30..0.45).contains(&frac), "write fraction {frac}");
    }
}
