package bench

import (
	"fmt"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// silo models the in-memory OLTP database of Table I running a TPC-C-like
// NewOrder/Payment mix. Each transaction is a chain of tasks, each reading
// or updating one tuple; hints concatenate (table ID, primary key), which
// is known at task creation time even though the tuple's address would
// require an index traversal (Sec. III-C, "Abstract unique IDs").

// Table IDs for hint construction.
const (
	tblWarehouse uint64 = 1
	tblDistrict  uint64 = 2
	tblCustomer  uint64 = 3
	tblStock     uint64 = 4
	tblItem      uint64 = 5
	tblOrder     uint64 = 6
)

func siloHint(table, key uint64) uint64 { return table<<40 | key }

// maxOrderLines bounds the per-transaction order-line slots.
const maxOrderLines = 8

// tsPerTxn spaces transaction timestamps so every step of txn i precedes
// every step of txn i+1 (ordered speculation across transactions).
const tsPerTxn = 32

type siloDB struct {
	cfg       workload.TPCCConfig
	warehouse uint64 // W words: YTD
	district  uint64 // W*D*2 words: [nextOID, YTD]
	customer  uint64 // W*D*C words: balance
	stock     uint64 // W*I words: quantity
	item      uint64 // I words: price (read-only)
	orders    uint64 // nTxns*(1+maxOrderLines) words
}

func (db *siloDB) districtAddr(w, d uint64) uint64 {
	return db.district + (w*uint64(db.cfg.Districts)+d)*2*8
}
func (db *siloDB) customerAddr(w, d, c uint64) uint64 {
	return db.customer + ((w*uint64(db.cfg.Districts)+d)*uint64(db.cfg.Customers)+c)*8
}
func (db *siloDB) stockAddr(w, it uint64) uint64 {
	return db.stock + (w*uint64(db.cfg.Items)+it)*8
}
func (db *siloDB) orderAddr(txn uint64) uint64 {
	return db.orders + txn*(1+maxOrderLines)*8
}

func siloScaleParams(scale Scale) int {
	switch scale {
	case Tiny:
		return 120
	case Small:
		return 700
	default:
		return 3000
	}
}

// BuildSilo builds the database, the transaction mix, and the task chains.
func BuildSilo(scale Scale, seed int64) *Instance {
	cfg := workload.DefaultTPCC()
	nTxns := siloScaleParams(scale)
	txns := workload.TPCCTxns(cfg, nTxns, seed)

	p := swarm.NewProgram()
	db := &siloDB{
		cfg:       cfg,
		warehouse: p.Mem.AllocWords(uint64(cfg.Warehouses)),
		district:  p.Mem.AllocWords(uint64(cfg.Warehouses*cfg.Districts) * 2),
		customer:  p.Mem.AllocWords(uint64(cfg.Warehouses * cfg.Districts * cfg.Customers)),
		stock:     p.Mem.AllocWords(uint64(cfg.Warehouses * cfg.Items)),
		item:      p.Mem.AllocWords(uint64(cfg.Items)),
		orders:    p.Mem.AllocWords(uint64(nTxns) * (1 + maxOrderLines)),
	}
	// Initial state: stocks at 100, prices 1..I, balances 1000.
	for w := 0; w < cfg.Warehouses; w++ {
		for it := 0; it < cfg.Items; it++ {
			p.Mem.StoreRaw(db.stockAddr(uint64(w), uint64(it)), 100)
		}
	}
	for it := 0; it < cfg.Items; it++ {
		p.Mem.StoreRaw(db.item+uint64(it)*8, uint64(it%97)+1)
	}
	for i := 0; i < cfg.Warehouses*cfg.Districts*cfg.Customers; i++ {
		p.Mem.StoreRaw(db.customer+uint64(i)*8, 1000)
	}

	base := func(txn uint64) uint64 { return txn * tsPerTxn }

	// --- NewOrder chain: warehouse -> district -> (item -> stock)* -> order lines ---
	var districtFn, itemFn, stockFn, linesFn swarm.FnID
	linesFn = p.Register("noOrderLines", func(c *swarm.Ctx) {
		txn, oid, total := c.Arg(0), c.Arg(1), c.Arg(2)
		tx := &txns[txn]
		oa := db.orderAddr(txn)
		c.Write(oa, oid)
		for l, it := range tx.Items {
			c.Write(oa+uint64(l+1)*8, uint64(it)<<32|uint64(tx.Qty[l]))
		}
		c.Write(oa+maxOrderLines*8, total) // last slot: total amount
	})
	stockFn = p.Register("noStock", func(c *swarm.Ctx) {
		txn, line, oid, total, price := c.Arg(0), c.Arg(1), c.Arg(2), c.Arg(3), c.Arg(4)
		tx := &txns[txn]
		it, qty := uint64(tx.Items[line]), uint64(tx.Qty[line])
		sa := db.stockAddr(uint64(tx.Warehouse), it)
		q := c.Read(sa)
		nq := q - qty
		if int64(nq) < 10 {
			nq += 91 // TPC-C restock rule
		}
		c.Write(sa, nq)
		total += price * qty
		if int(line+1) < len(tx.Items) {
			nit := uint64(tx.Items[line+1])
			c.Enqueue(itemFn, base(txn)+4+2*(line+1), siloHint(tblItem, nit),
				txn, line+1, oid, total)
		} else {
			c.Enqueue(linesFn, base(txn)+4+2*uint64(len(tx.Items))+1,
				siloHint(tblOrder, txn), txn, oid, total)
		}
	})
	itemFn = p.Register("noItem", func(c *swarm.Ctx) {
		txn, line, oid, total := c.Arg(0), c.Arg(1), c.Arg(2), c.Arg(3)
		tx := &txns[txn]
		it := uint64(tx.Items[line])
		price := c.Read(db.item + it*8)
		c.Enqueue(stockFn, base(txn)+5+2*line,
			siloHint(tblStock, uint64(tx.Warehouse)*uint64(cfg.Items)+it),
			txn, line, oid, total, price)
	})
	// NewOrder begins at the district: it reads the warehouse tax tuple and
	// read-increments the district's next-order-id. Starting chains at the
	// district keeps the entry hint cardinality at W*D rather than W (the
	// warehouse tuple is read-only for NewOrder, so it needs no
	// serialization of its own).
	districtFn = p.Register("noDistrict", func(c *swarm.Ctx) {
		txn := c.Arg(0)
		tx := &txns[txn]
		_ = c.Read(db.warehouse + uint64(tx.Warehouse)*8) // warehouse tax read
		da := db.districtAddr(uint64(tx.Warehouse), uint64(tx.District))
		oid := c.Read(da)
		c.Write(da, oid+1)
		nit := uint64(tx.Items[0])
		c.Enqueue(itemFn, base(txn)+4, siloHint(tblItem, nit), txn, 0, oid, 0)
	})

	// --- Payment chain: warehouse -> district -> customer ---
	var payDistrictFn, payCustomerFn swarm.FnID
	payCustomerFn = p.Register("payCustomer", func(c *swarm.Ctx) {
		txn := c.Arg(0)
		tx := &txns[txn]
		ca := db.customerAddr(uint64(tx.Warehouse), uint64(tx.District), uint64(tx.Customer))
		c.Write(ca, uint64(int64(c.Read(ca))-tx.Amount))
	})
	payDistrictFn = p.Register("payDistrict", func(c *swarm.Ctx) {
		txn := c.Arg(0)
		tx := &txns[txn]
		da := db.districtAddr(uint64(tx.Warehouse), uint64(tx.District)) + 8 // YTD word
		c.Write(da, uint64(int64(c.Read(da))+tx.Amount))
		key := (uint64(tx.Warehouse)*uint64(cfg.Districts)+uint64(tx.District))*uint64(cfg.Customers) + uint64(tx.Customer)
		c.Enqueue(payCustomerFn, base(txn)+2, siloHint(tblCustomer, key), txn)
	})
	paymentFn := p.Register("payWarehouse", func(c *swarm.Ctx) {
		txn := c.Arg(0)
		tx := &txns[txn]
		wa := db.warehouse + uint64(tx.Warehouse)*8
		c.Write(wa, uint64(int64(c.Read(wa))+tx.Amount))
		c.Enqueue(payDistrictFn, base(txn)+1,
			siloHint(tblDistrict, uint64(tx.Warehouse)*uint64(cfg.Districts)+uint64(tx.District)), txn)
	})

	for i, tx := range txns {
		txn := uint64(i)
		switch tx.Kind {
		case workload.TxnNewOrder:
			p.EnqueueRoot(districtFn, base(txn),
				siloHint(tblDistrict, uint64(tx.Warehouse)*uint64(cfg.Districts)+uint64(tx.District)), txn)
		case workload.TxnPayment:
			p.EnqueueRoot(paymentFn, base(txn), siloHint(tblWarehouse, uint64(tx.Warehouse)), txn)
		}
	}

	ref := refSilo(cfg, txns)
	return &Instance{
		Name: "silo", Prog: p, Ordered: true,
		Validate: func() error {
			return ref.check(p, db, txns)
		},
	}
}

// refSilo executes the transactions serially in order with identical logic.
type siloRef struct {
	warehouse []int64
	district  [][2]uint64 // nextOID, YTD (YTD as int64 bits)
	customer  []int64
	stock     []uint64
	orders    [][]uint64
}

func refSilo(cfg workload.TPCCConfig, txns []workload.Txn) *siloRef {
	r := &siloRef{
		warehouse: make([]int64, cfg.Warehouses),
		district:  make([][2]uint64, cfg.Warehouses*cfg.Districts),
		customer:  make([]int64, cfg.Warehouses*cfg.Districts*cfg.Customers),
		stock:     make([]uint64, cfg.Warehouses*cfg.Items),
		orders:    make([][]uint64, len(txns)),
	}
	for i := range r.customer {
		r.customer[i] = 1000
	}
	for i := range r.stock {
		r.stock[i] = 100
	}
	price := func(it int32) uint64 { return uint64(it%97) + 1 }
	for i, tx := range txns {
		w, d := int(tx.Warehouse), int(tx.District)
		di := w*cfg.Districts + d
		switch tx.Kind {
		case workload.TxnNewOrder:
			oid := r.district[di][0]
			r.district[di][0]++
			var total uint64
			slot := make([]uint64, 1+maxOrderLines)
			slot[0] = oid
			for l, it := range tx.Items {
				si := w*cfg.Items + int(it)
				q := r.stock[si] - uint64(tx.Qty[l])
				if int64(q) < 10 {
					q += 91
				}
				r.stock[si] = q
				total += price(it) * uint64(tx.Qty[l])
				slot[l+1] = uint64(it)<<32 | uint64(tx.Qty[l])
			}
			slot[maxOrderLines] = total
			r.orders[i] = slot
		case workload.TxnPayment:
			r.warehouse[w] += tx.Amount
			r.district[di][1] = uint64(int64(r.district[di][1]) + tx.Amount)
			ci := di*cfg.Customers + int(tx.Customer)
			r.customer[ci] -= tx.Amount
		}
	}
	return r
}

func (r *siloRef) check(p *swarm.Program, db *siloDB, txns []workload.Txn) error {
	cfg := db.cfg
	for w := 0; w < cfg.Warehouses; w++ {
		if got := int64(p.Mem.Load(db.warehouse + uint64(w)*8)); got != r.warehouse[w] {
			return fmt.Errorf("silo: warehouse %d YTD %d, want %d", w, got, r.warehouse[w])
		}
	}
	for di := 0; di < cfg.Warehouses*cfg.Districts; di++ {
		a := db.district + uint64(di)*2*8
		if got := p.Mem.Load(a); got != r.district[di][0] {
			return fmt.Errorf("silo: district %d nextOID %d, want %d", di, got, r.district[di][0])
		}
		if got := p.Mem.Load(a + 8); got != r.district[di][1] {
			return fmt.Errorf("silo: district %d YTD %d, want %d", di, got, r.district[di][1])
		}
	}
	for ci := range r.customer {
		if got := int64(p.Mem.Load(db.customer + uint64(ci)*8)); got != r.customer[ci] {
			return fmt.Errorf("silo: customer %d balance %d, want %d", ci, got, r.customer[ci])
		}
	}
	for si := range r.stock {
		if got := p.Mem.Load(db.stock + uint64(si)*8); got != r.stock[si] {
			return fmt.Errorf("silo: stock %d qty %d, want %d", si, got, r.stock[si])
		}
	}
	for i := range txns {
		if r.orders[i] == nil {
			continue
		}
		oa := db.orderAddr(uint64(i))
		for j, want := range r.orders[i] {
			if got := p.Mem.Load(oa + uint64(j)*8); got != want {
				return fmt.Errorf("silo: order %d word %d = %d, want %d", i, j, got, want)
			}
		}
	}
	return nil
}
