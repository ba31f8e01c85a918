package core

import (
	"fmt"
	"testing"

	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/rule"
)

// The store hands every reader its stored records without copying
// them; these tests pin down the two halves of that contract at the
// engine surface: records returned to application code are private
// copies, and rule processing — conditions, actions, cascades in every
// coupling mode — never writes into a shared committed version.

// TestEngineGetReturnsPrivateCopy mutates the maps Get and
// GetForUpdate return and checks that neither the store nor a later
// read sees the change.
func TestEngineGetReturnsPrivateCopy(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	oid := createStock(t, e, "XRX", 48)
	verify := e.Store.AuditImmutable()

	scribble := func(attrs map[string]datum.Value) {
		attrs["price"] = datum.Float(999)
		attrs["bogus"] = datum.Int(1)
		delete(attrs, "symbol")
	}
	tx := e.Begin()
	rec, err := e.Get(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	scribble(rec.Attrs)
	rec, err = e.GetForUpdate(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attrs["price"].AsFloat() != 48 || rec.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("GetForUpdate after scribbling on Get's map = %v", rec.Attrs)
	}
	scribble(rec.Attrs)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := e.Begin()
	defer check.Commit()
	rec, err = e.Get(check, oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Attrs) != 2 || rec.Attrs["price"].AsFloat() != 48 || rec.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("store changed by writes into returned maps: %v", rec.Attrs)
	}
	res, err := e.Query(check, "select s.price, s.symbol from Stock s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != `[[48 "XRX"]]` {
		t.Fatalf("query after scribbling = %s", got)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRuleFiringLeavesCommittedVersionsIntact runs a cascade of
// immediate, deferred and separate rules whose conditions probe an
// index, join classes and scan extents, over many modifications, with
// the store's immutability audit armed.
func TestRuleFiringLeavesCommittedVersionsIntact(t *testing.T) {
	e, _ := newEngine(t)
	defineStockAndAudit(t, e)
	tx := e.Begin()
	if err := e.DefineClass(tx, object.Class{Name: "Note", Attrs: []object.AttrDef{
		{Name: "note", Kind: datum.KindString},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	verify := e.Store.AuditImmutable()
	var oids []datum.OID
	for i := 0; i < 6; i++ {
		oids = append(oids, createStock(t, e, fmt.Sprintf("S%d", i), float64(10*i)))
	}
	rules := []rule.Def{{
		Name:      "index-path",
		Event:     "modify(Stock)",
		Condition: []string{"select s from Stock s where s.price >= 20 and s.price < event.new_price"},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'above'", "price": "event.new_price"}}},
		EC: "immediate", CA: "immediate",
	}, {
		Name:      "join",
		Event:     "create(Audit)",
		Condition: []string{"select s, a from Stock s, Audit a where s.price = a.price"},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Note",
			Attrs: map[string]string{"note": "'joined'"}}},
		EC: "deferred", CA: "immediate",
	}, {
		Name:      "scan",
		Event:     "modify(Stock)",
		Condition: []string{"select count(a) as n from Audit a"},
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Note",
			Attrs: map[string]string{"note": "'counted'"}}},
		EC: "separate", CA: "immediate",
	}}
	for _, def := range rules {
		if _, err := e.CreateRule(def); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		tx = e.Begin()
		oid := oids[round%len(oids)]
		if err := e.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(float64(5 * round))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Quiesce()
	if errs := e.AsyncErrors(); len(errs) > 0 {
		t.Fatal(errs)
	}
	if auditCount(t, e) == 0 {
		t.Fatal("no rule fired")
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
}
