package aplus

import (
	"strings"
	"testing"
)

// buildExampleDB loads the paper's Figure 1 running example through the
// public API.
func buildExampleDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	type acct struct{ acc, city string }
	var accounts []VertexID
	for _, a := range []acct{{"SV", "SF"}, {"CQ", "SF"}, {"SV", "BOS"}, {"CQ", "BOS"}, {"SV", "LA"}} {
		v, err := db.AddVertex("Account", Props{"acc": a.acc, "city": a.city})
		if err != nil {
			t.Fatal(err)
		}
		accounts = append(accounts, v)
	}
	var customers []VertexID
	for _, name := range []string{"Charles", "Alice", "Bob"} {
		v, err := db.AddVertex("Customer", Props{"name": name})
		if err != nil {
			t.Fatal(err)
		}
		customers = append(customers, v)
	}
	for _, o := range [][2]int{{0, 2}, {0, 3}, {1, 0}, {1, 1}, {2, 4}} {
		if _, err := db.AddEdge(customers[o[0]], accounts[o[1]], "O", nil); err != nil {
			t.Fatal(err)
		}
	}
	type tfr struct {
		src, dst  int
		label     string
		amt, date int
		currency  string
	}
	for _, tr := range []tfr{
		{0, 2, "W", 200, 4, "EUR"},
		{0, 1, "W", 25, 17, "EUR"},
		{0, 4, "DD", 30, 18, "EUR"},
		{0, 3, "W", 80, 20, "USD"},
		{1, 2, "DD", 75, 7, "USD"},
		{1, 3, "W", 75, 8, "USD"},
		{1, 4, "DD", 10, 13, "GBP"},
		{4, 2, "W", 5, 19, "GBP"},
	} {
		if _, err := db.AddEdge(accounts[tr.src], accounts[tr.dst], tr.label,
			Props{"amt": tr.amt, "date": tr.date, "currency": tr.currency}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	db := buildExampleDB(t)
	n, err := db.Count("MATCH (c:Customer)-[r1:O]->(a1:Account)-[r2:W]->(a2:Account) WHERE c.name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
	// Reconfigure (Example 4) and requery with a currency predicate.
	if err := db.Exec("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.city"); err != nil {
		t.Fatal(err)
	}
	n, m, err := db.CountProfiled(
		"MATCH (c:Customer)-[r1:O]->(a1:Account)-[r2:W]->(a2:Account) WHERE c.name = 'Alice', r2.currency = 'EUR'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("EUR count = %d, want 2", n)
	}
	if m.ICost <= 0 {
		t.Error("metrics missing")
	}
}

// TestDeepPartitionDDLIsAnError: partition levels whose bucket product
// would overflow the CSR's bucket arithmetic are refused with an error,
// and the database keeps serving under its old configuration.
func TestDeepPartitionDDLIsAnError(t *testing.T) {
	db := buildExampleDB(t)
	keys := strings.Repeat("eadj.label, ", 24) + "eadj.label"
	if err := db.Exec("RECONFIGURE PRIMARY INDEXES PARTITION BY " + keys); err == nil {
		t.Fatal("25 nested label levels accepted")
	}
	if n, err := db.Count("MATCH (c:Customer)-[r1:O]->(a1:Account)"); err != nil || n != 5 {
		t.Fatalf("after refused DDL: count %d, %v; want 5", n, err)
	}
}

func TestPublicAPISecondaryIndexes(t *testing.T) {
	db := buildExampleDB(t)
	if err := db.Exec(`CREATE 1-HOP VIEW LargeEUR
		MATCH vs-[eadj]->vd
		WHERE eadj.currency = 'EUR', eadj.amt > 20
		INDEX AS FW-BW PARTITION BY eadj.label`); err != nil {
		t.Fatal(err)
	}
	q := "MATCH a1-[e]->a2 WHERE e.currency = 'EUR', e.amt > 20"
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "LargeEUR") {
		t.Errorf("plan should use the view:\n%s", plan)
	}
	n, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // t4 (200 EUR), t17-equivalent (25 EUR), t18-equivalent (30 EUR)
		t.Errorf("count = %d, want 3", n)
	}
	if !db.DropIndex("LargeEUR") {
		t.Error("drop failed")
	}
	if n2, _ := db.Count(q); n2 != n {
		t.Error("dropping the index changed results")
	}
}

func TestPublicAPIEdgePartitioned(t *testing.T) {
	db := buildExampleDB(t)
	if err := db.Exec(`CREATE 2-HOP VIEW Flow
		MATCH vs-[eb]->vd-[eadj]->vnbr
		WHERE eb.date < eadj.date, eadj.amt < eb.amt
		INDEX AS PARTITION BY eadj.label SORT BY vnbr.city`); err != nil {
		t.Fatal(err)
	}
	q := "MATCH a1-[e1]->a2-[e2]->a3 WHERE e1.date < e2.date, e2.amt < e1.amt"
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Flow") {
		t.Errorf("plan should use the 2-hop view:\n%s", plan)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIQueryRows(t *testing.T) {
	db := buildExampleDB(t)
	var rows int
	err := db.Query("MATCH (c:Customer)-[r:O]->(a:Account)", func(r Row) bool {
		if _, ok := r.Vertices["c"]; !ok {
			t.Error("missing vertex binding")
		}
		if _, ok := r.Edges["r"]; !ok {
			t.Error("missing edge binding")
		}
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 5 {
		t.Errorf("rows = %d, want 5", rows)
	}
}

func TestPublicAPIInsertAfterQuery(t *testing.T) {
	db := buildExampleDB(t)
	before, err := db.Count("MATCH a-[e:W]->b")
	if err != nil {
		t.Fatal(err)
	}
	// This insert goes through index maintenance.
	if _, err := db.AddEdge(0, 4, "W", Props{"amt": 7, "date": 21}); err != nil {
		t.Fatal(err)
	}
	after, err := db.Count("MATCH a-[e:W]->b")
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("count after insert = %d, want %d", after, before+1)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("MATCH a-[e:W]->b"); n != after {
		t.Error("flush changed results")
	}
}

func TestPublicAPIDelete(t *testing.T) {
	db := buildExampleDB(t)
	var wire EdgeID
	found := false
	err := db.Query("MATCH a-[e:W]->b", func(r Row) bool {
		wire = r.Edges["e"]
		found = true
		return false
	})
	if err != nil || !found {
		t.Fatal("no wire edge found")
	}
	before, _ := db.Count("MATCH a-[e:W]->b")
	if err := db.DeleteEdge(wire); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Count("MATCH a-[e:W]->b")
	if after != before-1 {
		t.Errorf("count after delete = %d, want %d", after, before-1)
	}
}

func TestPublicAPIPlannerOptions(t *testing.T) {
	db := buildExampleDB(t)
	q := "MATCH a1-[r1:W]->a2-[r2:W]->a3, a3-[r3:W]->a1"
	nFull, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	db.Planner = PlannerOptions{BinaryJoinsOnly: true}
	nBinary, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if nFull != nBinary {
		t.Errorf("plan space changed results: %d vs %d", nFull, nBinary)
	}
}

func TestGenerate(t *testing.T) {
	db, err := Generate(DatasetConfig{Preset: "berkstan", Scale: 0.2, Financial: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.NumVertices == 0 || st.NumEdges == 0 {
		t.Fatal("empty dataset")
	}
	if _, ok := db.PropertyPercentile("amt", 50); !ok {
		t.Error("percentile missing")
	}
	if _, err := Generate(DatasetConfig{Preset: "nope"}); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := Generate(DatasetConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestStatsBeforeAndAfterIndexes(t *testing.T) {
	db := buildExampleDB(t)
	st := db.Stats()
	if st.PrimaryIDListBytes != 0 {
		t.Error("index stats should be zero before first query")
	}
	if _, err := db.Count("MATCH a-[e]->b"); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.PrimaryIDListBytes <= 0 {
		t.Error("index stats missing after first query")
	}
}

func TestPropsAccessors(t *testing.T) {
	db := New()
	v, err := db.AddVertex("X", Props{"a": 1, "b": 2.5, "c": "s", "d": true})
	if err != nil {
		t.Fatal(err)
	}
	if db.VertexProp(v, "a") != int64(1) || db.VertexProp(v, "b") != 2.5 ||
		db.VertexProp(v, "c") != "s" || db.VertexProp(v, "d") != true {
		t.Error("prop round trip broken")
	}
	if db.VertexProp(v, "missing") != nil {
		t.Error("missing prop should be nil")
	}
	if _, err := db.AddVertex("X", Props{"bad": []int{1}}); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestAdviseEndToEnd(t *testing.T) {
	db, err := Generate(DatasetConfig{Preset: "berkstan", Scale: 0.5, Financial: true, Time: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	workload := []string{
		"MATCH a1-[e1]->a2, a1-[e2]->a3 WHERE a2.city = a3.city",
		"MATCH a1-[e1]->a2-[e2]->a3 WHERE e1.date < e2.date, e1.amt > e2.amt, a1.ID < 30",
	}
	recs, err := db.Advise(workload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations for an index-friendly workload")
	}
	// The top recommendation's DDL must be installable and must not change
	// results.
	before := make([]int64, len(workload))
	for i, q := range workload {
		n, err := db.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = n
	}
	if err := db.Exec(recs[0].DDL); err != nil {
		t.Fatalf("installing %q: %v", recs[0].DDL, err)
	}
	for i, q := range workload {
		n, err := db.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != before[i] {
			t.Errorf("recommendation changed results of %q: %d vs %d", q, n, before[i])
		}
	}
}

func TestBandedPredicateEndToEnd(t *testing.T) {
	db := buildExampleDB(t)
	// Add a 2-path whose amounts differ by more than the tight band: a
	// 200-then-5 chain through the BOS account.
	if _, err := db.AddEdge(2, 4, "DD", Props{"amt": 5, "date": 22}); err != nil {
		t.Fatal(err)
	}
	// amt within a band of another edge's amount.
	n, err := db.Count("MATCH a1-[e1]->a2-[e2]->a3 WHERE e1.amt > e2.amt, e1.amt < e2.amt + 50")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := db.Count("MATCH a1-[e1]->a2-[e2]->a3 WHERE e1.amt > e2.amt, e1.amt < e2.amt + 5000")
	if err != nil {
		t.Fatal(err)
	}
	if n >= wide {
		t.Errorf("tight band (%d) should match fewer than wide band (%d)", n, wide)
	}
	if n == 0 {
		t.Error("band should match something in the example graph")
	}
}
