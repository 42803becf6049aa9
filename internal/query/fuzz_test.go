package query

import "testing"

// Native fuzz targets for the query and DDL parsers: no input may panic or
// hang them. Crashers found so far live under testdata/fuzz/ and replay on
// every plain `go test`. Run a target with, e.g.:
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/query/

func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"MATCH c1-[r1]->a1-[r2]->a2 WHERE c1.name = 'Alice'",
		"MATCH (a:X)-[e:E]->(b), b-[f]->a WHERE e.amt >= 1.5, e.x <> 3",
		"MATCH a1→a2←a3 RETURN COUNT(*)",
		"MATCH a-[e]->b WHERE a.x < b.x + 10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned neither a graph nor an error", src)
		}
	})
}

func FuzzParseDDL(f *testing.F) {
	for _, s := range []string{
		"RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.city",
		"CREATE 1-HOP VIEW v MATCH vs-[eadj]->vd WHERE eadj.time < 5 INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
		"CREATE 2-HOP VIEW MoneyFlow MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date < eadj.date INDEX AS PARTITION BY eadj.label",
		"DROP VIEW MoneyFlow",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDDL(src)
		if err == nil && d == nil {
			t.Fatalf("ParseDDL(%q) returned neither a statement nor an error", src)
		}
	})
}
