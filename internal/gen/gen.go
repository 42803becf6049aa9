// Package gen builds the synthetic datasets of the evaluation. The paper
// uses four public graphs (Orkut, LiveJournal, Wiki-topcats, BerkStan);
// this reproduction runs offline, so deterministic Chung–Lu-style power-law
// generators with the same average degrees stand in for them at reduced
// scale (see DESIGN.md, "Substitutions"). Property decoration follows
// Section V-C2: random account types from {CQ, SV}, cities, amounts in
// [1, 1000], dates within a five-year range; MagicRecs graphs additionally
// get a time property (Section V-C1).
package gen

import (
	"fmt"
	"math"
	"sort"

	"github.com/aplusdb/aplus/internal/storage"
)

// Config describes a synthetic dataset. The paper's notation G_{i,j} maps
// to VertexLabels=i, EdgeLabels=j.
type Config struct {
	Name         string
	NumVertices  int
	AvgDegree    float64
	Alpha        float64 // power-law exponent of the weight sequence (default 2.0)
	VertexLabels int     // number of random vertex labels (default 1)
	EdgeLabels   int     // number of random edge labels (default 1)
	Seed         int64
	Financial    bool // acc/city/amt/currency/date properties
	Time         bool // time property on edges (MagicRecs)
	Cities       int  // distinct cities (default 40)
	// HubDegree, when positive, gives vertex 0 that many extra out-edges on
	// top of the Chung–Lu sequence — a deliberate super-hub for skew
	// experiments (one morsel far heavier than the rest).
	HubDegree int
}

// Scaled dataset presets mirroring Table I at ~1/1000 vertex scale with the
// paper's average degrees.
var (
	Orkut       = Config{Name: "Ork", NumVertices: 3000, AvgDegree: 39.03}
	LiveJournal = Config{Name: "LJ", NumVertices: 4800, AvgDegree: 14.27}
	WikiTopcats = Config{Name: "WT", NumVertices: 1800, AvgDegree: 15.83}
	BerkStan    = Config{Name: "Brk", NumVertices: 685, AvgDegree: 11.09}
)

// WithLabels returns a copy with the G_{i,j} label counts set.
func (c Config) WithLabels(i, j int) Config {
	c.VertexLabels, c.EdgeLabels = i, j
	if i > 1 || j > 1 {
		c.Name = fmt.Sprintf("%s%d,%d", c.Name, i, j)
	}
	return c
}

// Build generates the graph.
func Build(cfg Config) *storage.Graph {
	if cfg.Alpha == 0 {
		// 2.5 keeps a heavy-tailed degree profile without concentrating
		// most edges on a handful of hubs, which at reduced scale would
		// distort list-size ratios relative to the full-size graphs.
		cfg.Alpha = 2.5
	}
	if cfg.VertexLabels <= 0 {
		cfg.VertexLabels = 1
	}
	if cfg.EdgeLabels <= 0 {
		cfg.EdgeLabels = 1
	}
	if cfg.Cities <= 0 {
		cfg.Cities = 40
	}
	rng := NewRand(cfg.Seed + 1)
	g := storage.NewGraph()
	nv := cfg.NumVertices
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("V%d", rng.Intn(cfg.VertexLabels)))
	}

	// Chung–Lu style weights: w_i proportional to (rank+1)^(-1/(alpha-1)),
	// which yields a power-law degree sequence with exponent alpha. Ranks
	// are shuffled across vertex IDs so that, as in the SNAP datasets the
	// paper uses, ID ranges are degree-unbiased samples (several workload
	// queries anchor on ID ranges).
	perm := make([]int, nv)
	for i := range perm {
		perm[i] = i
	}
	for i := nv - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	weights := make([]float64, nv)
	var sum float64
	exp := 1.0 / (cfg.Alpha - 1.0)
	for i := range weights {
		weights[perm[i]] = math.Pow(float64(i+1), -exp)
	}
	for _, w := range weights {
		sum += w
	}
	cum := make([]float64, nv)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	pick := func() storage.VertexID {
		x := rng.Float64()
		i := sort.SearchFloat64s(cum, x)
		if i >= nv {
			i = nv - 1
		}
		return storage.VertexID(i)
	}

	addEdge := func(src, dst storage.VertexID) {
		e, err := g.AddEdge(src, dst, fmt.Sprintf("E%d", rng.Intn(cfg.EdgeLabels)))
		if err != nil {
			panic(err)
		}
		if cfg.Financial {
			mustSet(g.SetEdgeProp(e, storage.PropAmount, storage.Int(1+int64(rng.Intn(1000)))))
			mustSet(g.SetEdgeProp(e, storage.PropDate, storage.Int(1+int64(rng.Intn(5*365)))))
			mustSet(g.SetEdgeProp(e, storage.PropCurrency, storage.Str(currencies[rng.Intn(len(currencies))])))
		}
		if cfg.Time {
			mustSet(g.SetEdgeProp(e, "time", storage.Int(int64(rng.Intn(1_000_000)))))
		}
	}
	ne := int(float64(nv) * cfg.AvgDegree)
	for i := 0; i < ne; i++ {
		addEdge(pick(), pick())
	}
	// Super-hub edges share the background graph's label and property
	// distributions; only the source concentration differs.
	for i := 0; i < cfg.HubDegree; i++ {
		addEdge(0, pick())
	}
	if cfg.Financial {
		for i := 0; i < nv; i++ {
			v := storage.VertexID(i)
			mustSet(g.SetVertexProp(v, storage.PropAcc, storage.Str(accountTypes[rng.Intn(len(accountTypes))])))
			mustSet(g.SetVertexProp(v, storage.PropCity, storage.Str(fmt.Sprintf("C%d", rng.Intn(cfg.Cities)))))
		}
	}
	return g
}

var (
	currencies   = []string{"USD", "EUR", "GBP"}
	accountTypes = []string{"CQ", "SV"}
)

func mustSet(err error) {
	if err != nil {
		panic(err)
	}
}

// PercentileInt returns the value at the given percentile (0..100) of a
// non-null integer edge property — used to pick predicate constants with a
// target selectivity, like the paper's 5%-selective α.
func PercentileInt(g *storage.Graph, prop string, pct float64) (int64, bool) {
	col, ok := g.EdgeColumn(prop)
	if !ok {
		return 0, false
	}
	var vals []int64
	for i := 0; i < g.NumEdges(); i++ {
		if v, ok := col.IntAt(i); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := int(pct / 100 * float64(len(vals)))
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx], true
}

// Rand is a small deterministic PRNG (splitmix64) so datasets are
// reproducible across platforms without math/rand version drift.
type Rand struct{ x uint64 }

// NewRand seeds a generator.
func NewRand(seed int64) *Rand { return &Rand{uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9} }

// Next returns the next raw 64-bit value.
func (r *Rand) Next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / float64(1<<53) }
