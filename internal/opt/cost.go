package opt

import (
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// stats holds the cost model's float view of the store's graph statistics
// (index.GraphStats, counted once per store). The model only needs to rank
// plans, not predict runtimes, so the estimates are deliberately simple:
// average list sizes per index refined by fixed selectivity factors per
// consumed partition level or segment.
type stats struct {
	numV, numE float64
	counts     *index.GraphStats
	// corr is the degree-correlation multiplier for intersection-size
	// estimates: nv * E[deg^2] / E[deg]^2-style second-moment correction.
	// It is 1 for uniform graphs and grows with degree skew, which is what
	// makes common-neighbour counts on power-law graphs much larger than
	// the independence assumption predicts.
	corr float64
}

func newStats(gs *index.GraphStats) stats {
	st := stats{
		numV:   float64(gs.NumVertices),
		numE:   float64(gs.LiveEdges),
		counts: gs,
		corr:   1,
	}
	if st.numV == 0 {
		st.numV = 1
	}
	if st.numE > 0 {
		m2 := float64(gs.DegreeSquares) / 2
		st.corr = st.numV * m2 / (st.numE * st.numE)
		if st.corr < 1 {
			st.corr = 1
		}
	}
	return st
}

// intersectCard estimates the output size of intersecting lists of the
// given sizes: independence (product over nv per extra list) corrected by
// the degree-skew factor.
func (st stats) intersectCard(sizes []float64) float64 {
	minIdx := 0
	for i := range sizes {
		if sizes[i] < sizes[minIdx] {
			minIdx = i
		}
	}
	out := sizes[minIdx]
	for i, s := range sizes {
		if i == minIdx {
			continue
		}
		// corr appears squared: once for the hub bias of the candidate
		// elements, once for the hub bias of the list owners (vertices
		// reached via edges are degree-biased).
		out *= s * st.corr * st.corr / st.numV
	}
	// An intersection can never exceed its smallest input.
	if out > sizes[minIdx] {
		out = sizes[minIdx]
	}
	if out < 0.01 {
		out = 0.01
	}
	return out
}

// Selectivity factors. Only relative order matters.
const (
	selPartitionLevel = 0.34 // each consumed partition level beyond a label
	selSegmentRange   = 0.25 // static range segment
	selSegmentEq      = 0.08 // equality / dynamic-equality segment
	selIntersect      = 0.2  // each additional intersected list
	selJoinKey        = 0.1  // each additional MULTI-EXTEND group
	selCloseEdge      = 0.1  // probability a probed edge exists
)

// termSelectivity estimates how much of a stream a residual filter term
// passes. Workload predicates with constants (the α bounds, city/account
// equalities) are deliberately selective in the paper's experiments, so
// equality and range comparisons are treated as strong filters.
func termSelectivity(op pred.Op) float64 {
	switch op {
	case pred.EQ:
		return 0.08
	case pred.NE:
		return 0.9
	default:
		return 0.1
	}
}

// avgPrimaryList estimates the list size of a primary lookup with a label
// consumed (or not). Vertices reached through extensions are degree-biased
// (the friendship paradox), so the size-biased mean degree — corr times
// the plain mean — is the better per-list estimate on skewed graphs.
func (st stats) avgPrimaryList(labelled bool, label storage.LabelID) float64 {
	if labelled {
		return float64(st.counts.EdgeLabelCounts[label]) / st.numV * st.corr
	}
	return st.numE / st.numV * st.corr
}

// avgVPList estimates a secondary vertex-partitioned list size.
func (st stats) avgVPList(v *index.VertexPartitioned, dirs int) float64 {
	if dirs == 0 {
		dirs = 1
	}
	return float64(v.NumIndexedEdges()) / float64(dirs) / st.numV * st.corr
}

// avgEPList estimates a secondary edge-partitioned list size: the bound
// edge's endpoint is degree-biased by construction.
func (st stats) avgEPList(ep *index.EdgePartitioned) float64 {
	if st.numE == 0 {
		return 0
	}
	return float64(ep.NumIndexedEdges()) / st.numE * st.corr
}
