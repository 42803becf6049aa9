package index

import "github.com/aplusdb/aplus/internal/storage"

// GraphStats are the coarse graph statistics the optimizer ranks plans by
// (Section IV-A: the index store maintains metadata for the optimizer).
// Every field is an exact integer count over live edges, so a memoized
// value and a fresh recompute over the same graph compare equal. A
// GraphStats is read-only once published; its maps must not be modified.
type GraphStats struct {
	NumVertices int
	LiveEdges   int
	// EdgeLabelCounts and VertexLabelCounts count live edges and vertices
	// per label; labels with no members are absent.
	EdgeLabelCounts   map[storage.LabelID]int
	VertexLabelCounts map[storage.LabelID]int
	// DegreeSquares is the degree second moment's numerator: the sum over
	// vertices of outdeg² + indeg², live edges only.
	DegreeSquares int64
}

// ComputeGraphStats counts g's statistics in one pass over its edges and
// vertices.
func ComputeGraphStats(g *storage.Graph) *GraphStats {
	nv := g.NumVertices()
	st := &GraphStats{
		NumVertices:       nv,
		LiveEdges:         g.NumLiveEdges(),
		EdgeLabelCounts:   make(map[storage.LabelID]int),
		VertexLabelCounts: make(map[storage.LabelID]int),
	}
	outDeg := make([]int64, nv)
	inDeg := make([]int64, nv)
	for i := 0; i < g.NumEdges(); i++ {
		e := storage.EdgeID(i)
		if g.EdgeDeleted(e) {
			continue
		}
		st.EdgeLabelCounts[g.EdgeLabel(e)]++
		outDeg[g.Src(e)]++
		inDeg[g.Dst(e)]++
	}
	for i := 0; i < nv; i++ {
		st.VertexLabelCounts[g.VertexLabel(storage.VertexID(i))]++
		st.DegreeSquares += outDeg[i]*outDeg[i] + inDeg[i]*inDeg[i]
	}
	return st
}

// GraphStats returns the statistics of the store's graph, computing them
// on the first call and reusing them afterwards. Concurrent first callers
// may each compute and publish them; the values they publish are equal.
func (s *Store) GraphStats() *GraphStats {
	if st := s.graphStats.Load(); st != nil {
		return st
	}
	st := ComputeGraphStats(s.g)
	s.graphStats.Store(st)
	return st
}
