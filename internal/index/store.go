package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/aplusdb/aplus/internal/storage"
)

// DefaultMergeThreshold is the number of buffered maintenance operations
// after which update buffers are merged into the index pages (Section IV-C:
// "The update buffers are merged into the actual data pages when the buffer
// is full").
const DefaultMergeThreshold = 4096

// Store is the INDEX STORE of Section IV-A: it owns the primary A+ indexes
// and every secondary index, maintains their metadata for the optimizer,
// and coordinates updates across them.
//
// Concurrency: every mutating method (InsertEdge, DeleteEdge, Flush,
// Reconfigure, Create*, DropIndex) takes the store's write lock. Readers —
// the optimizer and query workers — do not lock per access; instead they
// bracket whole queries with RLock/RUnlock, so a query observes one
// consistent index state and writes wait for in-flight queries to drain.
//
// Once a store is built over a graph, that graph is mutated only through
// the store's own methods (InsertEdge, DeleteEdge). The memoized
// GraphStats rely on it: those methods clear the memo, and nothing else
// can tell it the graph changed.
type Store struct {
	g       *storage.Graph
	primary *Primary
	vps     []*VertexPartitioned
	eps     []*EdgePartitioned

	// mu is the coarse reader/writer lock described above.
	mu sync.RWMutex

	// graphStats memoizes GraphStats; nil until the first call and after
	// each InsertEdge/DeleteEdge.
	graphStats atomic.Pointer[GraphStats]

	// MergeThreshold controls how much buffered maintenance work may
	// accumulate before a merge; tests lower it to exercise merging.
	MergeThreshold int
}

// RLock takes the store's read lock. Bracket each query's planning and
// execution with RLock/RUnlock so index mutations wait for it to finish.
func (s *Store) RLock() { s.mu.RLock() }

// RUnlock releases the read lock taken by RLock.
func (s *Store) RUnlock() { s.mu.RUnlock() }

// NewStore builds a store over g with the primary indexes configured by
// cfg (use DefaultConfig for GraphflowDB's default).
func NewStore(g *storage.Graph, cfg Config) (*Store, error) {
	p, err := BuildPrimary(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Store{g: g, primary: p, MergeThreshold: DefaultMergeThreshold}, nil
}

// Graph returns the underlying graph.
func (s *Store) Graph() *storage.Graph { return s.g }

// Primary returns the primary index pair.
func (s *Store) Primary() *Primary { return s.primary }

// VertexIndexes returns the secondary vertex-partitioned indexes.
func (s *Store) VertexIndexes() []*VertexPartitioned { return s.vps }

// EdgeIndexes returns the secondary edge-partitioned indexes.
func (s *Store) EdgeIndexes() []*EdgePartitioned { return s.eps }

// Reconfigure rebuilds the primary indexes under a new configuration (the
// paper's RECONFIGURE PRIMARY INDEXES command) and rebuilds every secondary
// index, since their offsets reference primary list positions.
func (s *Store) Reconfigure(cfg Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	p, err := BuildPrimary(s.g, cfg)
	if err != nil {
		return err
	}
	s.primary = p
	for _, v := range s.vps {
		v.primary = p
		if err := v.rebuild(); err != nil {
			return err
		}
	}
	for _, e := range s.eps {
		e.primary = p
		if err := e.rebuild(); err != nil {
			return err
		}
	}
	return nil
}

// CreateVertexPartitioned builds and registers a secondary
// vertex-partitioned index (the paper's CREATE 1-HOP VIEW command).
func (s *Store) CreateVertexPartitioned(def VPDef) (*VertexPartitioned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lookupName(def.View.Name) {
		return nil, fmt.Errorf("index: an index named %q already exists", def.View.Name)
	}
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	v, err := BuildVertexPartitioned(s.primary, def)
	if err != nil {
		return nil, err
	}
	s.vps = append(s.vps, v)
	return v, nil
}

// CreateEdgePartitioned builds and registers a secondary edge-partitioned
// index (the paper's CREATE 2-HOP VIEW command).
func (s *Store) CreateEdgePartitioned(def EPDef) (*EdgePartitioned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lookupName(def.View.Name) {
		return nil, fmt.Errorf("index: an index named %q already exists", def.View.Name)
	}
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	e, err := BuildEdgePartitioned(s.primary, def)
	if err != nil {
		return nil, err
	}
	s.eps = append(s.eps, e)
	return e, nil
}

// DropIndex removes a secondary index by name.
func (s *Store) DropIndex(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range s.vps {
		if v.Name() == name {
			s.vps = append(s.vps[:i], s.vps[i+1:]...)
			return true
		}
	}
	for i, e := range s.eps {
		if e.Name() == name {
			s.eps = append(s.eps[:i], s.eps[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Store) lookupName(name string) bool {
	for _, v := range s.vps {
		if v.Name() == name {
			return true
		}
	}
	for _, e := range s.eps {
		if e.Name() == name {
			return true
		}
	}
	return false
}

// InsertEdge adds an edge with properties to the graph and maintains every
// index: the edge lands in update buffers first and is merged into data
// pages when the merge threshold is reached (Section IV-C).
func (s *Store) InsertEdge(src, dst storage.VertexID, label string, props map[string]storage.Value) (storage.EdgeID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graphStats.Store(nil)
	e, err := s.g.AddEdge(src, dst, label)
	if err != nil {
		return 0, err
	}
	for k, v := range props {
		if err := s.g.SetEdgeProp(e, k, v); err != nil {
			return 0, err
		}
	}
	ok := s.primary.applyInsert(e)
	for _, v := range s.vps {
		ok = ok && v.applyInsert(e)
	}
	for _, ep := range s.eps {
		ok = ok && ep.applyInsert(e)
	}
	if !ok {
		// The edge carries a categorical value unknown to some partition
		// level; buffering is impossible, rebuild unconditionally.
		if err := s.rebuildAll(); err != nil {
			return 0, err
		}
		return e, nil
	}
	if s.primary.pendingWork() >= s.MergeThreshold {
		if err := s.flushLocked(); err != nil {
			return 0, err
		}
	}
	return e, nil
}

// DeleteEdge tombstones an edge in the graph and the indexes; the tombstone
// is physically removed at the next merge.
func (s *Store) DeleteEdge(e storage.EdgeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graphStats.Store(nil)
	if err := s.g.DeleteEdge(e); err != nil {
		return err
	}
	s.primary.applyDelete()
	if s.primary.pendingWork() >= s.MergeThreshold {
		return s.flushLocked()
	}
	return nil
}

// Flush merges all pending update buffers and tombstones by rebuilding the
// primary CSRs and every secondary offset list.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.primary.pendingWork() == 0 {
		return nil
	}
	return s.rebuildAll()
}

func (s *Store) rebuildAll() error {
	if err := s.primary.rebuild(); err != nil {
		return err
	}
	for _, v := range s.vps {
		if err := v.rebuild(); err != nil {
			return err
		}
	}
	for _, e := range s.eps {
		if err := e.rebuild(); err != nil {
			return err
		}
	}
	return nil
}

// CloneRebuilt builds a brand-new store over g with the primary
// configuration cfg and this store's secondary index definitions, leaving
// the receiver untouched. It is the snapshot merger's fold step: g is a
// private graph clone with pending tombstones already applied, and the
// result becomes the frozen base of the next epoch.
func (s *Store) CloneRebuilt(g *storage.Graph, cfg Config) (*Store, error) {
	ns, err := NewStore(g, cfg)
	if err != nil {
		return nil, err
	}
	ns.MergeThreshold = s.MergeThreshold
	for _, v := range s.vps {
		nv, err := BuildVertexPartitioned(ns.primary, v.Def())
		if err != nil {
			return nil, err
		}
		ns.vps = append(ns.vps, nv)
	}
	for _, e := range s.eps {
		ne, err := BuildEdgePartitioned(ns.primary, e.Def())
		if err != nil {
			return nil, err
		}
		ns.eps = append(ns.eps, ne)
	}
	return ns, nil
}

// WithVertexPartitioned returns a copy of the store (sharing the graph,
// primary, and existing secondaries) with v registered. Frozen stores
// published in snapshots are never mutated; DDL derives a successor store
// instead.
func (s *Store) WithVertexPartitioned(v *VertexPartitioned) *Store {
	ns := s.shallowCopy()
	ns.vps = append(ns.vps, v)
	return ns
}

// WithEdgePartitioned is WithVertexPartitioned for 2-hop views.
func (s *Store) WithEdgePartitioned(e *EdgePartitioned) *Store {
	ns := s.shallowCopy()
	ns.eps = append(ns.eps, e)
	return ns
}

// WithoutIndex returns a copy of the store lacking the named secondary
// index; ok is false (and the receiver is returned) when no index matches.
func (s *Store) WithoutIndex(name string) (*Store, bool) {
	for i, v := range s.vps {
		if v.Name() == name {
			ns := s.shallowCopy()
			ns.vps = append(ns.vps[:i:i], ns.vps[i+1:]...)
			return ns, true
		}
	}
	for i, e := range s.eps {
		if e.Name() == name {
			ns := s.shallowCopy()
			ns.eps = append(ns.eps[:i:i], ns.eps[i+1:]...)
			return ns, true
		}
	}
	return s, false
}

// HasIndex reports whether a secondary index with the given name exists.
func (s *Store) HasIndex(name string) bool { return s.lookupName(name) }

// shallowCopy shares the graph, so it carries the GraphStats memo over.
func (s *Store) shallowCopy() *Store {
	ns := &Store{
		g:              s.g,
		primary:        s.primary,
		vps:            append([]*VertexPartitioned(nil), s.vps...),
		eps:            append([]*EdgePartitioned(nil), s.eps...),
		MergeThreshold: s.MergeThreshold,
	}
	ns.graphStats.Store(s.graphStats.Load())
	return ns
}

// Stats summarizes the store's footprint.
type Stats struct {
	// PrimaryLevels and PrimaryIDLists split the primary index footprint
	// into partitioning levels and ID lists.
	PrimaryLevels, PrimaryIDLists int64
	// SecondaryBytes is the total footprint of all secondary indexes.
	SecondaryBytes int64
	// IndexedEdges is the total number of edge entries across all indexes
	// (the |E_indexed| column of Table IV); the primary counts each edge
	// twice (forward + backward is reported as one).
	IndexedEdges int64
}

// TotalBytes returns the whole indexing subsystem's footprint.
func (st Stats) TotalBytes() int64 {
	return st.PrimaryLevels + st.PrimaryIDLists + st.SecondaryBytes
}

// Stats reports the current footprint of all indexes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.StatsLocked()
}

// StatsLocked is Stats for callers already holding the store's read lock
// (a second RLock would deadlock against a waiting writer).
func (s *Store) StatsLocked() Stats {
	var st Stats
	st.PrimaryLevels, st.PrimaryIDLists = s.primary.MemoryBytes()
	st.IndexedEdges = int64(s.g.NumLiveEdges())
	for _, v := range s.vps {
		st.SecondaryBytes += v.MemoryBytes()
		st.IndexedEdges += v.NumIndexedEdges()
	}
	for _, e := range s.eps {
		st.SecondaryBytes += e.MemoryBytes()
		st.IndexedEdges += e.NumIndexedEdges()
	}
	return st
}
