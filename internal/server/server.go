// Package server implements the aplusd TCP serving layer over a
// shard.Cluster: it speaks the line-oriented proto protocol, streams query
// rows, propagates per-request limits into the engine's governance gates,
// applies write backpressure from the shards' pending-write backlog, and
// lets a client cancel an in-flight query mid-stream without tearing the
// connection down.
//
// Connection model: each connection is served by one goroutine that owns
// all response writes, plus a reader goroutine that turns the socket into
// a channel of request lines. While a query streams, the serving goroutine
// selects between query completion and incoming lines, so a `cancel` (or a
// disconnect) aborts the query promptly via context cancellation; any
// other line that arrives early is stashed and served after the query's
// final response, preserving request/response order.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/proto"
	"github.com/aplusdb/aplus/internal/shard"
)

// Options configures a Server.
type Options struct {
	// Addr is the TCP listen address for Start (e.g. "127.0.0.1:7687";
	// ":0" picks a free port, reported by Addr).
	Addr string
	// DefaultLimits applies to count/profile/query requests that carry no
	// limits of their own. Zero means only the cluster's own configured
	// governance applies.
	DefaultLimits aplus.QueryLimits
	// DefaultMaxRows caps a query's row stream when the request doesn't
	// set its own cap (0 = unlimited). Hitting the cap stops the query
	// cleanly and marks the response truncated; it is not an error.
	DefaultMaxRows int64
	// MaxPendingWrites rejects write verbs with a backpressure error while
	// the cluster's aggregate pending-write backlog exceeds this threshold
	// (0 = no backpressure).
	MaxPendingWrites int
	// IdleTimeout disconnects a connection that sends no request for this
	// long (0 = never). The clock only runs between requests: a streaming
	// or long-running query keeps the connection alive.
	IdleTimeout time.Duration
}

// Server serves a shard.Cluster over TCP.
type Server struct {
	c  *shard.Cluster
	o  Options
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps a cluster. The server does not own the cluster: Close stops
// serving but leaves the cluster open for the caller to close.
func New(c *shard.Cluster, o Options) *Server {
	return &Server{c: c, o: o, conns: make(map[net.Conn]struct{})}
}

// Start listens on Options.Addr and serves in the background until Close.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.o.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return aplus.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener, closes every live connection, and waits for
// their handlers to drain (canceling any in-flight queries).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// maxLine bounds a single request line (a query text plus JSON framing).
const maxLine = 1 << 20

// maxPending bounds the request lines a client may pipeline while a query
// streams to it; they wait, up to maxLine bytes each, until the stream ends.
// A client that sends more without reading its rows is dropped.
const maxPending = 64

func (s *Server) handle(conn net.Conn) {
	bw := bufio.NewWriter(conn)
	lines := make(chan string, 8)
	// Drain after conn.Close (defers run LIFO) so a reader goroutine
	// blocked on a full channel can always finish and close it.
	defer func() {
		for range lines {
		}
	}()
	defer conn.Close()
	go func() {
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 4096), maxLine)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()

	var pending []string
	for {
		var line string
		if len(pending) > 0 {
			line, pending = pending[0], pending[1:]
		} else {
			if s.o.IdleTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.o.IdleTimeout))
			}
			l, ok := <-lines
			if !ok {
				return
			}
			if s.o.IdleTimeout > 0 {
				conn.SetReadDeadline(time.Time{})
			}
			line = l
		}
		verb, payload := splitLine(line)
		switch verb {
		case "":
			continue
		case "quit":
			writeOK(bw, struct{}{})
			bw.Flush()
			return
		case "cancel":
			// No query in flight: a stray cancel is a no-op and, by
			// protocol, never gets a response line.
			continue
		case "query":
			if !s.serveQuery(connCtx, conn, bw, lines, &pending, payload) {
				return
			}
		default:
			s.serveSimple(connCtx, bw, verb, payload)
		}
		if bw.Flush() != nil {
			return
		}
	}
}

func splitLine(line string) (verb, payload string) {
	line = strings.TrimSpace(line)
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

func writeOK(bw *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return writeErr(bw, fmt.Errorf("encoding response: %w", err))
	}
	bw.WriteString("ok ")
	bw.Write(b)
	return bw.WriteByte('\n')
}

func writeErr(bw *bufio.Writer, err error) error {
	b, _ := json.Marshal(proto.ErrMsg{Code: proto.ErrorCode(err), Msg: err.Error()})
	bw.WriteString("err ")
	bw.Write(b)
	return bw.WriteByte('\n')
}

func writeBadRequest(bw *bufio.Writer, msg string) error {
	b, _ := json.Marshal(proto.ErrMsg{Code: proto.CodeBadRequest, Msg: msg})
	bw.WriteString("err ")
	bw.Write(b)
	return bw.WriteByte('\n')
}

func decode[T any](payload string) (T, error) {
	var v T
	if payload == "" {
		return v, nil
	}
	err := json.Unmarshal([]byte(payload), &v)
	return v, err
}

// limitsFor resolves request limits against the server defaults:
// any field the request leaves zero inherits the default.
func (s *Server) limitsFor(l proto.Limits) aplus.QueryLimits {
	out := l.ToQueryLimits()
	if out.MaxICost == 0 {
		out.MaxICost = s.o.DefaultLimits.MaxICost
	}
	if out.MaxRows == 0 {
		out.MaxRows = s.o.DefaultLimits.MaxRows
	}
	if out.MaxDuration == 0 {
		out.MaxDuration = s.o.DefaultLimits.MaxDuration
	}
	return out
}

func (s *Server) checkBackpressure() error {
	if s.o.MaxPendingWrites <= 0 {
		return nil
	}
	if st := s.c.Stats(); st.Aggregate.PendingWrites > s.o.MaxPendingWrites {
		return fmt.Errorf("%w: %d pending writes over threshold %d",
			proto.ErrBackpressure, st.Aggregate.PendingWrites, s.o.MaxPendingWrites)
	}
	return nil
}

func (s *Server) serveSimple(ctx context.Context, bw *bufio.Writer, verb, payload string) {
	switch verb {
	case "open":
		writeOK(bw, proto.OpenResp{Shards: s.c.NumShards()})
	case "count", "profile":
		req, err := decode[proto.CountReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		n, m, err := s.c.CountProfiledLimited(ctx, req.Q, s.limitsFor(req.Limits))
		if err != nil {
			writeErr(bw, err)
			return
		}
		resp := proto.CountResp{N: n}
		if verb == "profile" {
			resp.ICost = m.ICost
			resp.PredEvals = m.PredEvals
			resp.EstICost = m.EstimatedICost
		}
		writeOK(bw, resp)
	case "aggregate":
		req, err := decode[proto.AggregateReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		fn, err := aplus.ParseAggFunc(req.Func)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		v, m, err := s.c.Aggregate(ctx, req.Q, fn, req.Var, req.Prop, s.limitsFor(req.Limits))
		if err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, proto.AggregateResp{
			Rows:      v.Rows,
			Value:     v.Value,
			Valid:     v.Valid,
			ICost:     m.ICost,
			PredEvals: m.PredEvals,
			EstICost:  m.EstimatedICost,
		})
	case "explain":
		req, err := decode[proto.ExplainReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		plan, err := s.c.Explain(req.Q)
		if err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, proto.ExplainResp{Plan: plan})
	case "analyze":
		req, err := decode[proto.AnalyzeReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		t, err := s.c.ExplainAnalyze(ctx, req.Q, s.limitsFor(req.Limits))
		if err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, proto.AnalyzeResp{Trace: *t})
	case "exec":
		req, err := decode[proto.ExecReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		if err := s.c.Exec(req.DDL); err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, struct{}{})
	case "flush":
		if err := s.c.Flush(); err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, struct{}{})
	case "addv":
		req, err := decode[proto.AddVertexReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		if err := s.checkBackpressure(); err != nil {
			writeErr(bw, err)
			return
		}
		id, err := s.c.AddVertex(req.Label, proto.ToProps(req.Props))
		if err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, proto.AddVertexResp{ID: id})
	case "adde":
		req, err := decode[proto.AddEdgeReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		if err := s.checkBackpressure(); err != nil {
			writeErr(bw, err)
			return
		}
		id, err := s.c.AddEdge(req.Src, req.Dst, req.Label, proto.ToProps(req.Props))
		if err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, proto.AddEdgeResp{ID: id})
	case "dele":
		req, err := decode[proto.DeleteEdgeReq](payload)
		if err != nil {
			writeBadRequest(bw, err.Error())
			return
		}
		if err := s.checkBackpressure(); err != nil {
			writeErr(bw, err)
			return
		}
		if err := s.c.DeleteEdge(req.ID); err != nil {
			writeErr(bw, err)
			return
		}
		writeOK(bw, struct{}{})
	case "stats":
		st := s.c.Stats()
		writeOK(bw, proto.StatsResp{
			Shards:        s.c.NumShards(),
			Diverged:      st.Diverged,
			DivergedCause: st.DivergedCause,
			Aggregate:     st.Aggregate,
			PerShard:      st.Shards,
		})
	case "health":
		st := s.c.Stats()
		writeOK(bw, proto.HealthResp{
			OK:              !st.Aggregate.Degraded && !st.Diverged,
			Degraded:        st.Aggregate.Degraded,
			Diverged:        st.Diverged,
			QueriesInFlight: st.Aggregate.QueriesInFlight,
			PendingWrites:   st.Aggregate.PendingWrites,
		})
	default:
		writeBadRequest(bw, "unknown verb "+verb)
	}
}

// serveQuery streams rows for one query. Returns false when the connection
// is gone and the handler should exit. Rows are written by the query
// goroutine; the serving goroutine writes nothing until the query is done,
// so the two never interleave on the buffered writer.
func (s *Server) serveQuery(connCtx context.Context, conn net.Conn, bw *bufio.Writer, lines chan string, pending *[]string, payload string) bool {
	req, err := decode[proto.QueryReq](payload)
	if err != nil {
		writeBadRequest(bw, err.Error())
		return true
	}
	rowCap := req.MaxRows
	if rowCap == 0 {
		rowCap = s.o.DefaultMaxRows
	}
	qctx, qcancel := context.WithCancel(connCtx)
	defer qcancel()

	var (
		rows      int64
		truncated bool
		writeErrd bool
	)
	done := make(chan error, 1)
	go func() {
		done <- s.c.QueryLimited(qctx, req.Q, s.limitsFor(req.Limits), func(r aplus.Row) bool {
			b, err := json.Marshal(proto.Row{V: r.Vertices, E: r.Edges})
			if err != nil {
				writeErrd = true
				return false
			}
			bw.WriteString("row ")
			bw.Write(b)
			bw.WriteByte('\n')
			if bw.Flush() != nil {
				writeErrd = true
				return false
			}
			rows++
			if rowCap > 0 && rows >= rowCap {
				truncated = true
				return false
			}
			return true
		})
	}()

	for {
		select {
		case err := <-done:
			if writeErrd {
				return false
			}
			if err != nil {
				writeErr(bw, err)
			} else {
				writeOK(bw, proto.QueryDone{Rows: rows, Truncated: truncated})
			}
			return true
		case line, ok := <-lines:
			if !ok {
				// Client hung up: abort the query, wait for the engine to
				// release its snapshot, then drop the connection.
				qcancel()
				<-done
				return false
			}
			if verb, _ := splitLine(line); verb == "cancel" {
				qcancel()
				continue
			}
			if len(*pending) == maxPending {
				// A client pipelining past the bound without reading its
				// rows: hang up. Closing the connection first unblocks a
				// row write stalled on the unread socket.
				qcancel()
				conn.Close()
				<-done
				return false
			}
			// A pipelined request raced the stream: serve it afterwards.
			*pending = append(*pending, line)
		}
	}
}
