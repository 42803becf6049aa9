package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/storage"
	"github.com/aplusdb/aplus/internal/workload"
)

// datasetSeed fixes the generated graphs, so every run of a workload
// measures the same data; --seed drives only the request stream.
const datasetSeed = 1

// analyticGraph is the Table II/IV dataset: orkut preset, G_{8,2} labels,
// financial properties.
func analyticGraph() gen.Config {
	c := gen.Orkut.WithLabels(8, 2)
	c.Financial = true
	c.Seed = datasetSeed
	return c
}

// followGraph is the MagicRecs dataset: livejournal preset with a time
// property on every follow edge.
func followGraph() gen.Config {
	c := gen.LiveJournal
	c.Time = true
	c.Seed = datasetSeed
	return c
}

// The paper's secondary indexes as DDL (see examples/fraud, examples/magicrecs).
const (
	ddlVPc = `CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.city`
	ddlEPc = `CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr
		WHERE eb.date < eadj.date, eadj.amt < eb.amt, eb.amt < eadj.amt + 100
		INDEX AS PARTITION BY vnbr.acc SORT BY vnbr.city`
	ddlVPt = `CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time`
)

// mfAlpha is the money-flow band of EPc and MF3–MF5 (Table IV's value).
const mfAlpha = 100

// analyticQueries is SQ1–SQ12 plus MF1–MF5 over the analytic graph.
func analyticQueries(nv int) []workload.Query {
	qs := workload.SQ(8, 2)[:12]
	return append(qs, workload.MF(workload.MFParams{
		Alpha: mfAlpha, City: "C7", A3MaxID: int64(nv / 20), A1MaxID: int64(nv / 20),
	})...)
}

// timeAlpha is MagicRecs' α: the 5th percentile of follow times.
func timeAlpha(g *storage.Graph) (int64, error) {
	a, ok := gen.PercentileInt(g, "time", 5)
	if !ok {
		return 0, errors.New("follow graph has no time property")
	}
	return a, nil
}

// mrAnchored is MR1 or MR2 for one user: a1.ID = k.
func mrAnchored(alpha int64, which int, k int) string {
	return workload.MR(alpha, 0)[which].Cypher + fmt.Sprintf(", a1.ID = %d", k)
}

// writer is the load surface shared by aplus.Batch, shard.Batch and the
// wire client.
type writer interface {
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
}

var (
	vertexKeys = []string{storage.PropAcc, storage.PropCity}
	edgeKeys   = []string{storage.PropAmount, storage.PropDate, storage.PropCurrency, "time"}
)

func propsOf(get func(string) storage.Value, keys []string) aplus.Props {
	var p aplus.Props
	for _, k := range keys {
		v := get(k)
		var x any
		switch v.Kind {
		case storage.KindInt:
			x = v.I
		case storage.KindString:
			x = v.S
		default:
			continue
		}
		if p == nil {
			p = aplus.Props{}
		}
		p[k] = x
	}
	return p
}

// load writes every vertex and edge of g, in ID order, so the loaded IDs
// equal the generated ones.
func load(w writer, g *storage.Graph) error {
	cat := g.Catalog()
	for i := 0; i < g.NumVertices(); i++ {
		v := storage.VertexID(i)
		props := propsOf(func(k string) storage.Value { return g.VertexProp(v, k) }, vertexKeys)
		id, err := w.AddVertex(cat.VertexLabelName(g.VertexLabel(v)), props)
		if err != nil {
			return fmt.Errorf("load vertex %d: %w", i, err)
		}
		if id != v {
			return fmt.Errorf("load vertex %d got id %d", i, id)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := storage.EdgeID(i)
		props := propsOf(func(k string) storage.Value { return g.EdgeProp(e, k) }, edgeKeys)
		if _, err := w.AddEdge(g.Src(e), g.Dst(e), cat.EdgeLabelName(g.EdgeLabel(e)), props); err != nil {
			return fmt.Errorf("load edge %d: %w", i, err)
		}
	}
	return nil
}

// memDB loads g into a fresh in-memory database and runs ddl on it.
func memDB(g *storage.Graph, ddl ...string) (*aplus.DB, error) {
	db := aplus.New()
	if err := db.Batch(func(b *aplus.Batch) error { return load(b, g) }); err != nil {
		db.Close()
		return nil, err
	}
	for _, d := range ddl {
		if err := db.Exec(d); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// server is a running aplusd child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startServer runs aplusd with its default flags, except that it listens
// on a free loopback port, and waits for its listening line.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aplusd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("aplusd did not report its address: %w", err)
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[1] != "listening" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("aplusd: unexpected first line %q", line)
	}
	s.addr = f[3]
	go func() {
		io.Copy(io.Discard, br)
		s.done <- cmd.Wait()
	}()
	return s, nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// stop shuts aplusd down gracefully and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		return fmt.Errorf("aplusd did not stop: %v", <-s.done)
	}
}

// dial opens n client connections to s.
func dial(s *server, n int) ([]*client.Client, error) {
	var cls []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.Dial(s.addr)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, c)
	}
	return cls, nil
}

func closeAll(cls []*client.Client) {
	for _, c := range cls {
		c.Close()
	}
}
