package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/server"
	"github.com/bounded-eval/beas/internal/tlc"
)

// serve-http drives internal/server the way beasd serves it: over a
// loopback listener, in an open loop at a fixed offered rate.
const (
	serveScale = 1
	serveRate  = 1500 // requests per second offered, about a quarter of capacity
	serveConns = 2    // client connections, one per core
	// serveBudget sits between the deduced bound of Q1 and that of Q1
	// over two regions, so the latter are rejected with 422.
	serveBudget = 1_500_000
	serveSample = 199 // one request in serveSample has its rows checked
)

// serveHot is the dashboard's statement set: shapes and how many
// parameterizations of each repeat.
var serveHot = []struct {
	shape string
	n     int
}{{"Q2", 12}, {"Q4", 8}, {"Q6", 8}, {"Q3", 4}, {"Q7", 4}, {"Q10", 4}, {"Q1", 4}, {"Q1wide", 4}}

func genServe(r *rand.Rand, ds *dataset, n int) []op {
	p := newParams(r, ds)
	var hot []op
	for _, h := range serveHot {
		for i := 0; i < h.n; i++ {
			p.rank = i
			kind := opRead
			if h.shape == "Q1wide" {
				kind = opReject
			}
			hot = append(hot, op{kind: kind, shape: h.shape, sql: p.shapeSQL(h.shape)})
		}
	}
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	ops := make([]op, n)
	for i := range ops {
		ops[i] = hot[i%len(hot)]
		ops[i].sample = ops[i].kind == opRead && i%serveSample == serveSample/2
	}
	return ops
}

// served is a server over an in-memory TLC database on a loopback port.
type served struct {
	e      *embedded
	hs     *http.Server
	url    string
	done   chan error
	client *http.Client
}

func openServed(ds *dataset) (*served, setupTimes, error) {
	t := time.Now()
	db := beas.NewTLCSchemaDB()
	db.SetParallelism(1)
	st, err := setupDB(db, ds)
	if err != nil {
		return nil, st, err
	}
	db.SetDigests(beas.NewDigestSet(128))
	srv := server.New(db, server.Config{BoundBudget: serveBudget, QueryTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, err
	}
	s := &served{
		e:    &embedded{db: db, schema: tlc.Database()},
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/query",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	st.total = time.Since(t)
	return s, st, nil
}

// close stops the server and waits for its Serve loop to return.
func (s *served) close() error {
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// wireReply is one parsed /query response.
type wireReply struct {
	status int
	rec    record
	rows   bag
}

// wireLine is any line of the NDJSON body.
type wireLine struct {
	Covered *bool             `json:"covered"`
	Rows    []json.RawMessage `json:"rows"`
	Stats   *struct {
		Rows          int64  `json:"rows"`
		Bound         uint64 `json:"bound"`
		TuplesFetched int64  `json:"tuplesFetched"`
		TuplesScanned int64  `json:"tuplesScanned"`
	} `json:"stats"`
	Error string `json:"error"`
}

// post sends one statement and reads the reply to its last byte into
// buf; latency ends there.
func (s *served) post(body []byte, buf *bytes.Buffer) (int, time.Time, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Time{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	end := time.Now()
	resp.Body.Close()
	return resp.StatusCode, end, err
}

// parseReply reads the header and the trailer of an NDJSON body and,
// when rows is set, hashes every row in between.
func parseReply(p []byte, rows bool) (wireReply, error) {
	var w wireReply
	lines := bytes.Split(bytes.TrimRight(p, "\n"), []byte{'\n'})
	for i, line := range lines {
		if !rows && i != 0 && i != len(lines)-1 {
			continue
		}
		var l wireLine
		if err := json.Unmarshal(line, &l); err != nil {
			return w, fmt.Errorf("decoding reply line: %w", err)
		}
		switch {
		case l.Error != "":
			return w, fmt.Errorf("server: %s", l.Error)
		case l.Covered != nil:
			w.rec.covered = *l.Covered
		case l.Stats != nil:
			w.rec.rows, w.rec.bound = l.Stats.Rows, l.Stats.Bound
			w.rec.fetched, w.rec.scanned = l.Stats.TuplesFetched, l.Stats.TuplesScanned
		}
		for _, r := range l.Rows {
			w.rows.addJSON(r)
		}
	}
	return w, nil
}

type reqBody struct {
	SQL string `json:"sql"`
}

// play offers ops at serveRate from serveConns workers. Each request is
// due at a fixed time; its latency runs from then to its last byte, so
// a stall also delays the requests queued behind it.
func (s *served) play(ops []op, traced bool) *phase {
	ph := &phase{recs: make([]record, len(ops)), late: make([]time.Duration, len(ops))}
	bodies := make([][]byte, len(ops))
	for i := range ops {
		b, err := json.Marshal(reqBody{SQL: ops[i].sql})
		if err != nil {
			panic(err) // a struct of one string always encodes
		}
		bodies[i] = b
	}
	var buf bytes.Buffer
	seen := map[string]bool{}
	for i := range ops {
		if seen[ops[i].sql] {
			continue
		}
		seen[ops[i].sql] = true
		for k := 0; k < 2; k++ {
			if _, _, err := s.post(bodies[i], &buf); err != nil {
				ph.fails.add(-1, fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	sampled := make([][]byte, len(ops))
	var mu sync.Mutex // guards ph.fails, ph.lay and the overhead sums
	var next atomic.Int64
	var wg sync.WaitGroup
	tracers := make([]*tracer, serveConns)
	var mm memMeter
	mm.begin()
	c0 := s.e.db.ResultCacheStats()
	interval := time.Second / serveRate
	start := time.Now().Add(time.Millisecond)
	ends := make([]time.Time, serveConns)
	for w := 0; w < serveConns; w++ {
		if traced {
			tracers[w] = newTracer(start)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := tracers[w]
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				ph.late[i] = sent.Sub(due)
				id := int32(i)
				root := tr.open("op", id, -1)
				var embeddedDur time.Duration
				if tr != nil {
					var lay layers
					check, err := s.e.prelude(context.Background(), o.sql, id, root, tr)
					if err == nil && o.kind == opRead {
						sp := tr.open("db.query.embedded", id, root)
						var out outcome
						out, err = s.e.query(context.Background(), o.sql, false)
						tr.close(sp)
						embeddedDur = tr.durOf(sp)
						lay.observe(&out.st, check)
						tr.stats(sp, &out.st)
					}
					mu.Lock()
					ph.lay.add(&lay)
					if err != nil {
						ph.fails.add(i, err)
					}
					mu.Unlock()
				}
				sp := tr.open("server.http", id, root)
				status, end, err := s.post(bodies[i], &buf)
				tr.close(sp)
				tr.close(root)
				rec := record{kind: o.kind, shape: o.shape, lat: end.Sub(due)}
				if err == nil {
					err = checkStatus(o, status)
				}
				if err == nil && status == http.StatusOK {
					var w wireReply
					w, err = parseReply(buf.Bytes(), false)
					w.rec.kind, w.rec.shape, w.rec.lat = rec.kind, rec.shape, rec.lat
					rec = w.rec
					if err == nil {
						err = checkBound(&rec, o.sql)
					}
					if o.sample {
						sampled[i] = append([]byte(nil), buf.Bytes()...)
					}
				}
				if err != nil {
					rec.failed = true
				}
				ph.recs[i] = rec
				ends[w] = end
				mu.Lock()
				if err != nil {
					ph.fails.add(i, err)
				}
				if tr != nil && o.kind == opRead {
					ph.overhead += tr.durOf(sp) - embeddedDur
					ph.overheadN++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	ph.wall = last.Sub(start)
	ph.mem = mm.end()
	c1 := s.e.db.ResultCacheStats()
	ph.cache = beas.ResultCacheStats{TemplateHits: c1.TemplateHits - c0.TemplateHits, TemplateMisses: c1.TemplateMisses - c0.TemplateMisses}
	for i, rec := range ph.recs {
		if rec.kind == opReject {
			ph.rejected++
		}
		if sampled[i] != nil {
			if err := s.verify(&ops[i], sampled[i]); err != nil {
				ph.fails.add(i, err)
				ph.recs[i].failed = true
			}
		}
	}
	for _, tr := range tracers {
		if tr == nil {
			continue
		}
		base := int32(len(ph.spans)) // parents index into their own tracer
		for _, sp := range tr.spans {
			if sp.parent >= 0 {
				sp.parent += base
			}
			ph.spans = append(ph.spans, sp)
		}
	}
	return ph
}

// sleepUntil returns at t. The runtime's timers wake up to a millisecond
// late on some hosts, so it sleeps in a nanosleep call to just short of
// t and spins the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep just spins longer
	}
	for time.Now().Before(t) {
	}
}

const spinSlack = 150 * time.Microsecond

func checkStatus(o *op, status int) error {
	want := http.StatusOK
	if o.kind == opReject {
		want = http.StatusUnprocessableEntity
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %s", status, want, o.sql)
	}
	return nil
}

// verify compares a sampled reply's rows with the embedded answer, and
// that with the conventional engine's.
func (s *served) verify(o *op, body []byte) error {
	w, err := parseReply(body, true)
	if err != nil {
		return err
	}
	out, err := s.e.query(context.Background(), o.sql, true)
	if err != nil {
		return err
	}
	emb := bagOf(out.rows)
	if emb != w.rows {
		return fmt.Errorf("reply rows differ from the embedded answer (%d vs %d rows): %s", w.rows.n, emb.n, o.sql)
	}
	return checkBaseline(s.e.db, o.sql, emb)
}

func (l *layers) add(o *layers) {
	l.covered += o.covered
	l.queries += o.queries
	l.uncovered += o.uncovered
	l.boundSum += o.boundSum
	l.fetchedSum += o.fetchedSum
	l.steps += o.steps
	l.keys += o.keys
	l.scanned += o.scanned
	l.fetch += o.fetch
	l.tail += o.tail
	l.engineOps += o.engineOps
}

// runServe sets the server up several times (set-up time is the median),
// plays the stream and, traced, plays it again against a fresh server.
func runServe(cfg config, rep *report) error {
	ds, err := writeTLC(filepath.Join(cfg.work, "data"), serveScale, cfg.seed)
	if err != nil {
		return err
	}
	ops := genServe(rand.New(rand.NewSource(cfg.seed)), ds, serveRate*cfg.seconds)
	rep.inputs(ds, ops)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var s *served
	var st setupTimes
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
			s = nil
		}
		runtime.GC()
		if s, st, err = openServed(ds); err != nil {
			return err
		}
		setups = append(setups, st.total.Seconds())
	}
	base := s.play(ops, false)
	base.setup = st
	if err := s.close(); err != nil {
		return err
	}
	rep.closed(base, len(ops))
	fmt.Fprintf(rep.w, "offered %d/s; generator late p99 %.4f ms\n", serveRate, pct(sortedDur(base.late), 0.99))
	if !cfg.trace {
		rep.endToEnd(base, median(setups), len(ops))
		return nil
	}
	s = nil
	runtime.GC()
	s2, st2, err := openServed(ds)
	if err != nil {
		return err
	}
	traced := s2.play(ops, true)
	traced.setup = st2
	if err := s2.close(); err != nil {
		return err
	}
	rep.perLayer(cfg, base, traced, len(ops))
	return nil
}
