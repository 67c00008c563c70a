package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// record is what the benchmark keeps of one timed operation.
type record struct {
	kind    opKind
	shape   string
	lat     time.Duration
	rows    int64
	fetched int64
	scanned int64
	bound   uint64
	covered bool
	failed  bool
}

// layers accumulates the per-layer counters and times of a traced run.
type layers struct {
	covered, queries, uncovered, snapshots int
	boundSum, fetchedSum                   float64
	steps, keys, scanned                   int64
	fetch, tail, engineOps, snapshotDur    time.Duration
	walBytes                               int64
	walBytesN                              int
}

// outcome is one operation's result as the benchmark observed it.
type outcome struct {
	rec  record
	rows []beas.Row // kept only when asked for
	st   beas.Stats
}

// setupTimes splits one set-up into the calls it made.
type setupTimes struct {
	total, load, build time.Duration
	footprint          int64
}

// embedded runs operations against a *beas.DB in the benchmark's
// process, one client at a time.
type embedded struct {
	db     *beas.DB
	schema *schema.Database
}

// setupDB loads the CSVs of ds into db and registers the TLC access
// schema, timing each call.
func setupDB(db *beas.DB, ds *dataset) (setupTimes, error) {
	var st setupTimes
	for _, td := range ds.tables {
		t := time.Now()
		if err := db.LoadCSV(td.name, ds.csv(td.name)); err != nil {
			return st, fmt.Errorf("loading %s: %w", td.name, err)
		}
		st.load += time.Since(t)
	}
	for _, spec := range beas.TLCAccessSchema() {
		t := time.Now()
		if err := db.RegisterConstraint(spec); err != nil {
			return st, fmt.Errorf("registering %s: %w", spec, err)
		}
		st.build += time.Since(t)
	}
	st.footprint = db.AccessSchemaFootprint()
	return st, nil
}

// prelude makes, in a traced run, the parse, analysis and check calls
// the program makes inside a query, each under its own span. It returns
// the check's duration.
func (e *embedded) prelude(ctx context.Context, sql string, id, root int32, tr *tracer) (time.Duration, error) {
	s := tr.open("sqlparser.parse", id, root)
	stmt, err := sqlparser.Parse(sql)
	tr.close(s)
	if err != nil {
		return 0, err
	}
	s = tr.open("analyze.analyze", id, root)
	for b := stmt; b != nil && err == nil; b = b.Union {
		var q *analyze.Query
		if q, err = analyze.Analyze(b.Select, e.schema); err == nil {
			analyze.Canonical(q)
		}
	}
	tr.close(s)
	if err != nil {
		return 0, err
	}
	s = tr.open("core.check", id, root)
	_, err = e.db.CheckContext(ctx, sql)
	tr.close(s)
	return tr.durOf(s), err
}

// query drains sql through a cursor. keep retains copies of the rows.
func (e *embedded) query(ctx context.Context, sql string, keep bool) (outcome, error) {
	var out outcome
	ri, err := e.db.QueryIterContext(ctx, sql)
	if err != nil {
		return out, err
	}
	for {
		batch, err := ri.NextBatch()
		if err != nil {
			ri.Close()
			return out, err
		}
		if batch == nil {
			break
		}
		out.rec.rows += int64(len(batch))
		if keep {
			for _, r := range batch {
				out.rows = append(out.rows, append(beas.Row(nil), r...))
			}
		}
	}
	if err := ri.Close(); err != nil {
		return out, err
	}
	out.st = *ri.Stats()
	out.rec.fetched, out.rec.scanned = out.st.TuplesFetched, out.st.TuplesScanned
	out.rec.bound, out.rec.covered = out.st.Bound, out.st.Covered
	return out, nil
}

// do runs one operation and times it. With a tracer it also makes the
// prelude calls and records spans, and folds the program's reported
// step and operator durations into lay.
func (e *embedded) do(ctx context.Context, o *op, id int32, tr *tracer, lay *layers, keep bool) (outcome, error) {
	root := tr.open("op", id, -1)
	defer tr.close(root)
	var check time.Duration
	if tr != nil && o.kind != opWrite {
		var err error
		if check, err = e.prelude(ctx, o.sql, id, root, tr); err != nil {
			return outcome{}, err
		}
	}
	if o.kind == opWrite {
		var before beas.DurabilityStats
		if tr != nil {
			before = e.db.Durability()
		}
		s := tr.open("db.insert", id, root)
		t := time.Now()
		err := e.db.Insert("call", o.row...)
		lat := time.Since(t)
		tr.close(s)
		if tr != nil && err == nil {
			after := e.db.Durability()
			if after.Snapshots != before.Snapshots {
				lay.snapshots++
				lay.snapshotDur += lat
				tr.children(s, []string{"wal.snapshot"}, []time.Duration{lat})
			} else if d := after.WALBytes - before.WALBytes; d > 0 {
				lay.walBytes += d
				lay.walBytesN++
			}
		}
		return outcome{rec: record{kind: opWrite, lat: lat}}, err
	}
	s := tr.open("db.query", id, root)
	t := time.Now()
	out, err := e.query(ctx, o.sql, keep)
	out.rec.lat = time.Since(t)
	out.rec.kind = o.kind
	tr.close(s)
	if tr != nil && err == nil {
		lay.observe(&out.st, check)
		tr.stats(s, &out.st)
	}
	return out, err
}

// stats adds, under parent, a span per fetch step and conventional
// operator the query reported.
func (t *tracer) stats(parent int32, st *beas.Stats) {
	if t == nil {
		return
	}
	var names []string
	var durs []time.Duration
	for _, fs := range st.FetchSteps {
		names = append(names, "core.fetch:"+fs.Atom)
		durs = append(durs, fs.Duration)
	}
	for _, o := range st.Ops {
		kind, _, _ := strings.Cut(o.Op, " ")
		names = append(names, "engine.op:"+kind)
		durs = append(durs, o.Duration)
	}
	t.children(parent, names, durs)
}

func (l *layers) observe(st *beas.Stats, check time.Duration) {
	l.queries++
	l.scanned += st.TuplesScanned
	for _, o := range st.Ops {
		l.engineOps += o.Duration
	}
	if !st.Covered {
		l.uncovered++
		return
	}
	l.covered++
	l.boundSum += float64(st.Bound)
	l.fetchedSum += float64(st.TuplesFetched)
	var fetch time.Duration
	for _, fs := range st.FetchSteps {
		l.steps++
		l.keys += fs.DistinctKey
		fetch += fs.Duration
	}
	l.fetch += fetch
	if tail := st.Duration - check - fetch; tail > 0 {
		l.tail += tail
	}
}

// bag is an order-insensitive hash of a row multiset.
type bag struct {
	n   int64
	sum uint64
}

func (b *bag) addJSON(p []byte) {
	h := fnv.New64a()
	h.Write(p)
	b.sum += h.Sum64()
	b.n++
}

// rowJSON encodes a row the way the server's NDJSON rows encode it.
func rowJSON(r beas.Row) []byte {
	vals := make([]any, len(r))
	for i, v := range r {
		switch v.K {
		case value.Int:
			vals[i] = v.I
		case value.Float:
			vals[i] = v.F
		case value.String:
			vals[i] = v.S
		case value.Bool:
			vals[i] = v.I != 0
		}
	}
	p, err := json.Marshal(vals)
	if err != nil {
		panic(err) // every value above has a JSON encoding
	}
	return p
}

func bagOf(rows []beas.Row) bag {
	var b bag
	for _, r := range rows {
		b.addJSON(rowJSON(r))
	}
	return b
}

// checkBaseline re-answers sql on the conventional engine and compares
// the bags.
func checkBaseline(db *beas.DB, sql string, got bag) error {
	res, err := db.QueryBaseline(sql, beas.BaselinePostgres)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if want := bagOf(res.Rows); want != got {
		return fmt.Errorf("answer differs from the baseline: %d rows vs %d: %s", got.n, want.n, sql)
	}
	return nil
}

// checkBound enforces the paper's contract on a covered answer.
func checkBound(r *record, sql string) error {
	if r.covered && uint64(r.fetched) > r.bound {
		return fmt.Errorf("fetched %d tuples over bound %d: %s", r.fetched, r.bound, sql)
	}
	return nil
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	n       int
	reasons []string
}

func (f *failures) add(id int, err error) {
	f.n++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, fmt.Sprintf("op %d: %v", id, err))
	}
}

// memDelta is the change in runtime.MemStats over a timed phase, less
// the allocations of untimed checks made inside it.
type memDelta struct {
	mallocs, bytes, numGC uint64
	pause                 time.Duration
	heapMB                float64
}

type memMeter struct {
	start, mark       runtime.MemStats
	exMallocs, exByte uint64
}

func (m *memMeter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.start)
}

// pause and resume bracket work that is not part of the timed phase.
func (m *memMeter) pause() { runtime.ReadMemStats(&m.mark) }

func (m *memMeter) resume() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.exMallocs += now.Mallocs - m.mark.Mallocs
	m.exByte += now.TotalAlloc - m.mark.TotalAlloc
}

// end reads the deltas, then forces a collection and reads the live
// heap.
func (m *memMeter) end() memDelta {
	var e runtime.MemStats
	runtime.ReadMemStats(&e)
	d := memDelta{
		mallocs: e.Mallocs - m.start.Mallocs - m.exMallocs,
		bytes:   e.TotalAlloc - m.start.TotalAlloc - m.exByte,
		numGC:   uint64(e.NumGC - m.start.NumGC),
		pause:   time.Duration(e.PauseTotalNs - m.start.PauseTotalNs),
	}
	runtime.GC()
	runtime.ReadMemStats(&e)
	d.heapMB = float64(e.HeapAlloc) / (1 << 20)
	return d
}

// pct is the nearest-rank percentile of sorted latencies, in ms.
func pct(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6
}

func latencies(recs []record, kind opKind) []time.Duration {
	var out []time.Duration
	for i := range recs {
		if recs[i].kind == kind && !recs[i].failed {
			out = append(out, recs[i].lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
