package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/tlc"
)

// closedSpec is a workload driven by one client in a closed loop: each
// operation starts when the previous one has returned.
type closedSpec struct {
	scale int
	// perSecond sizes the timed phase: a run makes perSecond × --seconds
	// operations, a count fixed before timing starts.
	perSecond int
	warm      int
	gen       func(r *rand.Rand, ds *dataset, warm, n int) (warmOps, ops []op)
	open      func(dir string, ds *dataset) (*embedded, setupTimes, error)
}

// boundedRead is the paper's claim: covered TLC shapes over an instance
// whose live heap dwarfs the CPU caches, answered boundedly.
var boundedRead = closedSpec{
	scale:     20,
	perSecond: 7000,
	warm:      2000,
	gen:       genBoundedRead,
	open: func(_ string, ds *dataset) (*embedded, setupTimes, error) {
		t := time.Now()
		db := beas.NewTLCSchemaDB()
		db.SetOptimizer(true)
		db.SetParallelism(1)
		st, err := setupDB(db, ds)
		st.total = time.Since(t)
		return &embedded{db: db, schema: tlc.Database()}, st, err
	},
}

// readCycle is bounded-read's fixed mix: every cycle runs these shapes in
// this order, with fresh parameters. The single-index lookups (Q2, Q3,
// Q6, Q9) are 16 of the 23 operations, so the median falls inside their
// narrow latency band, whose cost is per-statement work rather than data;
// the multi-step joins (Q1, Q7, Q8, Q12) are 4 of 23, so the 99th
// percentile falls inside theirs.
var readCycle = []string{
	"Q2", "Q3", "Q6", "Q9", "Q1", "Q2", "Q3", "Q6", "Q9", "Q4", "Q10", "Q7",
	"Q2", "Q3", "Q6", "Q9", "Q5", "Q8", "Q2", "Q3", "Q6", "Q9", "Q12",
}

const (
	hotPerShape = 8 // statement texts per shape that repeat
	hotEvery    = 5 // one operation in hotEvery reuses a hot text
)

func genBoundedRead(r *rand.Rand, ds *dataset, warm, n int) ([]op, []op) {
	p := newParams(r, ds)
	hot := map[string][]string{}
	for _, s := range readCycle {
		for i := 0; i < hotPerShape; i++ {
			hot[s] = append(hot[s], p.shapeSQL(s))
		}
	}
	mk := func(count int, sampleEvery int) []op {
		ops := make([]op, count)
		for i := range ops {
			s := readCycle[i%len(readCycle)]
			sql := p.shapeSQL(s)
			if r.Intn(hotEvery) == 0 {
				sql = hot[s][r.Intn(hotPerShape)]
			}
			ops[i] = op{kind: opRead, shape: s, sql: sql, sample: sampleEvery > 0 && i%sampleEvery == sampleEvery/2}
		}
		return ops
	}
	return mk(warm, 0), mk(n, 997)
}

// ingestMixed is writes beside reads on a durable store: every uncovered
// read follows a batch of inserts.
var ingestMixed = closedSpec{
	scale:     1,
	perSecond: 5,
	warm:      2,
	gen:       genIngest,
	open:      openDurable,
}

const (
	ingestBatch   = 40  // inserts per cycle
	ingestReads   = 40  // covered reads per cycle, half on just-written keys
	snapshotEvery = 500 // WAL records between automatic snapshots
)

func openDurable(dir string, ds *dataset) (*embedded, setupTimes, error) {
	t := time.Now()
	db, err := beas.Open(dir, &beas.Options{NoSync: true, SnapshotEvery: snapshotEvery, Optimizer: true, Parallelism: 1})
	if err != nil {
		return nil, setupTimes{}, err
	}
	for _, td := range ds.tables {
		if err := db.CreateTable(td.name, td.cols...); err != nil {
			db.Close()
			return nil, setupTimes{}, err
		}
	}
	st, err := setupDB(db, ds)
	st.total = time.Since(t)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	return &embedded{db: db, schema: tlc.Database()}, st, nil
}

// genIngest makes the cycles of ingest-mixed; warm and n count cycles.
func genIngest(r *rand.Rand, ds *dataset, warm, n int) ([]op, []op) {
	p := newParams(r, ds)
	written := map[[2]int64][][2]any{}
	seq := 0
	cycle := func(sample bool) []op {
		var ops []op
		var keys [][2]int64
		for i := 0; i < ingestBatch; i++ {
			pnum, date, rec, reg := p.pnumAny(), p.day(), p.pnumAny(), p.region()
			seq++
			k := [2]int64{pnum, date}
			keys = append(keys, k)
			written[k] = append(written[k], [2]any{rec, reg})
			ops = append(ops, op{kind: opWrite, shape: "insert", row: callRow(seq, pnum, rec, date, reg, r)})
		}
		ops = append(ops, op{kind: opUncovered, shape: "Q11", sql: p.shapeSQL("Q11"), sample: sample})
		for i := 0; i < ingestReads; i++ {
			shape := [2]string{"Q2", "Q3"}[i%2]
			if i%4 < 2 {
				k := keys[r.Intn(len(keys))]
				o := op{kind: opRead, shape: shape, written: append([][2]any(nil), written[k]...)}
				if shape == "Q2" {
					o.sql = fmt.Sprintf(`SELECT recnum, region FROM call WHERE pnum = %d AND date = %d`, k[0], k[1])
				} else {
					o.sql = fmt.Sprintf(`SELECT region, COUNT(*) AS calls FROM call WHERE pnum = %d AND date = %d GROUP BY region ORDER BY calls DESC, region`, k[0], k[1])
				}
				ops = append(ops, o)
				continue
			}
			ops = append(ops, op{kind: opRead, shape: shape, sql: p.shapeSQL(shape), sample: sample && i == ingestReads-1})
		}
		return ops
	}
	var warmOps, ops []op
	for c := 0; c < warm; c++ {
		warmOps = append(warmOps, cycle(false)...)
	}
	for c := 0; c < n; c++ {
		ops = append(ops, cycle(c%8 == 3)...)
	}
	return warmOps, ops
}

// callRow is a full call record; pnum, recnum, date and region are the
// attributes the reads look up, the rest are filler derived from seq.
func callRow(seq int, pnum, rec, date int64, region string, r *rand.Rand) []any {
	s := int64(seq)
	return []any{
		pnum, rec, date, s % 86400, int64(1 + r.Intn(3600)),
		region, "voice", "mo", "volte", "DE",
		7000 + s%500, 100000 + pnum, 900000 + pnum, s % 40, s % 100, s % 100, s % 8,
		50 + s%4000, s % 65000, s % 65000, 1 + s%5, 9000000 + s, s / 1000,
		"", "flat", "EUR",
		2.5, 0.5,
		int64(0), int64(0),
	}
}

// phase is one replay of a stream: warm-up, then the timed operations.
type phase struct {
	recs  []record
	wall  time.Duration
	mem   memDelta
	cache beas.ResultCacheStats // template-tier deltas
	snaps uint64
	fails failures
	lay   layers
	spans []span
	setup setupTimes
	// serve-http only: generator lag per request, 422 count, and the
	// summed HTTP-minus-embedded latency of traced requests.
	late      []time.Duration
	rejected  int
	overhead  time.Duration
	overheadN int
}

// play replays warm untimed, then ops timed. Checks of sampled answers
// run between operations and are left out of the timed phase.
func (e *embedded) play(ctx context.Context, warmOps, ops []op, tr *tracer) *phase {
	ph := &phase{recs: make([]record, len(ops))}
	for i := range warmOps {
		if _, err := e.do(ctx, &warmOps[i], -1, nil, nil, false); err != nil {
			ph.fails.add(-1, fmt.Errorf("warm-up: %w", err))
		}
	}
	var mm memMeter
	mm.begin()
	c0, d0 := e.db.ResultCacheStats(), e.db.Durability()
	var excluded time.Duration
	start := time.Now()
	for i := range ops {
		o := &ops[i]
		keep := o.sample || o.written != nil
		out, err := e.do(ctx, o, int32(i), tr, &ph.lay, keep)
		rec := out.rec
		rec.shape = o.shape
		if err == nil {
			err = checkBound(&rec, o.sql)
		}
		if err == nil && keep {
			t := time.Now()
			mm.pause()
			err = e.verify(o, &out)
			mm.resume()
			excluded += time.Since(t)
		}
		if err != nil {
			rec.failed = true
			ph.fails.add(i, err)
		}
		ph.recs[i] = rec
	}
	ph.wall = time.Since(start) - excluded
	ph.mem = mm.end()
	c1, d1 := e.db.ResultCacheStats(), e.db.Durability()
	ph.cache = beas.ResultCacheStats{TemplateHits: c1.TemplateHits - c0.TemplateHits, TemplateMisses: c1.TemplateMisses - c0.TemplateMisses}
	ph.snaps = d1.Snapshots - d0.Snapshots
	if tr != nil {
		ph.spans = tr.spans
	}
	return ph
}

// verify checks a kept answer: reads of just-written keys must see the
// writes, and sampled answers must equal the conventional engine's.
func (e *embedded) verify(o *op, out *outcome) error {
	if o.written != nil {
		// Q2 returns (recnum, region) per call, Q3 (region, count).
		have := map[string]int64{}
		for _, r := range out.rows {
			if o.shape == "Q3" {
				have[r[0].String()] += r[1].I
			} else {
				have[r[0].String()+"|"+r[1].String()]++
			}
		}
		for _, w := range o.written {
			k := fmt.Sprint(w[0], "|", w[1])
			if o.shape == "Q3" {
				k = fmt.Sprint(w[1])
			}
			if have[k]--; have[k] < 0 {
				return fmt.Errorf("write of %v not visible to %s", w, o.sql)
			}
		}
	}
	if o.sample {
		return checkBaseline(e.db, o.sql, bagOf(out.rows))
	}
	return nil
}

// runClosed sets a closed-loop workload up several times (set-up time is
// the median), plays its stream and, traced, plays it again on a fresh
// set-up and compares the two replays operation by operation.
func runClosed(cfg config, spec closedSpec, rep *report) error {
	ds, err := writeTLC(filepath.Join(cfg.work, "data"), spec.scale, cfg.seed)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.seed))
	warmOps, ops := spec.gen(r, ds, spec.warm, spec.perSecond*cfg.seconds)
	rep.inputs(ds, ops)

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var e *embedded
	var st setupTimes
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.db.Close(); err != nil {
				return err
			}
			e = nil
		}
		runtime.GC() // each set-up starts from the same heap
		if e, st, err = spec.open(filepath.Join(cfg.work, fmt.Sprintf("db%d", i)), ds); err != nil {
			return err
		}
		setups = append(setups, st.total.Seconds())
	}
	ctx := context.Background()
	base := e.play(ctx, warmOps, ops, nil)
	base.setup = st
	if err := e.db.Close(); err != nil {
		return err
	}
	e = nil
	rep.closed(base, len(ops))
	if !cfg.trace {
		rep.endToEnd(base, median(setups), len(ops))
		return nil
	}
	runtime.GC()
	e2, st2, err := spec.open(filepath.Join(cfg.work, "traced"), ds)
	if err != nil {
		return err
	}
	traced := e2.play(ctx, warmOps, ops, newTracer(time.Now()))
	traced.setup = st2
	rep.perLayer(cfg, base, traced, len(ops))
	return e2.db.Close()
}

const setupReps = 5

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
