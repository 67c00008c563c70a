package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: human-readable lines, then one JSON
// line with the metrics of the mode it ran in.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
	// exact are the deterministic counts that must repeat bit for bit at
	// a fixed seed; they are printed in both modes.
	exact map[string]float64
}

func (r *report) put(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-28s %14.6g %s\n", name, v, unit)
}

func (r *report) inputs(ds *dataset, ops []op) {
	fmt.Fprintf(r.w, "data scale %d digest %s; stream %d ops digest %s\n", ds.scale, ds.digest, len(ops), streamDigest(ops))
}

// closed folds a phase's failures into the run's totals.
func (r *report) closed(ph *phase, n int) {
	r.attempted += n
	r.failed += ph.fails.n
	for _, s := range ph.fails.reasons {
		fmt.Fprintln(r.w, "FAIL", s)
	}
}

func meanOr0(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// tuplesPerQuery is the data a phase's queries accessed, per query.
func tuplesPerQuery(ph *phase) float64 {
	var tuples int64
	queries := 0
	for _, rec := range ph.recs {
		if (rec.kind == opRead || rec.kind == opUncovered) && !rec.failed {
			tuples += rec.fetched + rec.scanned
			queries++
		}
	}
	return meanOr0(float64(tuples), queries)
}

// endToEnd reports the untraced run's metrics.
func (r *report) endToEnd(ph *phase, setup float64, n int) {
	tpq := tuplesPerQuery(ph)
	reads := latencies(ph.recs, opRead)
	r.exact["tuples_per_query"] = tpq
	r.put("setup_s", "s", setup)
	r.put("ops_per_s", "1/s", float64(n)/ph.wall.Seconds())
	r.put("read_p50_ms", "ms", pct(reads, 0.50))
	r.put("read_p99_ms", "ms", pct(reads, 0.99))
	r.put("tuples_per_query", "count", tpq)
	r.put("allocs_per_op", "count", float64(ph.mem.mallocs)/float64(n))
	r.put("heap_mb", "MiB", ph.mem.heapMB)
	fmt.Fprintf(r.w, "read samples %d; p99 rests on %d samples above it\n", len(reads), len(reads)/100)
	r.classLatencies(ph)
	r.shapes(ph)
}

// shapes prints each statement shape's count and latency percentiles.
func (r *report) shapes(ph *phase) {
	by := map[string][]time.Duration{}
	for _, rec := range ph.recs {
		if !rec.failed {
			by[rec.shape] = append(by[rec.shape], rec.lat)
		}
	}
	names := make([]string, 0, len(by))
	for s := range by {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		l := sortedDur(by[s])
		fmt.Fprintf(r.w, "shape %-7s n %6d p10 %.4f p50 %.4f p90 %.4f p99 %.4f ms\n", s, len(l), pct(l, 0.1), pct(l, 0.5), pct(l, 0.9), pct(l, 0.99))
	}
}

// classLatencies prints the latencies of the classes only ingest-mixed
// runs; they are reported as per-layer metrics in traced runs.
func (r *report) classLatencies(ph *phase) {
	if u := latencies(ph.recs, opUncovered); len(u) > 0 {
		fmt.Fprintf(r.w, "uncovered p50 %.4f ms over %d\n", pct(u, 0.5), len(u))
	}
	if w := latencies(ph.recs, opWrite); len(w) > 0 {
		fmt.Fprintf(r.w, "write p50 %.4f ms p99 %.4f ms over %d\n", pct(w, 0.5), pct(w, 0.99), len(w))
	}
}

// perLayer checks that the traced replay measured the same program
// (rows and tuples fetched equal per operation) and reports the
// per-layer metrics: call times and per-query Stats from the traced
// replay; latencies and cache, WAL and runtime deltas from the untraced
// one.
func (r *report) perLayer(cfg config, base, traced *phase, n int) {
	r.closed(traced, 0)
	mismatch := 0
	for i := range base.recs {
		a, b := base.recs[i], traced.recs[i]
		if a.rows != b.rows || a.fetched != b.fetched {
			if mismatch < 5 {
				fmt.Fprintf(r.w, "FAIL op %d: traced replay gave %d rows/%d fetched, untraced %d/%d\n", i, b.rows, b.fetched, a.rows, a.fetched)
			}
			mismatch++
		}
	}
	r.failed += mismatch

	layers := selfTimes(traced.spans)
	path := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("trace-%s-%d.tsv", cfg.workload, cfg.seed))
	if err := writeSpans(path, traced.spans, layers); err != nil {
		fmt.Fprintln(r.w, "FAIL writing spans:", err)
		r.failed++
	}
	fmt.Fprintf(r.w, "spans: %d written to %s\n", len(traced.spans), path)
	printLayers(r.w, layers)

	l := &traced.lay
	cov := l.covered
	uncov := latencies(base.recs, opUncovered)
	writes := latencies(base.recs, opWrite)
	tpl := base.cache.TemplateHits + base.cache.TemplateMisses
	r.put("sqlparser.parse_us", "us", meanSpanUS(traced.spans, "sqlparser.parse"))
	r.put("analyze.analyze_us", "us", meanSpanUS(traced.spans, "analyze.analyze"))
	r.put("qcache.template_hit_ratio", "ratio", meanOr0(float64(base.cache.TemplateHits), int(tpl)))
	r.put("core.check_us", "us", meanSpanUS(traced.spans, "core.check"))
	r.put("core.bound_m", "count", meanOr0(l.boundSum, cov))
	r.put("core.fetch_us", "us", meanOr0(us(l.fetch), cov))
	r.put("core.fetch_steps", "count", meanOr0(float64(l.steps), cov))
	r.put("core.keys_per_query", "count", meanOr0(float64(l.keys), cov))
	r.put("core.fetched_per_query", "count", meanOr0(l.fetchedSum, cov))
	r.put("core.fetched_over_bound", "ratio", ratio(l.fetchedSum, l.boundSum))
	r.put("exec.tail_us", "us", meanOr0(us(l.tail), cov))
	r.put("engine.ops_us", "us", meanOr0(us(l.engineOps), l.uncovered))
	r.put("engine.scanned_per_query", "count", meanOr0(float64(l.scanned), l.queries))
	r.put("engine.uncovered_p50_ms", "ms", pct(uncov, 0.5))
	r.put("wal.insert_p50_ms", "ms", pct(writes, 0.5))
	r.put("wal.insert_p99_ms", "ms", pct(writes, 0.99))
	r.put("wal.bytes_per_insert", "B", meanOr0(float64(l.walBytes), l.walBytesN))
	r.put("wal.snapshots", "count", float64(base.snaps))
	r.put("wal.snapshot_ms", "ms", meanOr0(ms(l.snapshotDur), l.snapshots))
	r.put("storage.load_s", "s", base.setup.load.Seconds())
	r.put("access.build_s", "s", base.setup.build.Seconds())
	r.put("access.footprint_mb", "MiB", float64(base.setup.footprint)/(1<<20))
	r.put("server.overhead_us", "us", meanOr0(us(traced.overhead), traced.overheadN))
	r.put("server.rejected_ratio", "ratio", meanOr0(float64(base.rejected), n))
	r.put("gen.late_p99_ms", "ms", pct(sortedDur(base.late), 0.99))
	r.put("runtime.gc_pause_ms", "ms", ms(base.mem.pause))
	r.put("runtime.gc_cycles_per_kop", "count", 1000*float64(base.mem.numGC)/float64(n))
	r.put("runtime.alloc_bytes_per_op", "B", float64(base.mem.bytes)/float64(n))
	r.put("trace.overhead_ratio", "ratio", base.wall.Seconds()/traced.wall.Seconds())
	for _, k := range []string{"core.bound_m", "core.fetched_per_query", "engine.scanned_per_query", "wal.snapshots", "server.rejected_ratio"} {
		r.exact[k] = r.metrics[k].Value
	}
	r.exact["tuples_per_query"] = tuplesPerQuery(base)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish prints the exact counts, the failure ratio and the result line.
func (r *report) finish() bool {
	keys := make([]string, 0, len(r.exact))
	for k := range r.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(r.w, "exact %s = %v\n", k, r.exact[k])
	}
	correct := r.failed == 0 && r.attempted > 0
	fmt.Fprintf(r.w, "fail_ratio %v (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintln(r.w, string(line))
	return correct
}

func sortedDur(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
