package beas

import (
	"context"
	"fmt"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// RowIter is a streaming cursor over a query result: batches of rows are
// produced on demand by a pull pipeline, so the full result — and the
// intermediate relations feeding it — are never materialised at once.
// It is the one evaluator behind Query, QueryBounded and ExplainAnalyze,
// which drain it. Iterate with NextBatch (or the per-row Next) and
// always Close when done; abandoning the cursor early (e.g. after the
// first batch of a huge join) stops the underlying scans and index
// probes.
//
// The cursor holds the catalog read lock until Close (DDL and
// access-schema changes block), but row writes do not: inserting into
// or deleting from a table an open cursor is scanning fails the cursor
// with a "mutated during scan" error on its next pull rather than
// tearing the stream, and bounded cursors probe the live constraint
// indices. Close is idempotent and is called automatically when the
// stream is exhausted or errors.
type RowIter struct {
	db     *DB
	it     iter.Iterator
	res    *Result
	final  []func() // fold per-branch execution stats into res at close, in branch order
	finish func()   // finish the trace this cursor started (a no-op when it started none)
	start  time.Time

	batch  iter.Batch
	rows   []Row // per-row cursor state for Next
	pos    int
	opened bool
	closed bool
	err    error

	// Workload-digest state: the set installed when the cursor opened,
	// the statement text and a count of rows actually streamed. The
	// observation happens once, with the terminal outcome: at Close, or
	// when the statement fails before its cursor opens.
	digests *obs.DigestSet
	sql     string
	rowsOut int64

	// Store-on-drain state for the semantic result cache. A cursor that
	// streams a fully covered statement to exhaustion has materialised
	// the complete bounded answer anyway (it is at most the deduced
	// bound M rows), so Close admits it; an abandoned or failed cursor
	// has a partial answer and never stores.
	cacheOK   bool
	cacheKey  string
	cacheTvs  []qcache.TableVersion
	cacheBr   []cachedBranch
	cacheRows []value.Row // private to the cursor: never a caller's Result.Rows
	drained   bool
}

// cachedBranch pins one covered branch's plan, analysis and executor
// statistics for result-cache registration at Close.
type cachedBranch struct {
	plan *core.Plan
	q    *analyze.Query
	st   *core.Stats
}

// QueryIter evaluates sql exactly like Query — bounded when covered,
// partially bounded or conventional otherwise, per UNION branch — but
// returns a streaming cursor instead of a materialised Result. Query is
// this cursor drained; QueryIter additionally guarantees that a
// consumer which stops early never pays for the rows it did not read.
func (db *DB) QueryIter(sql string) (*RowIter, error) {
	return db.QueryIterContext(context.Background(), sql)
}

// QueryIterContext is QueryIter under a context: once ctx is cancelled
// or its deadline passes, the cursor's next pull fails with ctx's error
// and the underlying fetch loops, scans and joins stop at the next batch
// boundary. The cursor still must be Closed (cancellation does not
// release the catalog read lock); its statistics then reflect only the
// work performed before the cancellation.
func (db *DB) QueryIterContext(ctx context.Context, sql string) (*RowIter, error) {
	return db.openCursor(ctx, sql, true)
}

// openCursor analyses sql and plans every UNION branch into an unopened
// cursor that holds the catalog read lock until Close. allowFallback
// selects the policy for an uncovered branch: a partially bounded (or
// conventional) plan, or rejection of the whole statement before any
// branch executes. A statement that fails here — parse, analysis, a
// cancelled ctx, an eager sub-plan — is folded into the digests.
func (db *DB) openCursor(ctx context.Context, sql string, allowFallback bool) (*RowIter, error) {
	ri := &RowIter{db: db, sql: sql, digests: db.digests.Load()}
	start := time.Now()
	err := ctx.Err()
	if err == nil {
		ctx, ri.finish = db.startTrace(ctx, "query", sql)
		db.mu.RLock()
		if err = ri.planLocked(ctx, allowFallback); err != nil {
			db.mu.RUnlock()
			ri.finish()
		}
	}
	if err != nil {
		ri.observe(nil, err, time.Since(start))
		return nil, err
	}
	return ri, nil
}

// planLocked builds the cursor's pipeline. Callers hold db.mu (read).
func (ri *RowIter) planLocked(ctx context.Context, allowFallback bool) error {
	db := ri.db
	tmpl, err := db.parseSpanLocked(ctx, ri.sql)
	if err != nil {
		return err
	}
	p := tmpl.Parsed.(*parsed)
	ri.res = &Result{Columns: p.branches[0].OutputNames(), Stats: Stats{Mode: ModeBounded, Covered: true, Optimized: db.optzr != nil, Fingerprint: tmpl.Fingerprint}}
	ri.start = time.Now()

	// Semantic result cache: a fresh materialized answer streams from the
	// snapshot instead of re-executing. A hit is only possible for fully
	// covered statements, so the fallback policy cannot differ.
	cacheOn := db.qc.ResultsEnabled()
	if cacheOn {
		_, sp := obs.StartSpan(ctx, "cache")
		cr, hit := db.qc.GetResult(tmpl.ResultKey)
		sp.Set("hit", hit)
		sp.End()
		if hit {
			ri.res.Stats.Bound = cr.Bound
			ri.res.Stats.ConstraintsUsed = cr.ConstraintsUsed
			ri.res.Stats.Plan = cr.Plan
			ri.res.Stats.CacheHit = true
			ri.final = append(ri.final, func() {
				ri.res.Stats.TuplesFetched += cr.TuplesFetched
				for _, s := range cr.Steps {
					ri.res.Stats.FetchSteps = append(ri.res.Stats.FetchSteps, StepStat(s))
				}
			})
			ri.it = iter.FromRows(cr.Rows, nil)
			return nil
		}
	}

	// Check every branch before executing any, so a strict statement is
	// rejected without running (eagerly, in parallel mode) its covered
	// branches.
	var buf [4]*core.CheckResult // keeps a short statement's verdicts off the heap
	checks := buf[:0]
	cacheable := cacheOn
	for _, q := range p.branches {
		chk := db.checkSpanLocked(ctx, q)
		if !chk.Covered {
			if !allowFallback {
				return fmt.Errorf("beas: query is not covered by the access schema: %s", chk.Reason)
			}
			cacheable = false
		}
		checks = append(checks, chk)
	}

	// Storing needs every base-table version from *before* execution:
	// Store re-checks them so a mutation interleaved with the drain can
	// never be double-counted (once in the answer, once as a patch).
	if cacheable {
		seen := make(map[*storage.Table]bool)
		for _, q := range p.branches {
			for _, a := range q.Atoms {
				t, ok := db.store.Table(a.Rel.Name)
				if !ok {
					cacheable = false
					break
				}
				if !seen[t] {
					seen[t] = true
					ri.cacheTvs = append(ri.cacheTvs, qcache.TableVersion{Table: t, Version: t.Version()})
				}
			}
		}
	}

	parts := make([]iter.Iterator, 0, len(p.branches))
	for i, q := range p.branches {
		chk := checks[i]
		if chk.Covered {
			plan, err := core.NewPlan(q, chk)
			if err != nil {
				return err
			}
			plan.CollectKeys = cacheable
			var it iter.Iterator
			var cst *core.Stats
			if db.par > 1 {
				// Parallel mode: the bounded branch executes eagerly across
				// the worker pool (its size is bounded by the deduced bound
				// M) and the cursor streams the materialised result. A
				// consumer that stops early has already paid the bounded
				// cost — which is exactly what the checker promised.
				rows, pst, err := core.RunParallelContext(ctx, plan, db.par)
				if err != nil {
					return err
				}
				it, cst = iter.FromRows(rows, nil), pst
			} else {
				db.vecPlanLocked(plan)
				it, cst = core.StreamContext(ctx, plan)
			}
			ri.res.Stats.Bound = satAdd(ri.res.Stats.Bound, chk.TotalBound)
			ri.res.Stats.ConstraintsUsed += chk.ConstraintsUsed
			ri.res.Stats.Plan += plan.Describe()
			ri.final = append(ri.final, func() {
				ri.res.Stats.TuplesFetched += cst.Fetched
				for _, s := range cst.Steps {
					ri.res.Stats.FetchSteps = append(ri.res.Stats.FetchSteps, StepStat(s))
				}
			})
			if cacheable {
				ri.cacheBr = append(ri.cacheBr, cachedBranch{plan: plan, q: q, st: cst})
			}
			parts = append(parts, it)
			continue
		}
		// Not covered: partially bounded plan. The bounded sub-query runs
		// eagerly here (its size is bounded by the access schema); the
		// conventional join over it streams.
		pp, err := core.NewPartialPlan(q, chk)
		if err != nil {
			return err
		}
		it, subStats, engStats, err := core.StreamPartialContext(ctx, pp, q, db.fallback, db.par)
		if err != nil {
			return err
		}
		ri.res.Stats.Covered = false
		if pp.Sub != nil {
			ri.res.Stats.Mode = ModePartial
		} else {
			ri.res.Stats.Mode = ModeConventional
		}
		ri.res.Stats.Plan += pp.Describe(q)
		ri.final = append(ri.final, func() {
			ri.res.Stats.TuplesFetched += subStats.Fetched
			ri.res.Stats.TuplesScanned += engStats.Scanned
			for _, s := range subStats.Steps {
				ri.res.Stats.FetchSteps = append(ri.res.Stats.FetchSteps, StepStat(s))
			}
			for _, o := range engStats.Ops {
				ri.res.Stats.Ops = append(ri.res.Stats.Ops, OpStat(o))
			}
		})
		parts = append(parts, it)
	}

	// UNION semantics: every branch up to the last plain (non-ALL) UNION
	// shares one duplicate-elimination set; branches after it append
	// freely.
	dedupThrough := -1
	for i := 1; i < len(p.branches); i++ {
		if !p.unionAll[i] {
			dedupThrough = i
		}
	}
	ri.it = &unionIter{parts: parts, dedupThrough: dedupThrough}
	ri.cacheOK = cacheable
	ri.cacheKey = tmpl.ResultKey
	if tr, parent := obs.FromContext(ctx); tr != nil {
		// The stream span measures time spent pulling result batches
		// through the cursor — including the upstream pipeline; the fetch
		// and operator spans break out where it went.
		streamStart := time.Now()
		ri.it = iter.Timed(ri.it, func(batches, rows int64, d time.Duration) {
			tr.AddSpan(parent, "stream", streamStart, d,
				obs.Attr{Key: "batches", Val: batches},
				obs.Attr{Key: "rows", Val: rows},
			)
		})
	}
	return nil
}

// Columns returns the output column names.
func (ri *RowIter) Columns() []string { return ri.res.Columns }

// NextBatch returns the next batch of result rows, or nil when the
// stream is exhausted (the cursor closes itself then). The returned
// slice is only valid until the next NextBatch call.
func (ri *RowIter) NextBatch() ([]Row, error) {
	if ri.closed {
		return nil, ri.err
	}
	if !ri.opened {
		if err := ri.it.Open(); err != nil {
			ri.fail(err)
			return nil, err
		}
		ri.opened = true
	}
	ok, err := ri.it.Next(&ri.batch)
	if err != nil {
		ri.fail(err)
		return nil, err
	}
	if !ok {
		ri.drained = true
		ri.Close()
		return nil, nil
	}
	ri.rowsOut += int64(len(ri.batch.Rows))
	if ri.cacheOK {
		// The batch slice is reused between pulls but the rows are
		// immutable, so the cache keeps the references.
		ri.cacheRows = append(ri.cacheRows, ri.batch.Rows...)
	}
	return ri.batch.Rows, nil
}

// Next returns the next single row; ok is false once the stream is
// exhausted. Use either Next or NextBatch on a cursor, not both.
func (ri *RowIter) Next() (Row, bool, error) {
	for ri.pos >= len(ri.rows) {
		rows, err := ri.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if rows == nil {
			return nil, false, nil
		}
		ri.rows, ri.pos = rows, 0
	}
	r := ri.rows[ri.pos]
	ri.pos++
	return r, true, nil
}

// Close releases the cursor: the pipeline is shut down (stopping any
// remaining scans and index probes), execution statistics are finalised
// and the database read lock is released. Idempotent.
func (ri *RowIter) Close() error {
	if ri.closed {
		return nil
	}
	ri.closed = true
	// Close even when Open failed partway: iterators tolerate Close
	// without Open, and a half-opened pipeline must be shut down whole.
	err := ri.it.Close()
	for _, f := range ri.final {
		f()
	}
	st := &ri.res.Stats
	st.Duration = time.Since(ri.start)
	if st.Mode == ModeBounded && st.TuplesFetched == 0 && st.Bound == 0 {
		st.Mode = ModeEmpty
	}
	if ri.cacheOK && ri.drained && err == nil && ri.err == nil {
		ri.storeDrainedLocked()
	}
	ri.db.mu.RUnlock()
	ri.finish()
	if ri.err == nil {
		ri.err = err
	}
	// Outside the catalog lock: the digest set has its own mutex and the
	// cursor is single-consumer, so its stats are stable here.
	ri.observe(st, ri.err, st.Duration)
	return err
}

// observe folds one terminal outcome into the workload digests. st is
// nil when the statement failed before its cursor opened.
func (ri *RowIter) observe(st *Stats, err error, dur time.Duration) {
	if ri.digests == nil {
		return
	}
	var fp string
	if ri.res != nil {
		fp = ri.res.Stats.Fingerprint
	}
	ri.digests.Observe(digestObservation(fp, ri.sql, st, ri.rowsOut, err, dur))
}

// drain reads the cursor to exhaustion, which closes it, and returns its
// Result — with the rows when keep is set, without them otherwise.
func (ri *RowIter) drain(keep bool) (*Result, error) {
	defer ri.Close() // releases the catalog read lock even if the pipeline panics
	for {
		rows, err := ri.NextBatch()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			break
		}
		if keep {
			ri.res.Rows = append(ri.res.Rows, rows...)
		}
	}
	if ri.err != nil {
		return nil, ri.err
	}
	return ri.res, nil
}

// storeDrainedLocked admits the fully drained answer into the result
// cache, registering the per-step probed-key sets, base-table versions
// and bound guards that patching and invalidation key on. Called under
// db.mu (read) from Close, with execution statistics already folded.
func (ri *RowIter) storeDrainedLocked() {
	var cacheSteps []core.StepStat
	var regs []qcache.StepReg
	for _, cb := range ri.cacheBr {
		for si := range cb.plan.Steps {
			t, ok := ri.db.store.Table(cb.q.Atoms[cb.plan.Steps[si].Atom].Rel.Name)
			if !ok {
				return
			}
			var keys []string
			if cb.st.StepKeys != nil {
				keys = cb.st.StepKeys[si]
			}
			regs = append(regs, qcache.StepReg{Table: t, Step: &cb.plan.Steps[si], Keys: keys, StatIdx: len(cacheSteps) + si})
		}
		cacheSteps = append(cacheSteps, cb.st.Steps...)
	}
	st := &ri.res.Stats
	var firstPlan *core.Plan
	var q0 *analyze.Query
	if len(ri.cacheBr) > 0 {
		firstPlan, q0 = ri.cacheBr[0].plan, ri.cacheBr[0].q
	}
	ri.db.qc.Store(&qcache.StoreRequest{
		Key: ri.cacheKey,
		Result: &qcache.CachedResult{
			Columns:         ri.res.Columns,
			Rows:            ri.cacheRows,
			Bound:           st.Bound,
			ConstraintsUsed: st.ConstraintsUsed,
			TuplesFetched:   st.TuplesFetched,
			Steps:           cacheSteps,
			Plan:            st.Plan,
			Optimized:       st.Optimized,
		},
		Branches:    len(ri.cacheBr), // a cacheable statement has every branch covered
		Query:       q0,
		Plan:        firstPlan,
		Steps:       regs,
		Tables:      ri.cacheTvs,
		OptimizerOn: ri.db.optzr != nil,
	})
}

// Stats returns the execution statistics. Counters accrue while the
// cursor streams and are final once it is exhausted or closed; with
// early termination they reflect only the work actually performed.
func (ri *RowIter) Stats() *Stats { return &ri.res.Stats }

// Err returns the first error the cursor encountered, if any.
func (ri *RowIter) Err() error { return ri.err }

func (ri *RowIter) fail(err error) {
	if ri.err == nil {
		ri.err = fmt.Errorf("beas: streaming query: %w", err)
	}
	ri.Close()
}

// unionIter concatenates the UNION branches of a statement. Branches up
// to and including dedupThrough share one seen-set (plain UNION
// semantics: iterated dedup over the concatenation keeps first
// occurrences); branches after it are UNION ALL tails and append freely.
type unionIter struct {
	parts        []iter.Iterator
	dedupThrough int // index of last deduplicated branch; -1 = none

	cur    int
	opened int // how many parts have been opened
	seen   map[string]struct{}
	kb     []byte
	buf    iter.Batch
}

func (u *unionIter) Open() error {
	if u.dedupThrough >= 0 {
		u.seen = make(map[string]struct{})
	}
	// Branches open lazily as the cursor reaches them, so a consumer that
	// stops inside branch 0 never starts branch 1's pipeline.
	return u.openTo(0)
}

func (u *unionIter) openTo(i int) error {
	for u.opened <= i && u.opened < len(u.parts) {
		if err := u.parts[u.opened].Open(); err != nil {
			return err
		}
		u.opened++
	}
	return nil
}

func (u *unionIter) Next(b *iter.Batch) (bool, error) {
	b.Reset()
	for b.Len() == 0 {
		if u.cur >= len(u.parts) {
			return false, nil
		}
		if err := u.openTo(u.cur); err != nil {
			return false, err
		}
		ok, err := u.parts[u.cur].Next(&u.buf)
		if err != nil {
			return false, err
		}
		if !ok {
			u.cur++
			continue
		}
		for i, r := range u.buf.Rows {
			if u.cur <= u.dedupThrough {
				u.kb = value.AppendRowKey(u.kb[:0], r, nil)
				if _, dup := u.seen[string(u.kb)]; dup {
					continue
				}
				u.seen[string(u.kb)] = struct{}{}
			}
			b.Append(r, u.buf.Weight(i))
		}
	}
	return true, nil
}

func (u *unionIter) Close() error {
	var err error
	for _, p := range u.parts {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
