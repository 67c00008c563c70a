package beas

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/approx"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/exec"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// Baseline identifies a conventional-DBMS emulation profile.
type Baseline string

// Baseline profiles mirroring the paper's comparators.
const (
	BaselinePostgres Baseline = "postgresql"
	BaselineMySQL    Baseline = "mysql"
	BaselineMariaDB  Baseline = "mariadb"
)

func baselineProfile(b Baseline) (engine.Profile, error) {
	switch b {
	case BaselinePostgres, "":
		return engine.ProfilePostgres, nil
	case BaselineMySQL:
		return engine.ProfileMySQL, nil
	case BaselineMariaDB:
		return engine.ProfileMariaDB, nil
	default:
		return engine.Profile{}, fmt.Errorf("beas: unknown baseline %q", b)
	}
}

// parsed is a fully analysed statement: one query per UNION branch.
type parsed struct {
	branches []*analyze.Query
	unionAll []bool // unionAll[i] applies between branch i-1 and i
}

// parse analyses sql through the template cache, taking the catalog
// read lock for the duration. Callers that go on to execute use
// parseLocked under their own lock instead, so analysis and execution
// see the same catalog.
func (db *DB) parse(sql string) (*parsed, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, _, err := db.parseLocked(sql)
	if err != nil {
		return nil, err
	}
	return t.Parsed.(*parsed), nil
}

// parseLocked parses and analyses sql through the bounded template
// cache. The caller must hold db.mu (read suffices) and keep holding it
// while it uses the returned analysis.
//
// Holding the lock across the cache lookup, the analysis and the store
// closes the store-after-invalidate race: catalogVersion only advances
// under the write lock, so while we hold the read lock a concurrent DDL
// can neither invalidate the entry we just validated nor slip between
// our version check and our PutTemplate — a stale template can never be
// re-inserted over a newer catalog. It also guarantees the caller
// executes against the same catalog the analysis saw.
func (db *DB) parseLocked(sql string) (*qcache.Template, bool, error) {
	if t, ok := db.qc.GetTemplate(sql, db.catalogVersion); ok {
		return t, true, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	p := &parsed{}
	all := false
	for s := stmt; s != nil; s = s.Union {
		q, err := analyze.Analyze(s.Select, db.schema)
		if err != nil {
			return nil, false, err
		}
		p.branches = append(p.branches, q)
		p.unionAll = append(p.unionAll, all)
		all = s.UnionAll
	}
	for i := 1; i < len(p.branches); i++ {
		if len(p.branches[i].Outputs) != len(p.branches[0].Outputs) {
			return nil, false, fmt.Errorf("beas: UNION branches have different arities")
		}
	}
	t := &qcache.Template{Text: sql, Parsed: p, Version: db.catalogVersion}
	t.ResultKey, t.Fingerprint, t.Params, t.Shareable = resultKey(sql, p)
	db.qc.PutTemplate(t)
	return t, false, nil
}

// Canonicalize resolves sql to its canonical workload identity: the
// normalized fingerprint shared by all syntactic variants of the
// statement (the key of the workload digests and the capture log) and
// the extracted parameter vector in placeholder order. Statements the
// canonicalizer cannot share get a text-hash fingerprint and no
// parameters. Nothing is executed.
func (db *DB) Canonicalize(sql string) (string, []Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, _, err := db.parseLocked(sql)
	if err != nil {
		return "", nil, err
	}
	return t.Fingerprint, append([]Value(nil), t.Params...), nil
}

// resultKey computes the canonical identity of a statement's answer:
// the normalized fingerprints of all UNION branches (order and
// UNION/UNION ALL placement preserved — branches contribute bound and
// fetch statistics positionally) plus the extracted parameter vector.
// Statements whose canonical form is not shareable — an unknown
// expression shape, or an equality class carrying several
// constant-bearing conjuncts whose order affects probe order — fall
// back to the literal text, so they still cache, just without
// cross-text sharing.
//
// The parameter-free fingerprint and the parameter vector are returned
// alongside the key: the fingerprint groups all parameterizations of a
// statement in the workload digests and the capture log. Non-shareable
// statements get obs.TextFingerprint of the literal text and nil
// parameters.
func resultKey(sql string, p *parsed) (key, fingerprint string, params []value.Value, shareable bool) {
	var b strings.Builder
	for i, q := range p.branches {
		fp, ps, ok := analyze.Canonical(q)
		if !ok {
			return "!text\x00" + sql, obs.TextFingerprint(sql), nil, false
		}
		if i > 0 {
			if p.unionAll[i] {
				b.WriteString("\x1fUA\x1f")
			} else {
				b.WriteString("\x1fU\x1f")
			}
		}
		b.WriteString(fp)
		params = append(params, ps...)
	}
	fingerprint = b.String()
	b.WriteByte(0)
	b.WriteString(value.Key(params))
	return b.String(), fingerprint, params, true
}

// parseSpanLocked is parseLocked under a "parse" span annotated with the
// template-cache outcome. Callers hold db.mu (read suffices).
func (db *DB) parseSpanLocked(ctx context.Context, sql string) (*qcache.Template, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	t, hit, err := db.parseLocked(sql)
	sp.Set("planCacheHit", hit)
	sp.End()
	return t, err
}

// Check runs the BE Checker: is the query covered by the registered
// access schema, and how much data would a bounded plan fetch? Nothing is
// executed. For UNION queries every branch must be covered; the bound is
// the sum over branches.
func (db *DB) Check(sql string) (*CheckInfo, error) {
	return db.CheckContext(context.Background(), sql)
}

// CheckContext is Check under a context. The checker never touches data
// — it only parses, analyses and walks the access schema — so ctx is
// consulted once up front; an already-cancelled context fails fast
// without taking the catalog lock.
func (db *DB) CheckContext(ctx context.Context, sql string) (*CheckInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, finish := db.startTrace(ctx, "check", sql)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, err := db.parseSpanLocked(ctx, sql)
	if err != nil {
		return nil, err
	}
	p := tmpl.Parsed.(*parsed)
	info := &CheckInfo{Covered: true, EmptyGuaranteed: true}
	var planText string
	for i, q := range p.branches {
		chk := db.checkSpanLocked(ctx, q)
		if !chk.EmptyGuaranteed {
			info.EmptyGuaranteed = false
		}
		info.Bound = satAdd(info.Bound, chk.TotalBound)
		info.OutputBound = satAdd(info.OutputBound, chk.OutputBound)
		info.ConstraintsUsed += chk.ConstraintsUsed
		if !chk.Covered {
			info.Covered = false
			if info.Reason == "" {
				info.Reason = chk.Reason
			}
			pp, err := core.NewPartialPlan(q, chk)
			if err == nil {
				planText += fmt.Sprintf("branch %d:\n%s", i+1, pp.Describe(q))
			}
			continue
		}
		plan, err := core.NewPlan(q, chk)
		if err != nil {
			return nil, err
		}
		if len(p.branches) > 1 {
			planText += fmt.Sprintf("branch %d:\n", i+1)
		}
		planText += plan.Describe()
	}
	info.Plan = planText
	return info, nil
}

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}

// Query evaluates sql, preferring bounded evaluation: a covered query (or
// UNION branch) runs through a bounded plan; otherwise a partially
// bounded plan runs its covered sub-query boundedly and delegates the
// rest to the conventional engine. It is QueryIter drained.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: cancellation or deadline expiry
// halts the fetch loops and streaming joins at the next batch boundary
// and returns ctx's error. The statistics of a cancelled query reflect
// only the work actually performed.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	ri, err := db.openCursor(ctx, sql, true)
	if err != nil {
		return nil, err
	}
	return ri.drain(true)
}

// QueryBounded evaluates sql with a bounded plan only, failing when the
// query is not covered by the access schema.
func (db *DB) QueryBounded(sql string) (*Result, error) {
	return db.QueryBoundedContext(context.Background(), sql)
}

// QueryBoundedContext is QueryBounded under a context.
func (db *DB) QueryBoundedContext(ctx context.Context, sql string) (*Result, error) {
	ri, err := db.openCursor(ctx, sql, false)
	if err != nil {
		return nil, err
	}
	return ri.drain(true)
}

// QueryBaseline evaluates sql purely conventionally under one of the
// emulated DBMS profiles, ignoring the access schema — the comparator of
// the paper's evaluation.
func (db *DB) QueryBaseline(sql string, baseline Baseline) (*Result, error) {
	return db.QueryBaselineContext(context.Background(), sql, baseline)
}

// QueryBaselineContext is QueryBaseline under a context: cancellation
// halts the emulated engine's scans and joins at the next batch boundary.
func (db *DB) QueryBaselineContext(ctx context.Context, sql string, baseline Baseline) (*Result, error) {
	prof, err := baselineProfile(baseline)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, _, err := db.parseLocked(sql)
	if err != nil {
		return nil, err
	}
	p := tmpl.Parsed.(*parsed)
	start := time.Now()
	eng := engine.New(db.store, prof).WithVectorized(!db.vecOff).WithBatchSize(db.batch)
	res := &Result{Columns: p.branches[0].OutputNames(), Stats: Stats{Mode: ModeConventional}}
	var rows []value.Row
	for i, q := range p.branches {
		branchRows, st, err := eng.RunContext(ctx, q)
		if err != nil {
			return nil, err
		}
		res.Stats.TuplesScanned += st.Scanned
		for _, o := range st.Ops {
			res.Stats.Ops = append(res.Stats.Ops, OpStat(o))
		}
		if i > 0 && !p.unionAll[i] {
			rows = exec.Dedup(append(rows, branchRows...))
		} else {
			rows = append(rows, branchRows...)
		}
	}
	res.Rows = rows
	res.Stats.Plan = eng.Describe(p.branches[0])
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// QueryApprox evaluates a covered query under a budget on the number of
// tuples fetched, returning a subset of the exact answer and a
// deterministic accuracy lower bound (coverage ∈ [0,1]; 1 = exact).
func (db *DB) QueryApprox(sql string, budget int64) (*Result, float64, error) {
	return db.QueryApproxContext(context.Background(), sql, budget)
}

// QueryApproxContext is QueryApprox under a context: cancellation halts
// the budgeted fetch loop and returns ctx's error. Like Query, it runs
// under a trace (parse / check / optimize spans) and honors the
// cost-based optimizer's step ordering.
func (db *DB) QueryApproxContext(ctx context.Context, sql string, budget int64) (*Result, float64, error) {
	dig := db.digests.Load()
	if dig == nil {
		return db.queryApprox(ctx, sql, budget, nil)
	}
	start := time.Now()
	var fp string
	res, cov, err := db.queryApprox(ctx, sql, budget, &fp)
	var st *Stats
	var rows int64
	if res != nil {
		st, rows = &res.Stats, int64(len(res.Rows))
	}
	dig.Observe(digestObservation(fp, sql, st, rows, err, time.Since(start)))
	return res, cov, err
}

func (db *DB) queryApprox(ctx context.Context, sql string, budget int64, fpOut *string) (*Result, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ctx, finish := db.startTrace(ctx, "approx", sql)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, err := db.parseSpanLocked(ctx, sql)
	if err != nil {
		return nil, 0, err
	}
	if fpOut != nil {
		*fpOut = tmpl.Fingerprint
	}
	p := tmpl.Parsed.(*parsed)
	start := time.Now()
	res := &Result{Columns: p.branches[0].OutputNames(), Stats: Stats{Mode: ModeBounded, Covered: true, Optimized: db.optzr != nil, Fingerprint: tmpl.Fingerprint}}
	coverage := 1.0
	remaining := budget
	var rows []value.Row
	for i, q := range p.branches {
		chk := db.checkSpanLocked(ctx, q)
		if !chk.Covered {
			return nil, 0, fmt.Errorf("beas: approximation requires a covered query: %s", chk.Reason)
		}
		plan, err := core.NewPlan(q, chk)
		if err != nil {
			return nil, 0, err
		}
		budgetHere := remaining
		if budgetHere <= 0 {
			budgetHere = 1
		}
		ar, err := approx.RunContext(ctx, plan, budgetHere)
		if err != nil {
			return nil, 0, err
		}
		remaining -= ar.Fetched
		coverage *= ar.Coverage
		res.Stats.TuplesFetched += ar.Fetched
		res.Stats.Bound = satAdd(res.Stats.Bound, chk.TotalBound)
		if i > 0 && !p.unionAll[i] {
			rows = exec.Dedup(append(rows, ar.Rows...))
		} else {
			rows = append(rows, ar.Rows...)
		}
	}
	res.Rows = rows
	res.Stats.Duration = time.Since(start)
	return res, coverage, nil
}

// Explain returns a human-readable description of how Query would
// evaluate sql: the checker verdict, the deduced bound and the plan.
// Covered plans list, per fetch step, the access constraint, the
// worst-case key/tuple bounds and — with the cost-based optimizer on —
// the statistics-based estimated fetches.
func (db *DB) Explain(sql string) (string, error) {
	return db.ExplainContext(context.Background(), sql)
}

// ExplainContext is Explain under a context: nothing is executed, so ctx
// is consulted once up front, like CheckContext.
func (db *DB) ExplainContext(ctx context.Context, sql string) (string, error) {
	info, err := db.CheckContext(ctx, sql)
	if err != nil {
		return "", err
	}
	var out string
	switch {
	case info.EmptyGuaranteed:
		out = "empty answer guaranteed (contradictory constants); no data access\n"
	case info.Covered:
		out = fmt.Sprintf("boundedly evaluable: fetches at most %d tuples using %d access constraints\nbounded plan:\n%s",
			info.Bound, info.ConstraintsUsed, info.Plan)
	default:
		out = fmt.Sprintf("not covered by the access schema: %s\n%s", info.Reason, info.Plan)
	}
	return out, nil
}
