package beas

import (
	"context"
	"testing"
)

// digestTotals sums the per-fingerprint aggregates of a digest set.
func digestTotals(d *DigestSet) (calls, errs, cancels uint64) {
	for _, s := range d.Snapshot() {
		calls += s.Calls
		errs += s.Errors
		cancels += s.Cancels
	}
	return calls, errs, cancels
}

// TestDigestOpenFailures: a statement that fails before its cursor
// opens — a parse error, an analysis error, an already-cancelled
// context — is still a finished execution, whichever API ran it.
func TestDigestOpenFailures(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	calls := []struct {
		ctx context.Context
		sql string
	}{
		{context.Background(), "SELEKT b FROM t1"},            // parse error
		{context.Background(), "SELECT b FROM no_such_table"}, // analysis error
		{cancelled, "SELECT b FROM t1 WHERE a = 1"},           // cancelled
	}
	apis := map[string]func(context.Context, *DB, string) error{
		"Query": func(ctx context.Context, db *DB, sql string) error {
			_, err := db.QueryContext(ctx, sql)
			return err
		},
		"QueryIter": func(ctx context.Context, db *DB, sql string) error {
			ri, err := db.QueryIterContext(ctx, sql)
			if err == nil {
				ri.Close()
			}
			return err
		},
	}
	for name, run := range apis {
		db := chainDB(t, 10)
		d := NewDigestSet(16)
		db.SetDigests(d)
		for _, c := range calls {
			if err := run(c.ctx, db, c.sql); err == nil {
				t.Fatalf("%s(%q) succeeded, want an error", name, c.sql)
			}
		}
		if c, e, x := digestTotals(d); c != 3 || e != 2 || x != 1 {
			t.Errorf("%s: digests hold calls=%d errors=%d cancels=%d, want 3/2/1", name, c, e, x)
		}
	}
}
