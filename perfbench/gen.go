package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/tlc"
)

// dataset is one generated TLC instance, written as CSVs for the program
// to load.
type dataset struct {
	dir    string
	scale  int
	tables []tableDef
	digest string
	nCust  int
	nBiz   int
}

// tableDef is a relation's name and its columns as "name TYPE", the form
// DB.CreateTable takes.
type tableDef struct {
	name string
	cols []string
}

// writeTLC generates the TLC instance for seed at scale with
// tlc.Generate and writes one CSV per relation into dir. The digest
// covers every byte written, so two runs with equal digests loaded
// identical data.
func writeTLC(dir string, scale int, seed int64) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store := storage.NewStore(tlc.Database())
	cfg := tlc.Config{Scale: scale, Seed: seed}
	if err := tlc.Generate(store, cfg); err != nil {
		return nil, fmt.Errorf("generating TLC: %w", err)
	}
	rows := cfg.Rows()
	ds := &dataset{dir: dir, scale: scale, nCust: rows["customer"], nBiz: rows["business"]}
	h := sha256.New()
	for _, rel := range tlc.Relations() {
		path := filepath.Join(dir, rel.Name+".csv")
		if err := store.SaveCSVFile(rel.Name, path); err != nil {
			return nil, err
		}
		if err := hashFile(h, path); err != nil {
			return nil, err
		}
		td := tableDef{name: rel.Name}
		for _, a := range rel.Attrs {
			td.cols = append(td.cols, a.Name+" "+a.Kind.String())
		}
		ds.tables = append(ds.tables, td)
	}
	ds.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return ds, nil
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

func (ds *dataset) csv(table string) string { return filepath.Join(ds.dir, table+".csv") }

// opKind is an operation class; each latency metric covers one class.
type opKind uint8

const (
	opRead      opKind = iota // covered query, drained to the last row
	opUncovered               // query the access schema does not cover
	opWrite                   // DB.Insert of one call row
	opReject                  // request admission must refuse (serve-http)
)

// op is one pre-generated operation of a workload's stream.
type op struct {
	kind  opKind
	shape string
	sql   string
	row   []any // opWrite: the inserted call row
	// sample marks the deterministic 1-in-K subset whose answers are
	// re-derived and compared after the operation.
	sample bool
	// written lists the (recnum, region) pairs this stream inserted under
	// the key an opRead looks up; the answer must contain each of them.
	written [][2]any
}

// streamDigest identifies an operation stream: equal digests mean equal
// statements, rows and sample marks in equal order.
func streamDigest(ops []op) string {
	h := sha256.New()
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(h, "%d|%s|%s|%v|%t|%v\n", o.kind, o.shape, o.sql, o.row, o.sample, o.written)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// picker draws indexes in [0, n) Zipf-skewed over a seeded permutation,
// so the hot keys differ per seed but their share does not. The index
// pinned to rank 0 is the key of the built-in queries' default
// parameters, for which the generator plants extra rows at every seed:
// it stays the hottest key, so how much data the workload touches does
// not swing with the seed's choice of which key is hot.
type picker struct {
	z    *rand.Zipf
	perm []int
}

func newPicker(r *rand.Rand, n, pinned int) *picker {
	perm := r.Perm(n)
	for i, v := range perm {
		if v == pinned {
			perm[0], perm[i] = perm[i], perm[0]
		}
	}
	return &picker{z: rand.NewZipf(r, 1.1, 8, uint64(n-1)), perm: perm}
}

func (p *picker) next(rank int) int {
	if rank >= 0 {
		return p.perm[rank]
	}
	return p.perm[p.z.Uint64()]
}

// params draws query parameters over the TLC key domains of a dataset.
// With rank ≥ 0 every key is the one at that rank instead of a Zipf draw.
type params struct {
	rank                      int
	rng                       *rand.Rand
	cust, pnum, date          *picker
	typeRegion, catRegion, pk *picker
	nCust                     int
}

func newParams(r *rand.Rand, ds *dataset) *params {
	nr := len(tlc.Regions)
	return &params{
		rank:       -1,
		rng:        r,
		cust:       newPicker(r, ds.nCust, tlc.ParamPnum-1000),
		pnum:       newPicker(r, ds.nCust+ds.nBiz, tlc.ParamPnum-1000),
		date:       newPicker(r, 30, tlc.ParamDate-20160301),
		typeRegion: newPicker(r, len(tlc.BusinessTypes)*nr, index(tlc.BusinessTypes, tlc.ParamType)*nr+index(tlc.Regions, tlc.ParamRegion)),
		catRegion:  newPicker(r, len(tlc.ComplaintCategories)*nr, index(tlc.ComplaintCategories, tlc.ParamCategory)*nr+index(tlc.Regions, tlc.ParamRegion)),
		pk:         newPicker(r, 60, 0),
		nCust:      ds.nCust,
	}
}

func index(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	panic("perfbench: " + s + " not in domain")
}

// pnumAny is a caller drawn from customers and businesses alike.
func (p *params) pnumAny() int64 {
	i := p.pnum.next(p.rank)
	if i < p.nCust {
		return int64(1000 + i)
	}
	return int64(500000 + i - p.nCust)
}

func (p *params) custPnum() int64 { return int64(1000 + p.cust.next(p.rank)) }
func (p *params) day() int64      { return int64(20160301 + p.date.next(p.rank)) }

func (p *params) typeRegionPair() (string, string) {
	i := p.typeRegion.next(p.rank)
	return tlc.BusinessTypes[i/len(tlc.Regions)], tlc.Regions[i%len(tlc.Regions)]
}

func (p *params) region() string { return tlc.Regions[p.rng.Intn(len(tlc.Regions))] }

// otherRegion is a region other than reg.
func (p *params) otherRegion(reg string) string {
	i := index(tlc.Regions, reg) + 1 + p.rng.Intn(len(tlc.Regions)-1)
	return tlc.Regions[i%len(tlc.Regions)]
}

// shapeSQL renders one TLC query shape (the built-in Q1–Q12 of
// internal/tlc) with parameters drawn from p.
func (p *params) shapeSQL(shape string) string {
	switch shape {
	case "Q1":
		typ, reg := p.typeRegionPair()
		return fmt.Sprintf(`SELECT call.region FROM call, package, business WHERE business.type = '%s' AND business.region = '%s' AND business.pnum = call.pnum AND call.date = %d AND call.pnum = package.pnum AND package.year = %d AND package.start <= 3 AND package.end >= 3 AND package.pid = 'c%d'`,
			typ, reg, p.day(), tlc.Year, p.pk.next(p.rank))
	case "Q1wide":
		// Q1 over two regions: the IN list doubles the deduced bound M.
		typ, reg := p.typeRegionPair()
		return fmt.Sprintf(`SELECT call.region FROM call, package, business WHERE business.type = '%s' AND business.region IN ('%s', '%s') AND business.pnum = call.pnum AND call.date = %d AND call.pnum = package.pnum AND package.year = %d AND package.start <= 3 AND package.end >= 3 AND package.pid = 'c%d'`,
			typ, reg, p.otherRegion(reg), p.day(), tlc.Year, p.pk.next(p.rank))
	case "Q2":
		return fmt.Sprintf(`SELECT recnum, region FROM call WHERE pnum = %d AND date = %d`, p.pnumAny(), p.day())
	case "Q3":
		return fmt.Sprintf(`SELECT region, COUNT(*) AS calls FROM call WHERE pnum = %d AND date = %d GROUP BY region ORDER BY calls DESC, region`, p.pnumAny(), p.day())
	case "Q4":
		return fmt.Sprintf(`SELECT customer.name, package.pid, package.start, package.end FROM customer, package WHERE customer.pnum = %d AND package.pnum = customer.pnum AND package.year = %d`, p.custPnum(), tlc.Year)
	case "Q5":
		return fmt.Sprintf(`SELECT DISTINCT sms.recnum FROM call, sms WHERE call.pnum = %d AND call.date = %d AND sms.pnum = call.pnum AND sms.date = call.date`, p.pnumAny(), p.day())
	case "Q6":
		return fmt.Sprintf(`SELECT month, amount, status FROM billing WHERE pnum = %d AND year = %d ORDER BY month`, p.custPnum(), tlc.Year)
	case "Q7":
		typ, reg := p.typeRegionPair()
		return fmt.Sprintf(`SELECT billing.month, SUM(billing.amount) AS total FROM business, billing WHERE business.type = '%s' AND business.region = '%s' AND billing.pnum = business.pnum AND billing.year = %d GROUP BY billing.month ORDER BY billing.month`, typ, reg, tlc.Year)
	case "Q8":
		i := p.catRegion.next(p.rank)
		return fmt.Sprintf(`SELECT customer.segment, COUNT(*) AS n FROM complaint, customer WHERE complaint.category = '%s' AND complaint.region = '%s' AND customer.pnum = complaint.pnum GROUP BY customer.segment ORDER BY n DESC, customer.segment`,
			tlc.ComplaintCategories[i/len(tlc.Regions)], tlc.Regions[i%len(tlc.Regions)])
	case "Q9":
		lo := p.day()
		return fmt.Sprintf(`SELECT country, SUM(charge) AS spend FROM roaming WHERE pnum = %d AND date BETWEEN %d AND %d GROUP BY country ORDER BY country`, p.custPnum(), lo, lo+7)
	case "Q10":
		typ, _ := p.typeRegionPair()
		return fmt.Sprintf(`SELECT business.region, COUNT(DISTINCT business.pnum) AS banks FROM business WHERE business.type = '%s' AND business.region IN ('%s', '%s', '%s') GROUP BY business.region ORDER BY business.region`, typ, p.region(), p.region(), p.region())
	case "Q11":
		typ, reg := p.typeRegionPair()
		return fmt.Sprintf(`SELECT business.pnum, COUNT(*) AS long_calls FROM business, call WHERE business.type = '%s' AND business.region = '%s' AND call.recnum = business.pnum AND call.duration > 3000 GROUP BY business.pnum ORDER BY long_calls DESC, business.pnum`, typ, reg)
	case "Q12":
		typ, reg := p.typeRegionPair()
		return fmt.Sprintf(`SELECT billing.month, COUNT(*) AS n FROM business, call, billing WHERE business.type = '%s' AND business.region = '%s' AND call.pnum = business.pnum AND call.date = %d AND call.region = '%s' AND billing.pnum = business.pnum AND billing.year = %d GROUP BY billing.month ORDER BY billing.month`, typ, reg, p.day(), p.region(), tlc.Year)
	}
	panic("perfbench: unknown shape " + shape)
}
