package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// dataset is one generated corpus: its N-Triples bytes (what set-up
// loads), the digest of its distinct triples (what recovery is checked
// against) and its query workload.
type dataset struct {
	name    string
	gen     *gen.Dataset
	nt      []byte
	triples int       // distinct triples, the count the store holds
	base    setDigest // of the distinct N-Triples lines
}

func newDataset(name string, g *gen.Dataset) *dataset {
	var buf bytes.Buffer
	w := rdf.NewWriter(&buf)
	seen := make(map[string]struct{}, len(g.Triples))
	d := &dataset{name: name, gen: g}
	for _, t := range g.Triples {
		line := t.String()
		if err := w.WriteLine(line); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
		if _, dup := seen[line]; !dup {
			seen[line] = struct{}{}
			d.base.add(line)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	d.nt = buf.Bytes()
	d.triples = d.base.n
	return d
}

// setDigest is an order-independent digest of a set of lines: the count
// and the wrapping sum of their 64-bit hashes.
type setDigest struct {
	n   int
	sum uint64
}

func (d *setDigest) add(line string) { d.n++; d.sum += hash64(line) }

// hash64 is the 64-bit FNV-1a hash of s. Over a byte slice it
// allocates nothing.
func hash64[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// exportDigest digests the lines of an Export document.
func exportDigest(doc []byte) setDigest {
	var d setDigest
	sc := bufio.NewScanner(bytes.NewReader(doc))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		d.add(sc.Text())
	}
	return d
}

// shape is what a query's text fixes about its answer's form.
type shape struct {
	ask       bool
	orderVars []string // ORDER BY keys, when every key is a projected variable
	limited   bool     // LIMIT present: which tied rows survive is unspecified
}

func shapeOf(text string) (shape, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return shape{}, err
	}
	sh := shape{ask: q.Ask, limited: q.Limit >= 0}
	projected := map[string]bool{}
	for _, v := range q.ProjectedVars() {
		projected[v] = true
	}
	for _, k := range q.OrderBy {
		v, ok := k.Expr.(*sparql.EVar)
		if !ok || !projected[v.Name] {
			sh.orderVars = nil
			break
		}
		sh.orderVars = append(sh.orderVars, v.Name)
	}
	return sh, nil
}

// answer digests a query answer. Rows are compared as a multiset of
// decoded rows; where ORDER BY fixes an order, the sequence of order
// keys is compared too; where LIMIT may cut among ties, only the count
// and the key sequence are.
type answer struct {
	ask      bool
	askVal   bool
	rows     int
	multiset uint64
	keys     uint64
}

// digest builds the answer digest from a row accessor. Columns are
// matched by variable name, so the two systems may order them apart.
func digest(sh shape, askVal bool, vars []string, nrows int, cell func(r, c int) (rdf.Term, bool)) answer {
	a := answer{ask: sh.ask, askVal: askVal, rows: nrows}
	if sh.ask {
		a.rows = 0
		return a
	}
	col := make(map[string]int, len(vars))
	for i, v := range vars {
		col[v] = i
	}
	names := append([]string(nil), vars...)
	sort.Strings(names)
	render := func(r int, names []string) string {
		var b strings.Builder
		for i, v := range names {
			if i > 0 {
				b.WriteByte('\t')
			}
			c, ok := col[v]
			if !ok {
				b.WriteString("MISSING")
				continue
			}
			if t, bound := cell(r, c); bound {
				b.WriteString(t.String())
			} else {
				b.WriteString("UNDEF")
			}
		}
		return b.String()
	}
	keys := fnv.New64a()
	for r := 0; r < nrows; r++ {
		a.multiset += hash64(render(r, names))
		if len(sh.orderVars) > 0 {
			keys.Write([]byte(render(r, sh.orderVars)))
			keys.Write([]byte{'\n'})
		}
	}
	if len(sh.orderVars) > 0 {
		a.keys = keys.Sum64()
	}
	if sh.limited {
		a.multiset = 0
	}
	return a
}

func digestResults(sh shape, res *db2rdf.Results) answer {
	return digest(sh, res.Ask, res.Vars, len(res.Rows), func(r, c int) (rdf.Term, bool) {
		b := res.Rows[r][c]
		return b.Term, b.Bound
	})
}

func digestBaseline(sh shape, res *baselines.Results) answer {
	return digest(sh, res.Ask, res.Vars, len(res.Rows), func(r, c int) (rdf.Term, bool) {
		return res.Rows[r][c], res.Bound[r][c]
	})
}

// mismatch explains how got differs from want ("" when it does not).
func (want answer) mismatch(got answer) string {
	switch {
	case want.ask != got.ask:
		return "ASK-ness differs"
	case want.ask && want.askVal != got.askVal:
		return fmt.Sprintf("ASK answered %v, baseline %v", got.askVal, want.askVal)
	case want.rows != got.rows:
		return fmt.Sprintf("%d rows, baseline %d", got.rows, want.rows)
	case want.multiset != got.multiset:
		return "row multiset differs from the baseline's"
	case want.keys != got.keys:
		return "ORDER BY key sequence differs from the baseline's"
	}
	return ""
}

// instance is one read the benchmark issues: a query text with its
// answer recomputed by the triple-schema baseline on the same data.
type instance struct {
	store int    // index of the dataset's store
	name  string // dataset/query, e.g. "lubm100/LQ2"
	group string // what per-group medians are taken over
	text  string
	shape shape
	want  answer
}

// oracle answers reads with the triple-schema baseline. The baseline
// shares the SPARQL parser, optimizer, translator and the rel engine
// with the program, but not the DB2RDF schema, its loader, the plan
// cache, snapshots, durability or the facade's decode path.
type oracle struct {
	ts *baselines.TripleStore
}

func newOracle(ds *dataset) (*oracle, error) {
	ts, err := baselines.NewTripleStore(baselines.TripleOptions{IndexSubject: true, IndexObject: true})
	if err != nil {
		return nil, err
	}
	if err := ts.LoadTriples(ds.gen.Triples); err != nil {
		return nil, err
	}
	return &oracle{ts: ts}, nil
}

func (o *oracle) instance(name, group, text string) (*instance, error) {
	sh, err := shapeOf(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := o.ts.Query(text)
	if err != nil {
		return nil, fmt.Errorf("%s: baseline: %w", name, err)
	}
	return &instance{name: name, group: group, text: text, shape: sh, want: digestBaseline(sh, res)}, nil
}

// check compares a program answer with the baseline's.
func (in *instance) check(res *db2rdf.Results) error {
	if m := in.want.mismatch(digestResults(in.shape, res)); m != "" {
		return fmt.Errorf("%s: %s", in.name, m)
	}
	return nil
}
