package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// smallStore loads LUBM(2) into an in-memory store.
func smallStore(t *testing.T) (*db2rdf.Store, *dataset) {
	t.Helper()
	ds := newDataset("lubm2", gen.LUBM(2))
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadParallel(bytes.NewReader(ds.nt), 2); err != nil {
		t.Fatal(err)
	}
	return s, ds
}

// readTexts is every read the workloads issue against LUBM: the corpus
// queries and every serve-mixed template at a few drawn constants.
func readTexts(t *testing.T, ds *dataset) (map[string]*instance, []string) {
	t.Helper()
	ts, err := newTemplateSet(ds.gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := ts.planReads(rand.New(rand.NewSource(1)), 200)
	ins, err := serveInstances(ds, ts, [][]plannedRead{plan})
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for text := range ins {
		texts = append(texts, text)
	}
	o, err := newOracle(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.gen.Queries {
		in, err := o.instance(q.Name, q.Name, q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		ins[q.SPARQL] = in
		texts = append(texts, q.SPARQL)
	}
	return ins, texts
}

// TestNoReadTemplateNamesWrittenPredicates checks the property
// statically: no read pattern has a variable predicate or a predicate
// from the write namespace, so no read can match a written triple.
func TestNoReadTemplateNamesWrittenPredicates(t *testing.T) {
	_, ds := smallStore(t)
	_, texts := readTexts(t, ds)
	for _, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range q.Where.AllTriples() {
			if tp.P.IsVar {
				t.Errorf("read has a variable predicate: %s", text)
			}
			if strings.HasPrefix(tp.P.Term.Value, writeNS) || strings.HasPrefix(tp.S.Term.Value, writeNS) || strings.HasPrefix(tp.O.Term.Value, writeNS) {
				t.Errorf("read names the write namespace: %s", text)
			}
			if tp.P.Term.Value == rdf.RDFType && strings.HasPrefix(tp.O.Term.Value, writeNS) {
				t.Errorf("read types into the write namespace: %s", text)
			}
		}
	}
}

// TestWritesInvisibleToReads checks the property on a small store: every
// read's answer equals the baseline's before the write streams run and
// after, and every write reports the counts the model predicts and
// passes its read-your-write probe.
func TestWritesInvisibleToReads(t *testing.T) {
	ctx := context.Background()
	s, ds := smallStore(t)
	ins, texts := readTexts(t, ds)
	checkAll := func(when string) {
		for _, text := range texts {
			res, err := s.QueryContext(ctx, text)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if err := ins[text].check(res); err != nil {
				t.Errorf("%s: %v", when, err)
			}
		}
	}
	checkAll("before writes")
	streams := []*writeStream{
		newWriteStream(3, "serve", servePerEntity, serveInsertEnts, serveDeleteEnts, serveDeleteEvery),
		newWriteStream(3, "batch", batchPerEntity, 6, 12, batchDeleteEvery),
	}
	for _, ws := range streams {
		for u := 0; u < 24; u++ {
			op := ws.next()
			res, err := s.UpdateContext(ctx, op.text)
			if err != nil {
				t.Fatal(err)
			}
			if res.Inserted != op.inserted || res.Deleted != op.deleted {
				t.Fatalf("update %d: got +%d -%d, model +%d -%d", u, res.Inserted, res.Deleted, op.inserted, op.deleted)
			}
			probe, err := s.QueryContext(ctx, op.probe)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(probeRows(probe), "\n"), strings.Join(op.probeWant, "\n"); got != want {
				t.Fatalf("update %d probe: got %q, model %q", u, got, want)
			}
		}
	}
	checkAll("after writes")

	// The store's content is the base data plus the net writes.
	var doc bytes.Buffer
	if _, err := s.Export(&doc); err != nil {
		t.Fatal(err)
	}
	want := ds.base
	for _, ws := range streams {
		for _, line := range ws.liveLines() {
			want.add(line)
		}
	}
	if got := exportDigest(doc.Bytes()); got != want {
		t.Errorf("export digest %+v, base plus net writes %+v", got, want)
	}
}

// TestAnswerCheckCatchesCorruption: a dropped row, a changed value and
// a reordered ORDER BY answer all fail the check.
func TestAnswerCheckCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	s, ds := smallStore(t)
	o, err := newOracle(ds)
	if err != nil {
		t.Fatal(err)
	}
	in, err := o.instance("LQ14", "LQ14", ds.gen.Queries[len(ds.gen.Queries)-1].SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *db2rdf.Results {
		res, err := s.QueryContext(ctx, in.text)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < 2 {
			t.Fatalf("%s: want at least two rows, got %d", in.name, len(res.Rows))
		}
		return res
	}
	if err := in.check(fresh()); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	res := fresh()
	res.Rows = res.Rows[1:]
	if in.check(res) == nil {
		t.Error("a dropped row passed the check")
	}
	res = fresh()
	res.Rows[0][0].Term = rdf.NewIRI("http://lubm/nobody")
	if in.check(res) == nil {
		t.Error("a changed value passed the check")
	}

	ordered := `SELECT ?n WHERE { ?x <http://lubm/name> ?n } ORDER BY ?n`
	oin, err := o.instance("ordered", "ordered", ordered)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.QueryContext(ctx, ordered)
	if err != nil {
		t.Fatal(err)
	}
	if err := oin.check(res); err != nil {
		t.Fatalf("correct ordered answer rejected: %v", err)
	}
	last := len(res.Rows) - 1
	res.Rows[0], res.Rows[last] = res.Rows[last], res.Rows[0]
	if oin.check(res) == nil {
		t.Error("an answer out of ORDER BY order passed the check")
	}
}

// TestRecoveryCheckCatchesLostWrite: a durable store recovered intact
// passes the recovery check, and the same directory with its newest
// snapshot and its write-ahead log deleted fails it.
func TestRecoveryCheckCatchesLostWrite(t *testing.T) {
	ctx := context.Background()
	ds := newDataset("lubm2", gen.LUBM(2))
	opts := db2rdf.Options{DataDir: t.TempDir(), SnapshotEvery: 4}
	s, err := db2rdf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadParallel(bytes.NewReader(ds.nt), 2); err != nil {
		t.Fatal(err)
	}
	ws := newWriteStream(5, "serve", servePerEntity, serveInsertEnts, serveDeleteEnts, serveDeleteEvery)
	for u := 0; u < 12; u++ {
		if _, err := s.UpdateContext(ctx, ws.next().text); err != nil {
			t.Fatal(err)
		}
	}
	var doc bytes.Buffer
	if _, err := s.Export(&doc); err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(doc.Bytes())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := func() []string {
		t.Helper()
		s, err := db2rdf.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r := &run{metrics: map[string]metric{}}
		r.checkRecovered(ds, s, before, ws.liveLines())
		return r.errs
	}
	if errs := recovered(); len(errs) != 0 {
		t.Fatalf("intact recovery failed the check: %v", errs)
	}
	if err := loseWrites(opts.DataDir); err != nil {
		t.Fatal(err)
	}
	if errs := recovered(); len(errs) == 0 {
		t.Error("a recovery that lost writes passed the check")
	}
}

// loseWrites deletes the newest snapshot and the write-ahead log of a
// closed store directory, so recovery can only reach an older state:
// the lost-write fault the recovery check must catch.
func loseWrites(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var snaps []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "wal-"):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshot in %s to drop", dir)
	}
	sort.Strings(snaps)
	return os.Remove(filepath.Join(dir, snaps[len(snaps)-1]))
}
