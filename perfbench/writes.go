package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"db2rdf/internal/rdf"
)

// Written triples live in their own namespace: minted subjects, minted
// predicates and minted objects, never rdf:type. No read template names
// a predicate from this namespace or has a variable predicate, so no
// read's correct answer changes while the write stream runs (the
// property TestWritesInvisibleToReads checks on a small store, and that
// every run's baseline comparison re-checks on the real one).
const writeNS = "http://perfbench.example/w/"

// entity is one minted subject with the triples written about it.
type entity struct {
	subject string
	triples []rdf.Triple
}

// writeOp is one planned update request with the counts the store must
// report for it, and its read-your-write probe: a star query on one
// entity the request touched, with the rows the model predicts after
// the request (the entity's triples after an insert, none after a
// delete).
type writeOp struct {
	text      string
	inserted  int
	deleted   int
	probe     string
	probeWant []string // sorted "predicate<TAB>object" rows
}

// writeStream mints the update requests of one writer and keeps, by set
// arithmetic of its own, the triples those requests leave in the store.
// The request shapes follow a fixed cycle (every deleteEvery-th request
// deletes), so index folds, compactions and snapshots fall at the same
// requests in every run; the seed only chooses the objects written and
// which live entities a delete removes.
type writeStream struct {
	r           *rand.Rand
	prefix      string // writeNS + writer name + "/"
	perEntity   int    // triples per minted entity, the tag triple included
	insertEnts  int    // entities per INSERT DATA
	deleteEnts  int    // entities per DELETE DATA
	deleteEvery int    // every deleteEvery-th request is a DELETE DATA
	minted      int
	requests    int
	live        []entity
}

func newWriteStream(seed int64, writer string, perEntity, insertEnts, deleteEnts, deleteEvery int) *writeStream {
	prefix := writeNS + writer + "/"
	return &writeStream{
		r:           rand.New(rand.NewSource(seed)),
		prefix:      prefix,
		perEntity:   perEntity,
		insertEnts:  insertEnts,
		deleteEnts:  deleteEnts,
		deleteEvery: deleteEvery,
	}
}

// next plans the writer's next update request and applies it to the
// model. A delete cycle slot with too few live entities inserts instead,
// which the fixed cycle never reaches after its first insert.
func (w *writeStream) next() writeOp {
	w.requests++
	if w.requests%w.deleteEvery == 0 && len(w.live) >= w.deleteEnts {
		return w.nextDelete()
	}
	return w.nextInsert()
}

func (w *writeStream) nextInsert() writeOp {
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	n := 0
	for i := 0; i < w.insertEnts; i++ {
		e := w.mint()
		for _, t := range e.triples {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		n += len(e.triples)
		w.live = append(w.live, e)
	}
	b.WriteString("}")
	e := w.live[len(w.live)-w.insertEnts]
	return writeOp{text: b.String(), inserted: n, probe: probeText(e), probeWant: starRows(e)}
}

func (w *writeStream) nextDelete() writeOp {
	var b strings.Builder
	b.WriteString("DELETE DATA {\n")
	n := 0
	var first entity
	for i := 0; i < w.deleteEnts; i++ {
		j := w.r.Intn(len(w.live))
		e := w.live[j]
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		if i == 0 {
			first = e
		}
		for _, t := range e.triples {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		n += len(e.triples)
	}
	b.WriteString("}")
	return writeOp{text: b.String(), deleted: n, probe: probeText(first)}
}

// mint makes one fresh entity with perEntity triples over minted
// predicates whose objects are minted IRIs or plain literals.
func (w *writeStream) mint() entity {
	s := rdf.NewIRI(fmt.Sprintf("%se%d", w.prefix, w.minted))
	w.minted++
	ts := make([]rdf.Triple, 0, w.perEntity)
	for j := 0; j < w.perEntity; j++ {
		p := rdf.NewIRI(fmt.Sprintf("%sp%d", writeNS, j))
		var o rdf.Term
		if w.r.Intn(2) == 0 {
			o = rdf.NewIRI(fmt.Sprintf("%so%d", w.prefix, w.r.Intn(1<<20)))
		} else {
			o = rdf.NewLiteral(fmt.Sprintf("v%d", w.r.Intn(1<<20)))
		}
		ts = append(ts, rdf.NewTriple(s, p, o))
	}
	return entity{subject: s.Value, triples: ts}
}

func probeText(e entity) string {
	return fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", e.subject)
}

// starRows is the probe answer for a live entity.
func starRows(e entity) []string {
	out := make([]string, 0, len(e.triples))
	for _, t := range e.triples {
		out = append(out, t.P.String()+"\t"+t.O.String())
	}
	sort.Strings(out)
	return out
}

// liveLines returns every live written triple as an N-Triples line.
func (w *writeStream) liveLines() []string {
	var out []string
	for _, e := range w.live {
		for _, t := range e.triples {
			out = append(out, t.String())
		}
	}
	return out
}
