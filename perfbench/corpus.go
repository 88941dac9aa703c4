package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"db2rdf"
	"db2rdf/internal/gen"
)

// corpus-analytic: one in-process client, closed loop, over every query
// of the LUBM, SP2B, PRBench and DBpedia corpora — LUBM at two scales —
// followed by a batch of large writes on the LUBM(100) store, Close and
// recovery.
const (
	corpusSnapshotEvery = 32  // epochs between background snapshots: 8 cycles in the batch phase
	corpusMinPasses     = 12  // 12 x 90 reads leave 10 samples beyond the 99th percentile
	batchUpdates        = 256 // large update requests in the batch phase
	batchPerEntity      = 8   // triples per minted entity
	batchInsertEnts     = 48  // entities per INSERT DATA: 384 triples
	batchDeleteEnts     = 96  // entities per DELETE DATA: 768 triples
	batchDeleteEvery    = 4   // every 4th request deletes
)

func corpusAnalytic(r *run) error {
	ctx := context.Background()
	dss := []*dataset{
		newDataset("lubm100", gen.LUBM(100)),
		newDataset("lubm4", gen.LUBM(4)),
		newDataset("sp2b", gen.SP2B(15000)),
		newDataset("prbench", gen.PRBench(15000)),
		newDataset("dbpedia", gen.DBpedia(15000)),
	}
	var ins []*instance
	for i, ds := range dss {
		o, err := newOracle(ds)
		if err != nil {
			return err
		}
		for _, q := range ds.gen.Queries {
			in, err := o.instance(ds.name+"/"+q.Name, ds.name+"/"+q.Name, q.SPARQL)
			if err != nil {
				return err
			}
			in.store = i
			ins = append(ins, in)
		}
		ds.gen = nil
	}
	st, err := r.setup(dss, corpusSnapshotEvery)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))

	// Untimed warm-up pass: plans compiled and cached, answers checked.
	for _, i := range rng.Perm(len(ins)) {
		r.read(ctx, st.db[ins[i].store], ins[i])
	}

	if r.trace {
		return r.corpusTraced(ctx, st, ins, rng)
	}

	passes := max(corpusMinPasses, r.seconds)
	lat := map[string][]float64{}
	var all []float64
	var busy time.Duration
	var alloc uint64 // heap bytes allocated inside the program's calls
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(ins)) {
			if d, a, ok := r.read(ctx, st.db[ins[i].store], ins[i]); ok {
				lat[ins[i].group] = append(lat[ins[i].group], ms(d))
				all = append(all, ms(d))
				busy += d
				alloc += a
			}
		}
	}
	fmt.Fprintf(os.Stderr, "read phase: %d reads, %.1f MB/read, %.2f s busy\n", len(all), float64(alloc)/float64(len(all))/1e6, busy.Seconds())
	ws := newWriteStream(r.seed, "batch", batchPerEntity, batchInsertEnts, batchDeleteEnts, batchDeleteEvery)
	upd, calls, wAlloc := r.writeBatch(ctx, st.db[0], ws)
	fmt.Fprintf(os.Stderr, "write phase: %d updates, %.1f MB per update and probe\n", len(upd), float64(wAlloc)/float64(calls)/1e6)

	r.readMetrics(all, lat, float64(len(all))/busy.Seconds())
	r.updateMetrics(upd)
	r.set("alloc_bytes_per_op", float64(alloc+wAlloc)/float64(len(all)+calls), "bytes")
	written := make([][]string, len(dss))
	written[0] = ws.liveLines()
	return r.closeAndRecover(st, written, st.triples()+len(written[0]))
}

// read runs one timed in-process read and checks its answer outside
// the timed span. It returns the latency and the heap bytes allocated
// inside QueryContext.
func (r *run) read(ctx context.Context, s *db2rdf.Store, in *instance) (time.Duration, uint64, bool) {
	r.attempt()
	a0 := heapAllocated()
	start := time.Now()
	res, err := s.QueryContext(ctx, in.text)
	d := time.Since(start)
	a := heapAllocated() - a0
	if err != nil {
		r.opFailed("query "+in.name, err)
		return 0, 0, false
	}
	r.checkRead(in, res)
	return d, a, true
}

// checkRead compares an answer with the baseline's.
func (r *run) checkRead(in *instance, res *db2rdf.Results) {
	if err := in.check(res); err != nil {
		r.wrong("%v", err)
	}
}

// writeBatch sends the write stream's requests one at a time through
// UpdateContext, checks the counts each reports against the model, and
// after each runs the read-your-write probe. It returns the update
// latencies in milliseconds, the number of update and probe calls that
// succeeded, and the heap bytes allocated inside those calls.
func (r *run) writeBatch(ctx context.Context, s *db2rdf.Store, ws *writeStream) (lat []float64, calls int, alloc uint64) {
	for u := 0; u < batchUpdates; u++ {
		op := ws.next()
		r.attempt()
		a0 := heapAllocated()
		start := time.Now()
		res, err := s.UpdateContext(ctx, op.text)
		d := time.Since(start)
		alloc += heapAllocated() - a0
		if err != nil {
			r.opFailed(fmt.Sprintf("update %d", u), err)
			continue
		}
		lat = append(lat, ms(d))
		calls++
		if res.Inserted != op.inserted || res.Deleted != op.deleted {
			r.wrong("update %d: inserted %d deleted %d, expected %d and %d", u, res.Inserted, res.Deleted, op.inserted, op.deleted)
		}
		if a, ok := r.probe(ctx, s, op); ok {
			calls++
			alloc += a
		}
	}
	return lat, calls, alloc
}

// probe is the read-your-write check, in process. It returns the heap
// bytes allocated inside QueryContext.
func (r *run) probe(ctx context.Context, s *db2rdf.Store, op writeOp) (uint64, bool) {
	r.attempt()
	a0 := heapAllocated()
	res, err := s.QueryContext(ctx, op.probe)
	a := heapAllocated() - a0
	if err != nil {
		r.opFailed("probe", err)
		return 0, false
	}
	r.checkProbe(op, probeRows(res))
	return a, true
}

func (r *run) checkProbe(op writeOp, got []string) {
	if strings.Join(got, "\n") != strings.Join(op.probeWant, "\n") {
		r.wrong("read-your-write probe %s: %d rows, model has %d (or they differ)", op.probe, len(got), len(op.probeWant))
	}
}

// readMetrics reports the read-side end-to-end metrics. lat groups the
// samples by query instance (corpus) or template (serve).
func (r *run) readMetrics(all []float64, lat map[string][]float64, perSecond float64) {
	if beyond(len(all), 99) < 10 {
		r.wrong("only %d reads: fewer than ten samples beyond the 99th percentile", len(all))
	}
	r.set("query_p50_ms", percentile(all, 50), "ms")
	r.set("query_p99_ms", percentile(all, 99), "ms")
	r.set("corpus_geomean_ms", geomeanOfMedians(lat), "ms")
	r.set("queries_per_s", perSecond, "1/s")
}

func (r *run) updateMetrics(upd []float64) {
	if beyond(len(upd), 90) < 10 {
		r.wrong("only %d updates: fewer than ten samples beyond the 90th percentile", len(upd))
	}
	r.set("update_p50_ms", percentile(upd, 50), "ms")
	r.set("update_p90_ms", percentile(upd, 90), "ms")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
